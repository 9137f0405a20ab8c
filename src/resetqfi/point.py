"""The numpy-free part of the package: model parameters, sweep and
crossing specifications, the closed-form branch gap on Python floats,
the bisection for the axis-flip crossing and the text of a crossing.

Nothing here imports numpy at import time, so ``import resetqfi`` and
the closed-form ``critical`` command run without loading it.
``dynamics`` and ``sweep`` import these names back.  The gap of a solver
route and the rows that ``emit`` writes are reached from here through
function-level imports of ``sweep``.
"""

import contextlib
import io
import math
import operator
import sys
from dataclasses import dataclass

from .errors import SOLVER_ERRORS, DegenerateLimitError, NoSignChangeError

STEADY_STATE_METHODS = ("closed_form", "nullspace", "integrate")
# A state whose smallest eigenvalue lies below this fails validation; the
# check of DensityMatrix and the closed-form gap on floats read it here,
# at call time.
PSD_TOL = -1e-10

CSV_HEADER = ("r,gamma,g,mean_qfi,lambda_x,lambda_yz_hi,lambda_yz_lo,"
              "concurrence,negativity,opt_nx,opt_ny,opt_nz")
CSV_FIELDS = tuple(CSV_HEADER.split(","))
CRITICAL_BRACKET_WIDTH = 1e-4
_ALL_RATES_ZERO = "r = gamma = g = 0 singles out no steady state"


@dataclass(frozen=True)
class ModelParams:
    """Reset rate r, dephasing rate gamma and coupling g (all non-negative,
    hbar = 1); fresh particles arrive in |+>."""

    r: float
    gamma: float
    g: float

    def __post_init__(self):
        for name in ("r", "gamma", "g"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point of a sweep."""

    r: float
    gamma: float
    g: float
    mean_qfi: float
    lambda_x: float
    lambda_yz_hi: float
    lambda_yz_lo: float
    concurrence: float
    negativity: float
    opt_nx: float
    opt_ny: float
    opt_nz: float

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_FIELDS}


@dataclass(frozen=True)
class CriticalPoint:
    """Bisection result for the axis-flip crossing."""

    vary: str
    value: float
    bracket_width: float


@dataclass(frozen=True)
class SweepSpec:
    """Vary r or gamma over [start, stop], holding the other rate fixed.

    The coupling is either given directly (``g``) or as a multiple of
    the dephasing rate (``g_ratio``); exactly one of the two must be set.
    """

    vary: str
    start: float
    stop: float
    steps: int
    fixed_r: float | None = None
    fixed_gamma: float | None = None
    g: float | None = None
    g_ratio: float | None = None
    method: str = "closed_form"

    def __post_init__(self):
        if self.vary not in ("r", "gamma"):
            raise ValueError(f"vary must be 'r' or 'gamma', got {self.vary!r}")
        # rates are stored as floats, as in ModelParams, so rows carry floats
        for name in ("start", "stop", "fixed_r", "fixed_gamma", "g", "g_ratio"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, float(value))
        for name in ("start", "stop"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("fixed_r", "fixed_gamma", "g", "g_ratio"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if not self.start < self.stop:
            raise ValueError(f"need start < stop, got [{self.start}, {self.stop}]")
        if self.start < 0.0:
            raise ValueError(f"rates are non-negative, got start {self.start}")
        try:
            operator.index(self.steps)
        except TypeError:
            raise ValueError(f"steps must be an integer, got {self.steps!r}") from None
        if self.steps < 2:
            raise ValueError(f"need at least 2 steps, got {self.steps}")
        if self.method not in STEADY_STATE_METHODS:
            raise ValueError(f"method must be one of {STEADY_STATE_METHODS}, got {self.method!r}")
        if (self.g is None) == (self.g_ratio is None):
            raise ValueError("set exactly one of g and g_ratio")
        fixed_name = "fixed_gamma" if self.vary == "r" else "fixed_r"
        unused_name = "fixed_r" if self.vary == "r" else "fixed_gamma"
        if getattr(self, fixed_name) is None:
            raise ValueError(f"vary={self.vary!r} needs {fixed_name}")
        if getattr(self, unused_name) is not None:
            raise ValueError(f"vary={self.vary!r} must not set {unused_name}")
        # the rates are monotone in the varied one: valid at both ends, valid throughout
        self.params_at(self.start)
        self.params_at(self.stop)

    def grid(self):
        """The ``steps`` values of the varied rate, as a numpy array."""
        import numpy as np

        return np.linspace(self.start, self.stop, self.steps)

    def rates(self, values):
        """(r, gamma, g) at values of the varied rate, scalars or arrays."""
        r = values if self.vary == "r" else self.fixed_r
        gamma = values if self.vary == "gamma" else self.fixed_gamma
        g = self.g if self.g is not None else self.g_ratio * gamma
        return r, gamma, g

    def params_at(self, value: float) -> ModelParams:
        r, gamma, g = self.rates(value)
        return ModelParams(r=r, gamma=gamma, g=g)


def _closed_form_terms(r, gamma, g, sqrt, minimum) -> tuple:
    """C_xx, the numerators of C_yy and C_yz over their common denominator
    K P, that denominator, the negativity before its clip at 0, and the
    smallest eigenvalue of the closed-form state, at scaled rates: float64
    arrays with np.sqrt and np.minimum, or Python floats with math.sqrt
    and min.

    Only + - * / touch the polynomials, and the square root is correctly
    rounded either way, so both give the same bits.  r = 0 divides by
    zero where gamma = 0 too, and K P is 0 only where the state is |++>;
    the caller replaces those figures, or branches before it calls.
    """
    # With K = 2 D = 4 g^2 + (r + gamma)(2 r + gamma) and P, Q, W below:
    #   C_xx = 32 g^2 r^2 (r + gamma) / (K (4 g^2 (r + gamma) + (2 r + gamma)((r + gamma)^2 + r^2)))
    #   C_yy = 2 r^2 Q / ((r + gamma)^2 K P),   C_yz = 4 g r^3 W / ((r + gamma)^2 K P)
    #   negativity = max(0, 4 g (r + gamma)(r - g) - gamma (2 r + gamma)^2) / (4 (r + gamma) K)
    # The spectrum is 1/4 - a twice and 1/4 + a +- 2|e|, with a the
    # anti-diagonal entry and |e| = r sqrt((r + gamma/2)^2 + g^2) / (2 K)
    # the modulus of the (0, 1) entry.
    rg = r + gamma
    r2g = r + rg
    g2 = g * g
    k = 4.0 * g2 + rg * r2g
    dephased = gamma * r2g * r2g * r2g
    p = 4.0 * g2 * (4.0 * g2 + 2.0 * gamma * gamma + 6.0 * gamma * r + 3.0 * r * r) + dephased
    cubic = ((2.0 * gamma + 7.0 * r) * gamma + 7.0 * r * r) * gamma + 3.0 * r * r * r
    q = 16.0 * g2 * g2 * rg * rg + 4.0 * g2 * r2g * cubic + dephased * rg * r2g
    w = 4.0 * g2 * rg * (gamma + 3.0 * r) + dephased
    excess = 4.0 * g * rg * (r - g) - gamma * r2g * r2g
    ratio = r / rg  # r^2 / (r + gamma)^2 as a square, which cannot underflow
    c_xx = 32.0 * g2 * r * r * rg / (k * (4.0 * g2 * rg + r2g * (rg * rg + r * r)))
    shifted = r + 0.5 * gamma
    anti = r * ratio * shifted / (2.0 * k)
    edge = r * sqrt(shifted * shifted + g2) / (2.0 * k)
    return (c_xx, 2.0 * ratio * ratio * q, 4.0 * g * r * ratio * ratio * w, k * p,
            excess / (4.0 * rg * k), minimum(0.25 - anti, 0.25 + anti - 2.0 * edge))


def _check_smallest(smallest) -> None:
    """The positivity check of a state on its smallest eigenvalue."""
    if smallest < PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {smallest:.3e}")


def closed_form_gap(r: float, gamma: float, g: float) -> float:
    """lambda_x - lambda_yz_hi = C_xx - (C_yy + |C_yz|) of the closed-form
    state at one point of valid rates given as Python floats.

    The same terms as ``dynamics.closed_form_figures``, with the same
    checks, and the same bits as the branch gap of its C, without a numpy
    call.  Python raises ZeroDivisionError where numpy gives inf, so
    r = 0 (C = 0) and |++> (C = diag(0, 2, 2)) branch before they divide.
    """
    scale = max(r, gamma, g)
    if scale == 0.0:  # non-negative rates, so all three are 0
        raise DegenerateLimitError(_ALL_RATES_ZERO)
    r, gamma, g = r / scale, gamma / scale, g / scale
    if r == 0.0:
        return 0.0
    c_xx, yy, yz, kp, _, smallest = _closed_form_terms(r, gamma, g, math.sqrt, min)
    _check_smallest(smallest)
    if kp == 0.0:  # |++>: C_yy = 2, C_yz = 0
        return c_xx - 2.0
    return c_xx - (yy / kp + abs(yz / kp))


def _at(spec: SweepSpec, value, err: Exception) -> Exception:
    """``err`` again, its message naming the value of the varied rate."""
    return type(err)(f"{err} [at {spec.vary} = {value:.9g}]")


def _gap(spec: SweepSpec, value) -> float:
    """lambda_x - lambda_yz_hi at one value of the varied rate: from
    ``closed_form_gap`` on Python floats for the closed form, from
    ``sweep._route_gap``, C of one solved state, by the other routes.  A
    solver error names the value."""
    try:
        if spec.method == "closed_form":
            return closed_form_gap(*spec.rates(value))
        from .sweep import _route_gap

        return _route_gap(spec.params_at(value), spec.method)
    except SOLVER_ERRORS as err:
        raise _at(spec, value, err) from err


def _keeps_its_sign(spec: SweepSpec, gap_start, gap_stop) -> NoSignChangeError:
    return NoSignChangeError(f"lambda_x - lambda_yz_hi keeps its sign on {spec.vary} in "
                             f"[{spec.start}, {spec.stop}] ({gap_start:.3e} and {gap_stop:.3e})")


def find_critical_point(spec: SweepSpec) -> CriticalPoint:
    """Bisect lambda_x - lambda_yz_hi to the axis-flip crossing.

    The sweep interval [start, stop] must bracket a sign change; the
    bisection stops once the bracket is narrower than 1e-4, or once its
    ends are adjacent floats.  It evaluates the gap at the two ends, then
    at one midpoint per halving, in that order, through ``_gap``: a few
    dozen float operations with no numpy call for the closed form, one
    solved state per point for the other routes.  The gap comes from C
    alone, so no entanglement measure is computed.

    A gap of exactly 0 at an end carries no sign (the gap is 0 at r = 0,
    where C = 0, and underflows to 0 near it), so the halving takes the
    sign below the crossing from the other end.  A midpoint gap of exactly
    0 counts as the sign above the crossing.  A crossing needs a gap of the
    sign below it and one not of that sign: while an end keeps its gap of
    0, the halving goes on past the width of 1e-4, to adjacent floats at
    most, and NoSignChangeError is raised if the end is never passed.
    """
    lo, hi = spec.start, spec.stop
    ends = gap_lo, gap_hi = _gap(spec, lo), _gap(spec, hi)
    # below has the sign of the gaps below the crossing: the low end's, or
    # the opposite of the high end's where the low end's gap is 0; none
    # where both are 0.  Signs are compared, not multiplied: a product of
    # two tiny gaps underflows to 0
    below = gap_lo if gap_lo != 0.0 else -gap_hi
    if not (below > 0.0 or below < 0.0) or gap_hi > 0.0 < below or gap_hi < 0.0 > below:
        raise _keeps_its_sign(spec, *ends)
    while (hi - lo > CRITICAL_BRACKET_WIDTH or gap_lo == 0.0
           or (gap_hi == 0.0 and hi == spec.stop)):
        # halves are added, not the ends, so brackets near the largest
        # float do not overflow; the bits are those of 0.5 * (lo + hi) elsewhere
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:  # the ends are adjacent floats
            break
        gap_mid = _gap(spec, mid)
        if gap_mid > 0.0 < below or gap_mid < 0.0 > below:
            lo, gap_lo = mid, gap_mid
        else:
            hi, gap_hi = mid, gap_mid
    # the ends became adjacent floats with an end still at its gap of 0
    if gap_lo == 0.0 or (gap_hi == 0.0 and hi == spec.stop):
        raise _keeps_its_sign(spec, *ends)
    return CriticalPoint(vary=spec.vary, value=0.5 * lo + 0.5 * hi, bracket_width=0.5 * (hi - lo))


def _nine_digits(x: float) -> str:
    return f"{x:.9g}"


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cell(x: float) -> str:
    """The text json.dumps gives float("%.9g" % x): its repr, or NaN,
    Infinity or -Infinity."""
    text = repr(float("%.9g" % x))
    return _NON_FINITE.get(text, text)


def _critical_text(point: CriticalPoint, fmt: str) -> str:
    if fmt == "csv":
        return ("vary,value,bracket_width\n"
                f"{point.vary},{_nine_digits(point.value)},{_nine_digits(point.bracket_width)}\n")
    import json

    obj = {"vary": point.vary,
           "value": float(_nine_digits(point.value)),
           "bracket_width": float(_nine_digits(point.bracket_width))}
    return json.dumps(obj, indent=2) + "\n"


def emit(payload, fmt: str = "csv", path: str | None = None) -> None:
    """Serialize rows or a critical point to CSV or JSON.

    Rows are a ``SweepTable`` or any iterable of ``SweepRow``; they are
    formatted and written EMIT_CHUNK at a time, by one writer for both
    formats, and a column that holds one value over those rows is
    formatted once for them.  Values carry 9 significant digits: CSV has
    the bytes of ``"%.9g" % value`` for each value, JSON those of
    ``json.dumps(..., indent=2)`` of one object per row holding
    ``float("%.9g" % value)``.  Lines end with a bare newline.  ``path``
    of None writes to stdout.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; choose csv or json")
    if isinstance(payload, CriticalPoint):
        pieces = [_critical_text(payload, fmt)]
    else:
        from .sweep import _row_array, _row_pieces

        pieces = _row_pieces(_row_array(payload), fmt)
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="ascii", newline="")) as handle:
        for piece in pieces:
            handle.write(piece)


def parse_csv(text: str) -> list[SweepRow]:
    """Read sweep rows back from CSV produced by ``emit``; blank lines are
    skipped, and a row without one number per field raises ValueError
    naming its line."""
    import csv

    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(CSV_FIELDS):
        raise ValueError(f"unexpected CSV header {header}")
    rows = []
    for record in reader:
        if not record:
            continue
        if len(record) != len(CSV_FIELDS):
            raise ValueError(f"CSV line {reader.line_num}: {len(record)} fields, "
                             f"expected {len(CSV_FIELDS)}")
        try:
            rows.append(SweepRow(*map(float, record)))
        except ValueError as err:
            raise ValueError(f"CSV line {reader.line_num}: {err}") from None
    return rows
