"""Parameter sweeps of the steady-state figures of merit.

One-dimensional sweeps over the reset or dephasing rate collect, per
grid point, the mean QFI, the two eigenvalue branches of the moment
matrix, the optimal axis and both entanglement measures.  A bisection on
the branch gap locates the critical point where the optimal axis flips.
Rows serialize deterministically to CSV or JSON with 9 significant
digits.
"""

import csv
import io
import json
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import (STEADY_STATE_METHODS, ModelParams, closed_form_figures,
                       require_plus_reset, steady_state)
from .entanglement import concurrence, negativity
from .errors import SOLVER_ERRORS, NoSignChangeError
from .metrology import c_matrix, collective_spin_ops, top_axes

CSV_HEADER = ("r,gamma,g,mean_qfi,lambda_x,lambda_yz_hi,lambda_yz_lo,"
              "concurrence,negativity,opt_nx,opt_ny,opt_nz")
CSV_FIELDS = tuple(CSV_HEADER.split(","))
CRITICAL_BRACKET_WIDTH = 1e-4
# Grid points evaluated per stacked pass of run_sweep.  A 10^5-point
# closed-form sweep peaks 57 MB above import in chunks of 512 (mostly the
# rows it returns) and 88 MB in one pass, in 0.65-0.95 s against
# 0.78-0.83 s (3 runs each, 2-core Xeon, numpy 2.4.6, BLAS on 1 thread).
SWEEP_CHUNK = 512

_SPIN2 = collective_spin_ops(2)
_ROW_FORMAT = ",".join(["%.9g"] * len(CSV_FIELDS))
_ROW_VALUES = operator.attrgetter(*CSV_FIELDS)


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

    def to_dict(self) -> dict:
        return {"vary": self.vary, "value": self.value, "bracket_width": self.bracket_width}


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
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("fixed_r", "fixed_gamma", "g", "g_ratio"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value >= 0.0):
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

    def grid(self) -> np.ndarray:
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


def _branches(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda_x, lambda_yz_hi and lambda_yz_lo of a moment matrix, or of each
    in a stack."""
    block_mean = 0.5 * (c[..., 1, 1] + c[..., 2, 2])
    half_gap = np.hypot(0.5 * (c[..., 1, 1] - c[..., 2, 2]), c[..., 1, 2])
    return c[..., 0, 0], block_mean + half_gap, block_mean - half_gap


def _rows(rates, c, concurrence, negativity) -> list[SweepRow]:
    """Sweep rows of N points from their rates (r, gamma and g, each an array
    of N or one fixed value), moment matrices and entanglement measures."""
    lambda_max, axes = top_axes(c)
    columns = (*np.broadcast_arrays(*rates), lambda_max / _SPIN2.n_particles, *_branches(c),
               concurrence, negativity, *axes.T)
    return [SweepRow(*values) for values in zip(*(column.tolist() for column in columns))]


def _closed_form(rates) -> tuple:
    """C of the closed-form states at rates (r, gamma, g), and a callable
    giving the concurrence (twice the negativity) and the negativity of each."""
    c, negativity = closed_form_figures(*rates)
    return c, lambda: (2.0 * negativity, negativity)


def _of_states(states) -> tuple:
    """C of a list of N states, shape (N, 3, 3), and a callable giving the
    concurrence and the negativity of each."""
    return (np.array([c_matrix(rho, _SPIN2) for rho in states]),
            lambda: (np.array([concurrence(rho) for rho in states]),
                     np.array([negativity(rho) for rho in states])))


def evaluate_point(params: ModelParams, method: str = "closed_form") -> SweepRow:
    """All figures of merit for one parameter point.

    lambda_x is the moment-matrix entry C_xx; the yz block contributes
    the branches m +/- sqrt(((C_yy - C_zz)/2)^2 + C_yz^2) around its mean
    m.  Their crossing with lambda_x is what ``find_critical_point``
    bisects on.  The closed form takes C and the entanglement measures
    from ``closed_form_figures``; the other routes from the eigendecomposed
    state.  Any reset state is accepted, so this stays on ``steady_state``.
    """
    rates = np.array([[params.r], [params.gamma], [params.g]])
    if method == "closed_form":
        require_plus_reset(params)
        c, entanglement = _closed_form(rates)
    else:
        c, entanglement = _of_states([steady_state(params, method=method)])
    return _rows(rates, c, *entanglement())[0]


def _solve(spec: SweepSpec, values) -> tuple:
    """Rates (r, gamma, g), moment matrices C and a callable giving the
    concurrence and negativity of each point, at ``values`` of the varied
    rate: an increasing array of shape (N,), or one scalar for a bisection
    midpoint.  The closed form takes all from ``closed_form_figures``; the
    other routes build and validate one ``steady_state`` per point.  A
    solver error names its value; r = gamma = g = 0, the closed form's one
    failure, can only come first, as ``SweepSpec`` checked the end rates."""
    rates = spec.rates(values)
    points = np.atleast_1d(values)
    value = points[0]
    try:
        if spec.method == "closed_form":
            return rates, *_closed_form(rates)
        states = []
        for value in points:
            states.append(steady_state(spec.params_at(value), spec.method))
    except SOLVER_ERRORS as err:
        raise type(err)(f"{err} [at {spec.vary} = {value:.9g}]") from err
    return rates, *_of_states(states)


def _gap(c: np.ndarray):
    """lambda_x - lambda_yz_hi of a moment matrix, or of each in a stack."""
    lambda_x, lambda_yz_hi, _ = _branches(c)
    return lambda_x - lambda_yz_hi


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every grid point through ``_solve``, SWEEP_CHUNK points per
    stacked pass; solver failures name the offending point.  A row equals
    the ``evaluate_point`` row of its point, bit for bit."""
    grid = spec.grid()
    rows = []
    for start in range(0, len(grid), SWEEP_CHUNK):
        rates, c, entanglement = _solve(spec, grid[start:start + SWEEP_CHUNK])
        rows += _rows(rates, c, *entanglement())
    return rows


def find_critical_point(spec: SweepSpec) -> CriticalPoint:
    """Bisect lambda_x - lambda_yz_hi to the axis-flip crossing.

    The sweep interval [start, stop] must bracket a sign change; the
    bisection stops once the bracket is narrower than 1e-4.  Both end
    points go through ``_solve`` as one stack, then one scalar midpoint
    per halving; the gap comes from C alone, so no entanglement measure
    is computed.
    """
    lo, hi = spec.start, spec.stop
    gap_lo, gap_hi = _gap(_solve(spec, np.array([lo, hi], dtype=float))[1]).tolist()
    if gap_lo * gap_hi > 0.0:
        raise NoSignChangeError(
            f"lambda_x - lambda_yz_hi keeps its sign on {spec.vary} in [{lo}, {hi}] "
            f"({gap_lo:.3e} and {gap_hi:.3e})")
    while hi - lo > CRITICAL_BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        gap_mid = _gap(_solve(spec, mid)[1])
        if gap_lo * gap_mid <= 0.0:
            hi = mid
        else:
            lo, gap_lo = mid, gap_mid
    return CriticalPoint(vary=spec.vary, value=0.5 * (lo + hi), bracket_width=0.5 * (hi - lo))


def _nine_digits(x: float) -> str:
    return f"{x:.9g}"


def _to_csv(payload) -> str:
    if isinstance(payload, CriticalPoint):
        return ("vary,value,bracket_width\n"
                f"{payload.vary},{_nine_digits(payload.value)},"
                f"{_nine_digits(payload.bracket_width)}\n")
    lines = [CSV_HEADER]
    lines += [_ROW_FORMAT % _ROW_VALUES(row) for row in payload]
    return "\n".join(lines) + "\n"


def _to_json(payload) -> str:
    if isinstance(payload, CriticalPoint):
        obj = {"vary": payload.vary,
               "value": float(_nine_digits(payload.value)),
               "bracket_width": float(_nine_digits(payload.bracket_width))}
    else:
        obj = [{name: float(_nine_digits(getattr(row, name))) for name in CSV_FIELDS}
               for row in payload]
    return json.dumps(obj, indent=2) + "\n"


def emit(payload, fmt: str = "csv", path: str | None = None) -> None:
    """Serialize rows or a critical point to CSV or JSON.

    Values carry 9 significant digits; lines end with a bare newline.
    ``path`` of None writes to stdout.
    """
    if fmt == "csv":
        text = _to_csv(payload)
    elif fmt == "json":
        text = _to_json(payload)
    else:
        raise ValueError(f"unknown format {fmt!r}; choose csv or json")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write(text)


def parse_csv(text: str) -> list[SweepRow]:
    """Read sweep rows back from CSV produced by ``emit``."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != list(CSV_FIELDS):
        raise ValueError(f"unexpected CSV header {reader.fieldnames}")
    return [SweepRow(**{name: float(record[name]) for name in CSV_FIELDS})
            for record in reader]
