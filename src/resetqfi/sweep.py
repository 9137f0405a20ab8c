"""Parameter sweeps of the steady-state figures of merit.

One-dimensional sweeps over the reset or dephasing rate collect, per
grid point, the mean QFI, the two eigenvalue branches of the moment
matrix, the optimal axis and both entanglement measures, as one row of
a float table.  A bisection on the branch gap locates the critical point
where the optimal axis flips.  Rows serialize deterministically to CSV
or JSON with 9 significant digits.
"""

import contextlib
import csv
import io
import json
import math
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    STEADY_STATE_METHODS,
    ModelParams,
    closed_form_figures,
    closed_form_gap,
    steady_state,
)
from .entanglement import concurrence, negativity
from .errors import SOLVER_ERRORS, NoSignChangeError
from .metrology import N_PARTICLES, c_matrix, top_axes

CSV_HEADER = ("r,gamma,g,mean_qfi,lambda_x,lambda_yz_hi,lambda_yz_lo,"
              "concurrence,negativity,opt_nx,opt_ny,opt_nz")
CSV_FIELDS = tuple(CSV_HEADER.split(","))
CRITICAL_BRACKET_WIDTH = 1e-4
# Grid points per stacked pass of run_sweep; find_critical_point evaluates
# one point at a time and has no passes.  A 10^5-point closed-form
# sweep peaks 10.6 MB above import in chunks of 512 (9.6 MB of it the
# table it returns) and 42 MB in one pass, in 0.22-0.25 s against
# 0.17-0.33 s (3 runs each, 2-core Xeon, numpy 2.4.6, BLAS on 1 thread).
SWEEP_CHUNK = 512
# Rows per formatted piece of emit.  A piece costs about 10 us beyond its
# formatting and a pass of run_sweep about 0.28 ms (2-core Xeon, numpy
# 2.4.6), so pieces are shorter than passes: over fewer rows a column
# more often holds one value (the optimal axis, zero entanglement below
# the threshold) and is formatted once.
EMIT_CHUNK = 256

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


class SweepTable(Sequence):
    """Rows of a sweep as one read-only float array of shape (N, 12),
    columns in CSV_FIELDS order.

    A sequence of ``SweepRow``: a row is built only when it is read and a
    slice is a table.  ``array`` is read through a read-only view, not
    copied.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        array = np.asarray(array, dtype=float)
        if array.ndim != 2 or array.shape[1] != len(CSV_FIELDS):
            raise ValueError(f"expected an (N, {len(CSV_FIELDS)}) array, got shape {array.shape}")
        self.array = array.view()
        self.array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepTable(self.array[index])
        return SweepRow(*self.array[operator.index(index)].tolist())

    def __iter__(self):
        return (SweepRow(*values.tolist()) for values in self.array)


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


def _table(rates, c, concurrence, negativity) -> np.ndarray:
    """(N, 12) array of N points in CSV_FIELDS order from their rates (r,
    gamma and g, each an array of N or one fixed value), moment matrices
    and entanglement measures."""
    lambda_max, axes = top_axes(c)
    return np.column_stack((*np.broadcast_arrays(*rates), lambda_max / N_PARTICLES,
                            *_branches(c), concurrence, negativity, axes))


def _closed_form(rates) -> tuple:
    """C of the closed-form states at rates (r, gamma, g), and a callable
    giving the concurrence (twice the negativity) and the negativity of each."""
    c, negativity = closed_form_figures(*rates)
    return c, lambda: (2.0 * negativity, negativity)


def _of_states(states) -> tuple:
    """C of a list of N states, shape (N, 3, 3), and a callable giving the
    concurrence and the negativity of each."""
    return (np.array([c_matrix(rho) for rho in states]),
            lambda: (np.array([concurrence(rho) for rho in states]),
                     np.array([negativity(rho) for rho in states])))


def evaluate_point(params: ModelParams, method: str = "closed_form") -> SweepRow:
    """All figures of merit for one parameter point.

    lambda_x is the moment-matrix entry C_xx; the yz block contributes
    the branches m +/- sqrt(((C_yy - C_zz)/2)^2 + C_yz^2) around its mean
    m.  Their crossing with lambda_x is what ``find_critical_point``
    bisects on.  The closed form takes C and the entanglement measures
    from ``closed_form_figures``; the other routes from the eigendecomposed
    state.
    """
    rates = np.array([[params.r], [params.gamma], [params.g]])
    if method == "closed_form":
        c, entanglement = _closed_form(rates)
    else:
        c, entanglement = _of_states([steady_state(params, method=method)])
    return SweepRow(*_table(rates, c, *entanglement())[0].tolist())


def _solve(spec: SweepSpec, values: np.ndarray) -> tuple:
    """Rates (r, gamma, g), moment matrices C and a callable giving the
    concurrence and negativity of each point, at ``values`` of the varied
    rate, an array of shape (N,) that holds ``spec.start`` first if it
    holds it at all.  The closed form takes all from
    ``closed_form_figures``; the other routes build and validate one
    ``steady_state`` per point.  A solver error names its value; r = gamma
    = g = 0, the closed form's one failure, can only occur at
    ``spec.start``, as ``SweepSpec`` checked the end rates."""
    rates = spec.rates(values)
    value = values[0]
    try:
        if spec.method == "closed_form":
            return rates, *_closed_form(rates)
        states = []
        for value in values:
            states.append(steady_state(spec.params_at(value), spec.method))
    except SOLVER_ERRORS as err:
        raise _at(spec, value, err) from err
    return rates, *_of_states(states)


def _at(spec: SweepSpec, value, err: Exception) -> Exception:
    """``err`` again, its message naming the value of the varied rate."""
    return type(err)(f"{err} [at {spec.vary} = {value:.9g}]")


def _gap(c: np.ndarray):
    """lambda_x - lambda_yz_hi of a moment matrix, or of each in a stack."""
    lambda_x, lambda_yz_hi, _ = _branches(c)
    return lambda_x - lambda_yz_hi


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate every grid point through ``_solve``, SWEEP_CHUNK points per
    stacked pass; solver failures name the offending point.  A row equals
    the ``evaluate_point`` row of its point, bit for bit."""
    grid = spec.grid()
    table = np.empty((len(grid), len(CSV_FIELDS)))
    for start in range(0, len(grid), SWEEP_CHUNK):
        rates, c, entanglement = _solve(spec, grid[start:start + SWEEP_CHUNK])
        table[start:start + SWEEP_CHUNK] = _table(rates, c, *entanglement())
    return SweepTable(table)


def _gap_of(spec: SweepSpec):
    """The function value -> lambda_x - lambda_yz_hi at that value of the
    varied rate.  The closed form takes it from ``closed_form_gap`` on
    Python floats; the other routes solve one point through ``_solve``.
    A solver error names its value."""
    if spec.method != "closed_form":
        return lambda value: _gap(_solve(spec, np.array([value]))[1])[0]

    def gap(value):
        try:
            return closed_form_gap(*spec.rates(value))
        except SOLVER_ERRORS as err:
            raise _at(spec, value, err) from err
    return gap


def find_critical_point(spec: SweepSpec) -> CriticalPoint:
    """Bisect lambda_x - lambda_yz_hi to the axis-flip crossing.

    The sweep interval [start, stop] must bracket a sign change; the
    bisection stops once the bracket is narrower than 1e-4, or once its
    ends are adjacent floats.  It evaluates the gap at the two ends, then
    at one midpoint per halving, in that order.  The closed form takes
    each value from ``closed_form_gap``, a few dozen float operations
    with no numpy call; the other routes solve each point through
    ``_solve``.  The gap comes from C alone, so no entanglement measure
    is computed.
    """
    gap = _gap_of(spec)
    lo, hi = spec.start, spec.stop
    gap_lo, gap_hi = gap(lo), gap(hi)
    if gap_lo * gap_hi > 0.0:
        raise NoSignChangeError(
            f"lambda_x - lambda_yz_hi keeps its sign on {spec.vary} in "
            f"[{lo}, {hi}] ({gap_lo:.3e} and {gap_hi:.3e})")
    while hi - lo > CRITICAL_BRACKET_WIDTH:
        # halves are added, not the ends, so brackets near the largest
        # float do not overflow; the bits are those of 0.5 * (lo + hi) elsewhere
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:  # the ends are adjacent floats
            break
        gap_mid = gap(mid)
        if gap_lo * gap_mid <= 0.0:
            hi = mid
        else:
            lo, gap_lo = mid, gap_mid
    return CriticalPoint(vary=spec.vary, value=0.5 * lo + 0.5 * hi, bracket_width=0.5 * (hi - lo))


def _nine_digits(x: float) -> str:
    return f"{x:.9g}"


def _critical_text(point: CriticalPoint, fmt: str) -> str:
    if fmt == "csv":
        return ("vary,value,bracket_width\n"
                f"{point.vary},{_nine_digits(point.value)},{_nine_digits(point.bracket_width)}\n")
    obj = {"vary": point.vary,
           "value": float(_nine_digits(point.value)),
           "bracket_width": float(_nine_digits(point.bracket_width))}
    return json.dumps(obj, indent=2) + "\n"


def _row_array(rows) -> np.ndarray:
    """The (N, 12) array of a SweepTable, or of any iterable of SweepRow."""
    if isinstance(rows, SweepTable):
        return rows.array
    return np.array([_ROW_VALUES(row) for row in rows], dtype=float).reshape(-1, len(CSV_FIELDS))


def _csv_pieces(array: np.ndarray):
    yield CSV_HEADER + "\n"
    for start in range(0, len(array), EMIT_CHUNK):
        chunk = array[start:start + EMIT_CHUNK]
        # a column whose bits equal its first row's all the way down is
        # formatted once, into the row format; bits keep -0.0 ("-0") apart
        # from 0.0 ("0")
        bits = chunk.view(np.int64)
        fixed = (bits == bits[0]).all(axis=0)
        row = ",".join(["%.9g" % x if same else "%.9g"
                        for x, same in zip(chunk[0].tolist(), fixed.tolist())])
        yield (row + "\n") * len(chunk) % tuple(chunk[:, ~fixed].ravel().tolist())


def _json_pieces(array: np.ndarray):
    opening = "["
    for start in range(0, len(array), EMIT_CHUNK):
        objs = [{name: float(_nine_digits(x)) for name, x in zip(CSV_FIELDS, values)}
                for values in array[start:start + EMIT_CHUNK].tolist()]
        # the chunk's list is "[\n  {...},\n  {...}\n]"; what lies between
        # "[" and "\n]" joins with "," into the text of one list
        yield opening + json.dumps(objs, indent=2)[1:-2]
        opening = ","
    yield "[]\n" if opening == "[" else "\n]\n"


_ROW_PIECES = {"csv": _csv_pieces, "json": _json_pieces}


def _text(payload, fmt: str):
    """The CSV or JSON text of rows or a critical point, in pieces; rows are
    read into their array first, then formatted EMIT_CHUNK at a time, so
    no text of the whole output is built.  A CSV column that holds one
    value over a piece is formatted once for that piece."""
    if isinstance(payload, CriticalPoint):
        return [_critical_text(payload, fmt)]
    return _ROW_PIECES[fmt](_row_array(payload))


def emit(payload, fmt: str = "csv", path: str | None = None) -> None:
    """Serialize rows or a critical point to CSV or JSON.

    Rows are a ``SweepTable`` or any iterable of ``SweepRow``; they are
    formatted and written EMIT_CHUNK at a time.  Values carry 9
    significant digits, the bytes of ``"%.9g" % value`` for each value;
    lines end with a bare newline.  ``path`` of None writes to stdout.
    """
    if fmt not in _ROW_PIECES:
        raise ValueError(f"unknown format {fmt!r}; choose csv or json")
    pieces = _text(payload, fmt)
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="ascii", newline="")) as handle:
        for piece in pieces:
            handle.write(piece)


def parse_csv(text: str) -> list[SweepRow]:
    """Read sweep rows back from CSV produced by ``emit``; blank lines are
    skipped, and a row without one number per field raises ValueError
    naming its line."""
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
