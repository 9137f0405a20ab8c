"""Parameter sweeps of the steady-state figures of merit.

One-dimensional sweeps over the reset or dephasing rate collect, per
grid point, the mean QFI, the two eigenvalue branches of the moment
matrix, the optimal axis and both entanglement measures, as one row of
a float table.  Rows serialize deterministically to CSV or JSON with 9
significant digits.  The bisection on the branch gap that locates the
critical point where the optimal axis flips lives in ``point``, which
calls back into this module for the solver routes.
"""

import operator
from collections.abc import Sequence

import numpy as np

from .dynamics import ModelParams, closed_form_figures, steady_state
from .entanglement import concurrence, negativity
from .errors import SOLVER_ERRORS
from .metrology import N_PARTICLES, block_axes, c_matrix, top_axes

# The specifications, the pass size, the bisection and emit live in the
# numpy-free point module; emit, find_critical_point and
# CRITICAL_BRACKET_WIDTH are imported here too because the benchmark's
# tracer and workloads read them from here.
from .point import (  # noqa: F401
    _ROW_VALUES,
    CRITICAL_BRACKET_WIDTH,
    CSV_FIELDS,
    SWEEP_CHUNK,
    SweepRow,
    SweepSpec,
    _at,
    emit,
    find_critical_point,
)


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


def _branches(c: np.ndarray) -> tuple[float, float, float]:
    """lambda_x, lambda_yz_hi and lambda_yz_lo of one 3x3 moment matrix,
    as Python floats."""
    (c_xx, _, _), (_, c_yy, c_yz), (_, _, c_zz) = c.tolist()
    block_mean = 0.5 * (c_yy + c_zz)
    half_gap = float(np.hypot(0.5 * (c_yy - c_zz), c_yz))
    return c_xx, block_mean + half_gap, block_mean - half_gap


def _rows(rates) -> np.ndarray:
    """(N, 12) array of N closed-form points in CSV_FIELDS order at rates
    (r, gamma and g, each an array of N or one fixed value), from the
    entries of C and the negativity of ``closed_form_figures``: the
    branches are C_yy +/- |C_yz|, the bits of ``_branches`` at C_yy = C_zz,
    and the concurrence is twice the negativity."""
    c_xx, c_yy, c_yz, negativities = closed_form_figures(*rates)
    lambda_max, axes = block_axes(c_xx, c_yy, c_yz)
    size = np.abs(c_yz)
    table = np.empty((len(c_xx), len(CSV_FIELDS)))
    columns = table.T
    columns[0], columns[1], columns[2] = rates
    columns[3] = lambda_max / N_PARTICLES
    columns[4] = c_xx
    columns[5] = c_yy + size
    columns[6] = c_yy - size
    columns[7] = 2.0 * negativities
    columns[8] = negativities
    table[:, 9:] = axes
    return table


def evaluate_point(params: ModelParams, method: str = "closed_form") -> SweepRow:
    """All figures of merit for one parameter point.

    lambda_x is the moment-matrix entry C_xx; the yz block contributes
    the branches m +/- sqrt(((C_yy - C_zz)/2)^2 + C_yz^2) around its mean
    m.  Their crossing with lambda_x is what ``find_critical_point``
    bisects on.  The closed form takes the row from ``_rows``.  The other
    routes take C, its branches and axis, the concurrence and the
    negativity from one validated state; a route sweep builds its rows
    here.
    """
    if method == "closed_form":
        rates = np.array([[params.r], [params.gamma], [params.g]])
        return SweepRow(*_rows(rates)[0].tolist())
    rho = steady_state(params, method)
    c = c_matrix(rho)
    lambda_max, axis = top_axes(c)
    return SweepRow(params.r, params.gamma, params.g, lambda_max / N_PARTICLES,
                    *_branches(c), concurrence(rho), negativity(rho), *axis)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate every grid point in passes of SWEEP_CHUNK points, stacked
    for the closed form and through ``evaluate_point`` point by point for
    a route, so a row equals the ``evaluate_point`` row of its point, bit
    for bit.  A solver error names the point being built: the first of
    its pass for the closed form, whose one failure (r = gamma = g = 0)
    can only occur at spec.start, as SweepSpec checked the end rates."""
    grid = spec.grid()
    table = np.empty((len(grid), len(CSV_FIELDS)))
    for start in range(0, len(grid), SWEEP_CHUNK):
        values = grid[start:start + SWEEP_CHUNK]
        value = values[0]
        try:
            if spec.method == "closed_form":
                table[start:start + SWEEP_CHUNK] = _rows(spec.rates(values))
            else:
                for row, value in enumerate(values.tolist(), start):
                    table[row] = _ROW_VALUES(evaluate_point(spec.params_at(value), spec.method))
        except SOLVER_ERRORS as err:
            raise _at(spec, value, err) from err
    return SweepTable(table)


def _route_gap(params: ModelParams, method: str) -> float:
    """lambda_x - lambda_yz_hi at one point by a route other than the
    closed form, from C alone: no entanglement measure is computed."""
    lambda_x, lambda_yz_hi, _ = _branches(c_matrix(steady_state(params, method)))
    return lambda_x - lambda_yz_hi


def _fixed_columns(chunk: np.ndarray) -> tuple:
    """The split of ``point._row_pieces`` for a chunk of a SweepTable: a
    column whose bits equal its first row's all the way down is formatted
    once; bits keep -0.0 ("-0") apart from 0.0 ("0")."""
    bits = chunk.view(np.int64)
    fixed = (bits == bits[0]).all(axis=0)
    return chunk[0].tolist(), fixed.tolist(), chunk[:, ~fixed].ravel().tolist()
