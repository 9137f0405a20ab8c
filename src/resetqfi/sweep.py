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
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from .dynamics import ModelParams, closed_form_figures, steady_state
from .entanglement import concurrence, negativity
from .errors import SOLVER_ERRORS
from .metrology import N_PARTICLES, c_matrix, top_axes

# The specifications, the bisection and emit live in the numpy-free point
# module; emit, find_critical_point and CRITICAL_BRACKET_WIDTH are imported
# here too because the benchmark's tracer and workloads read them from here.
from .point import (  # noqa: F401
    CRITICAL_BRACKET_WIDTH,
    CSV_FIELDS,
    CSV_HEADER,
    SweepRow,
    SweepSpec,
    _at,
    _json_cell,
    emit,
    find_critical_point,
)

# Grid points per stacked pass of run_sweep.  A 10^5-point closed-form
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


def _branches(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda_x, lambda_yz_hi and lambda_yz_lo of a moment matrix, or of each
    in a stack."""
    block_mean = 0.5 * (c[..., 1, 1] + c[..., 2, 2])
    half_gap = np.hypot(0.5 * (c[..., 1, 1] - c[..., 2, 2]), c[..., 1, 2])
    return c[..., 0, 0], block_mean + half_gap, block_mean - half_gap


def _rows(rates) -> np.ndarray:
    """(N, 12) array of N closed-form points in CSV_FIELDS order at rates
    (r, gamma and g, each an array of N or one fixed value): C and the
    negativity come from ``closed_form_figures``, and the concurrence is
    twice the negativity."""
    c, negativities = closed_form_figures(*rates)
    lambda_max, axes = top_axes(c)
    table = np.empty((len(c), len(CSV_FIELDS)))
    columns = table.T
    columns[0], columns[1], columns[2] = rates
    columns[3] = lambda_max / N_PARTICLES
    columns[4], columns[5], columns[6] = _branches(c)
    columns[7] = 2.0 * negativities
    columns[8] = negativities
    table[:, 9:] = axes
    return table


def evaluate_point(params: ModelParams, method: str = "closed_form") -> SweepRow:
    """All figures of merit for one parameter point.

    lambda_x is the moment-matrix entry C_xx; the yz block contributes
    the branches m +/- sqrt(((C_yy - C_zz)/2)^2 + C_yz^2) around its mean
    m.  Their crossing with lambda_x is what ``find_critical_point``
    bisects on.  The closed form takes C and the entanglement measures
    from ``closed_form_figures``.  The other routes take C, its branches
    and axis, the concurrence and the negativity from one validated
    state; a route sweep builds its rows here.
    """
    if method == "closed_form":
        rates = np.array([[params.r], [params.gamma], [params.g]])
        return SweepRow(*_rows(rates)[0].tolist())
    rho = steady_state(params, method)
    c = c_matrix(rho)
    lambda_max, axes = top_axes(c[None])
    return SweepRow(params.r, params.gamma, params.g, lambda_max.item() / N_PARTICLES,
                    *map(float, _branches(c)), concurrence(rho), negativity(rho),
                    *axes[0].tolist())


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


def _route_gap(params: ModelParams, method: str):
    """lambda_x - lambda_yz_hi at one point by a route other than the
    closed form, from C alone: no entanglement measure is computed."""
    lambda_x, lambda_yz_hi, _ = _branches(c_matrix(steady_state(params, method)))
    return lambda_x - lambda_yz_hi


def _row_array(rows) -> np.ndarray:
    """The (N, 12) array of a SweepTable, or of any iterable of SweepRow."""
    if isinstance(rows, SweepTable):
        return rows.array
    return np.array([_ROW_VALUES(row) for row in rows], dtype=float).reshape(-1, len(CSV_FIELDS))


class _Layout(NamedTuple):
    """The text of a table in one format, around its cells."""

    leads: tuple      # the text before each field of a row
    end: str          # after the last field
    between: str      # between rows
    opening: str      # before the first row
    closing: str      # after the last row
    empty: str        # the whole text of a table of no rows
    slot: str         # the slot of a value that varies down a piece
    cell: Callable | None  # what fills a slot from a value; None, the value


_LAYOUTS = {
    "csv": _Layout(("",) + (",",) * (len(CSV_FIELDS) - 1), "\n", "",
                   CSV_HEADER + "\n", "", CSV_HEADER + "\n", "%.9g", None),
    # the text of json.dumps(rows, indent=2), one object per row
    "json": _Layout(tuple(("\n  {" if k == 0 else ",") + f'\n    "{name}": '
                          for k, name in enumerate(CSV_FIELDS)),
                    "\n  }", ",", "[", "\n]\n", "[]\n", "%s", _json_cell),
}


def _row_pieces(array: np.ndarray, fmt: str):
    """The CSV or JSON text of an (N, 12) row array, in pieces of
    EMIT_CHUNK rows, so no text of the whole output is built.  A column
    that holds one value over a piece is formatted once for that piece;
    the other cells fill the slots of one row template repeated over the
    piece."""
    leads, end, between, opening, closing, empty, slot, cell = _LAYOUTS[fmt]
    if not len(array):
        yield empty
        return
    yield opening
    for start in range(0, len(array), EMIT_CHUNK):
        chunk = array[start:start + EMIT_CHUNK]
        # a column whose bits equal its first row's all the way down is
        # formatted once, into the row template; bits keep -0.0 ("-0")
        # apart from 0.0 ("0")
        bits = chunk.view(np.int64)
        fixed = (bits == bits[0]).all(axis=0)
        row = "".join([lead + (slot % (x if cell is None else cell(x)) if same else slot)
                       for lead, x, same in zip(leads, chunk[0].tolist(), fixed.tolist())])
        cells = chunk[:, ~fixed].ravel().tolist()
        text = (row + end + between) * len(chunk) % tuple(
            cells if cell is None else map(cell, cells))
        # the last row of the table ends without a separator
        yield text[:len(text) - len(between)] if start + EMIT_CHUNK >= len(array) else text
    yield closing
