import gc
import json
import math
import tracemalloc
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from resetqfi import (
    CSV_FIELDS,
    CSV_HEADER,
    CriticalPoint,
    DegenerateLimitError,
    DegenerateSteadyStateError,
    DensityMatrix,
    ModelParams,
    NoConvergenceError,
    NoSignChangeError,
    SweepRow,
    SweepSpec,
    SweepTable,
    dynamics,
    emit,
    evaluate_point,
    find_critical_point,
    parse_csv,
    point,
    run_sweep,
    sweep,
)
from resetqfi.cli import EXIT_OK, EXIT_SOLVER, main
from resetqfi.dynamics import steady_state
from resetqfi.entanglement import concurrence, negativity
from resetqfi.metrology import N_PARTICLES, c_matrix, top_axes
from resetqfi.point import closed_form_gap
from resetqfi.sweep import CRITICAL_BRACKET_WIDTH, EMIT_CHUNK, SWEEP_CHUNK

DATA = Path(__file__).parent / "data"

DEGENERATE_KERNEL = ("Liouvillian kernel is not one-dimensional (L with its first row replaced "
                     "by the trace is singular); the steady state is not unique")

RESET_SWEEP = SweepSpec(vary="r", start=0.0, stop=20.0, steps=201,
                      fixed_gamma=0.5, g_ratio=5.0)


@pytest.fixture(scope="module")
def reset_sweep_rows():
    return run_sweep(RESET_SWEEP)


class TestSweepSpec:
    def test_grid_endpoints(self):
        grid = RESET_SWEEP.grid()
        assert grid[0] == 0.0
        assert grid[-1] == 20.0
        assert len(grid) == 201

    def test_params_at_uses_ratio(self):
        p = RESET_SWEEP.params_at(4.0)
        assert (p.r, p.gamma, p.g) == (4.0, 0.5, 2.5)

    def test_fixed_g_beats_ratio(self):
        spec = SweepSpec(vary="gamma", start=0.1, stop=1.0, steps=5, fixed_r=1.0, g=0.7)
        assert spec.params_at(0.4).g == 0.7

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            SweepSpec(vary="r", start=2.0, stop=1.0, steps=5, fixed_gamma=0.5, g=1.0)

    def test_rejects_single_step(self):
        with pytest.raises(ValueError):
            SweepSpec(vary="r", start=0.0, stop=1.0, steps=1, fixed_gamma=0.5, g=1.0)

    def test_rejects_double_coupling(self):
        with pytest.raises(ValueError):
            SweepSpec(vary="r", start=0.0, stop=1.0, steps=5,
                      fixed_gamma=0.5, g=1.0, g_ratio=2.0)
        with pytest.raises(ValueError):
            SweepSpec(vary="r", start=0.0, stop=1.0, steps=5, fixed_gamma=0.5)

    def test_rejects_missing_or_extra_fixed_rate(self):
        with pytest.raises(ValueError):
            SweepSpec(vary="r", start=0.0, stop=1.0, steps=5, g=1.0)
        with pytest.raises(ValueError):
            SweepSpec(vary="gamma", start=0.1, stop=1.0, steps=5,
                      fixed_r=1.0, fixed_gamma=0.5, g=1.0)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            SweepSpec(vary="g", start=0.0, stop=1.0, steps=5, fixed_gamma=0.5, g=1.0)

    @pytest.mark.parametrize("name, value", [
        ("start", -np.inf), ("start", np.nan), ("stop", np.inf), ("stop", np.nan),
    ])
    def test_rejects_non_finite_interval(self, name, value):
        fields = dict(vary="r", start=0.0, stop=1.0, steps=5, fixed_gamma=0.5, g=1.0)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SweepSpec(**{**fields, name: value})

    @pytest.mark.parametrize("name", ["fixed_r", "fixed_gamma", "g", "g_ratio"])
    @pytest.mark.parametrize("value", [-5.0, -np.inf, np.inf, np.nan])
    def test_rejects_bad_rate(self, name, value):
        # the one fixed rate and the one coupling the field needs; the field
        # under test takes the place of its counterpart
        fields = {"fixed_r": dict(vary="gamma", fixed_r=value, g=1.0),
                  "fixed_gamma": dict(vary="r", fixed_gamma=value, g=1.0),
                  "g": dict(vary="r", fixed_gamma=0.5, g=value),
                  "g_ratio": dict(vary="r", fixed_gamma=0.5, g_ratio=value)}[name]
        with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative"):
            SweepSpec(start=0.0, stop=1.0, steps=5, **fields)

    def test_negative_g_ratio_is_named_before_any_rate(self):
        with pytest.raises(ValueError, match="g_ratio .* got -5"):
            SweepSpec(vary="gamma", start=0, stop=3, steps=2, fixed_r=1, g_ratio=-5)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="^method must be one of .* got 'closed-form'"):
            SweepSpec(vary="r", start=0.0, stop=1.0, steps=5, fixed_gamma=0.5, g=1.0,
                      method="closed-form")

    @pytest.mark.parametrize("steps", [2.5, 5.0, "5", None])
    def test_rejects_non_integer_steps(self, steps):
        with pytest.raises(ValueError, match="^steps must be an integer"):
            SweepSpec(vary="r", start=0.0, stop=1.0, steps=steps, fixed_gamma=0.5, g=1.0)

    def test_accepts_numpy_integer_steps(self):
        spec = SweepSpec(vary="r", start=0.0, stop=1.0, steps=np.int64(5), fixed_gamma=0.5, g=1.0)
        assert len(run_sweep(spec)) == 5

    def test_rejects_overflowing_end_rate_when_built(self):
        # g = 10 * 1e308 at the stop is no valid rate, so no point of the grid is solved
        with pytest.raises(ValueError, match="^g must be finite and non-negative, got inf$"):
            SweepSpec(vary="gamma", start=0.0, stop=1e308, steps=2, fixed_r=1.0, g_ratio=10.0)

    @pytest.mark.parametrize("fields", [
        dict(vary="gamma", start=0.01, stop=3, steps=3, fixed_r=1, g_ratio=5),
        dict(vary="r", start=1, stop=8, steps=3, fixed_gamma=1, g=2),
    ], ids=["fixed_r", "fixed_gamma_and_g"])
    def test_integer_rates_reach_rows_as_floats(self, fields):
        rows = run_sweep(SweepSpec(**fields))
        for row in rows:
            for name in CSV_FIELDS:
                float.hex(getattr(row, name))  # TypeError for an int

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError, match=r"^rates are non-negative, got start -1.0$"):
            SweepSpec(vary="r", start=-1.0, stop=1.0, steps=5, fixed_gamma=0.5, g=1.0)

    def test_accepts_zero_rates(self):
        spec = SweepSpec(vary="gamma", start=0.0, stop=3.0, steps=2, fixed_r=0.0, g_ratio=0.0)
        p = spec.params_at(3.0)
        assert (p.r, p.gamma, p.g) == (0.0, 3.0, 0.0)


@pytest.fixture
def route_calls(monkeypatch):
    """(r, gamma, g) of every steady state sweep solves; only the
    superoperator routes build one."""
    calls = []

    def counting(params, method):
        calls.append((params.r, params.gamma, params.g))
        return steady_state(params, method)

    monkeypatch.setattr(sweep, "steady_state", counting)
    return calls


class TestRunSweep:
    def test_covers_both_endpoints(self, reset_sweep_rows):
        assert len(reset_sweep_rows) == 201
        assert reset_sweep_rows[0].r == 0.0
        assert reset_sweep_rows[-1].r == 20.0

    def test_no_reset_point_is_insensitive(self, reset_sweep_rows):
        assert abs(reset_sweep_rows[0].mean_qfi) <= 1e-10
        assert reset_sweep_rows[0].concurrence == 0.0

    def test_peak_region_reference_value(self, reset_sweep_rows):
        row = min(reset_sweep_rows, key=lambda row: abs(row.r - 14.0))
        assert abs(row.mean_qfi - 1.00226) <= 5e-3
        assert abs(row.concurrence - 0.0992486) <= 5e-4
        assert abs(row.negativity - 0.0496243) <= 5e-4

    def test_axis_flip_across_crossing(self, reset_sweep_rows):
        before = min(reset_sweep_rows, key=lambda row: abs(row.r - 1.8))
        after = min(reset_sweep_rows, key=lambda row: abs(row.r - 2.8))
        assert abs(before.opt_nx) >= 1.0 - 1e-9
        assert abs(after.opt_nx) <= 1e-9
        assert abs(after.opt_ny - 1.0 / np.sqrt(2.0)) <= 1e-9

    def test_branches_sandwich_the_maximum(self, reset_sweep_rows):
        for row in reset_sweep_rows:
            top = max(row.lambda_x, row.lambda_yz_hi)
            assert row.lambda_yz_lo <= row.lambda_yz_hi + 1e-12
            assert abs(2.0 * row.mean_qfi - top) <= 1e-9

    def test_dephasing_sweep_start_reference_value(self):
        spec = SweepSpec(vary="gamma", start=0.01, stop=3.0, steps=300,
                         fixed_r=1.0, g_ratio=5.0)
        rows = run_sweep(spec)
        assert abs(rows[0].gamma - 0.01) <= 1e-12
        assert abs(rows[0].mean_qfi - 1.02124) <= 5e-3
        assert abs(rows[0].negativity - 0.0183813) <= 5e-4

    def test_solver_failure_names_the_point(self, route_calls):
        spec = SweepSpec(vary="r", start=0.0, stop=1.0, steps=3,
                         fixed_gamma=0.5, g=2.5, method="nullspace")
        with pytest.raises(DegenerateSteadyStateError) as raised:
            run_sweep(spec)
        assert str(raised.value) == f"{DEGENERATE_KERNEL} [at r = 0]"
        assert route_calls == [(0.0, 0.5, 2.5)]

    def test_integrate_failure_names_the_point(self, monkeypatch, route_calls):
        # g = 2000 gamma: integrate takes 10 rounds at gamma = 5e-4 and 14
        # at gamma = 0.5, so a cap of 13 fails on the second point only
        monkeypatch.setattr(dynamics, "RK4_ROUND_CAP", 13)
        spec = SweepSpec(vary="gamma", start=5e-4, stop=0.5, steps=2, fixed_r=0.01,
                         g_ratio=2e3, method="integrate")
        with pytest.raises(NoConvergenceError) as raised:
            run_sweep(spec)
        assert str(raised.value) == ("residual still above 3e-13 ||L||_1 = 6.000e-10 after "
                                     "13 rounds (8191000 RK4 steps) [at gamma = 0.5]")
        # every point up to the failing one is solved once
        assert route_calls == [(0.01, 5e-4, 1.0), (0.01, 0.5, 1e3)]

    def test_row_failure_names_the_point(self, monkeypatch):
        # the state is built and validated; the negativity's eigensolve fails
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        spec = SweepSpec(vary="r", start=1.0, stop=3.0, steps=5, fixed_gamma=0.5, g_ratio=5.0,
                         method="nullspace")
        with pytest.raises(NoConvergenceError) as raised:
            run_sweep(spec)
        assert str(raised.value) == "Hermitian eigensolver failed: did not converge [at r = 1]"

    def test_closed_form_failure_names_the_point(self):
        spec = SweepSpec(vary="r", start=0.0, stop=1.0, steps=3, fixed_gamma=0.0, g=0.0)
        with pytest.raises(DegenerateLimitError, match=r"at r = 0"):
            run_sweep(spec)

    def test_route_states_built_and_validated_once(self, monkeypatch, route_calls):
        spec = SweepSpec(vary="gamma", start=0.0, stop=3.0, steps=SWEEP_CHUNK + 3,
                         fixed_r=1.0, g_ratio=5.0, method="nullspace")
        validated = []
        validate = DensityMatrix.__init__

        def counting(rho, mat):
            validated.append(len(route_calls))
            validate(rho, mat)

        monkeypatch.setattr(DensityMatrix, "__init__", counting)
        run_sweep(spec)
        # one solve per grid point, each validated once before the next solve
        assert route_calls == [spec.rates(value) for value in spec.grid()]
        assert validated == list(range(1, spec.steps + 1))


def _bits(row):
    return tuple(float.hex(getattr(row, name)) for name in CSV_FIELDS)


class TestStackedSweep:
    """run_sweep evaluates its grid in stacked chunks; evaluate_point is one
    state through the same stages."""

    @pytest.mark.parametrize("spec", [
        SweepSpec(vary="r", start=0.0, stop=20.0, steps=SWEEP_CHUNK + 3,
                  fixed_gamma=0.5, g_ratio=5.0),
        # nullspace has no unique kernel at r = 0, so its grid starts at gamma = g = 0
        SweepSpec(vary="gamma", start=0.0, stop=3.0, steps=SWEEP_CHUNK + 3,
                  fixed_r=1.0, g_ratio=5.0, method="nullspace"),
        SweepSpec(vary="gamma", start=0.0, stop=3.0, steps=7, fixed_r=1.0, g_ratio=5.0,
                  method="integrate"),
    ], ids=["closed_form", "nullspace", "integrate"])
    def test_rows_equal_single_points_bit_for_bit(self, spec):
        rows = run_sweep(spec)
        assert len(rows) == spec.steps
        for value, row in zip(spec.grid(), rows):
            assert _bits(row) == _bits(evaluate_point(spec.params_at(value), spec.method))

    @pytest.mark.parametrize("method", ["nullspace", "integrate"])
    def test_route_row_is_its_stages_on_one_state(self, method):
        # a route row is C, its top eigenvalue and axis, its branches and
        # the two entanglement measures of one state, with nothing between
        # the stages that could move a bit
        rng = np.random.default_rng(26)
        lows, highs = np.log([0.1, 1e-3, 1e-3]), np.log([10.0, 10.0, 10.0])
        for rates in np.exp(rng.uniform(lows, highs, size=(64, 3))).tolist():
            params = ModelParams(*rates)
            rho = steady_state(params, method)
            c = c_matrix(rho)
            top, axes = top_axes(c[None])
            want = (*rates, top[0] / N_PARTICLES, *sweep._branches(c), concurrence(rho),
                    negativity(rho), *axes[0])
            assert _bits(evaluate_point(params, method)) == tuple(
                float.hex(float(x)) for x in want), rates

    def test_tie_break_and_sign_through_the_stack(self):
        rows = run_sweep(SweepSpec(vary="r", start=0.0, stop=14.0, steps=3,
                                   fixed_gamma=0.5, g_ratio=5.0))
        # r = 0: C = 0, every axis ties and the tie goes to x
        no_reset = rows[0]
        assert (no_reset.mean_qfi, no_reset.lambda_x, no_reset.lambda_yz_hi,
                no_reset.lambda_yz_lo) == (0.0, 0.0, 0.0, 0.0)
        assert (no_reset.opt_nx, no_reset.opt_ny, no_reset.opt_nz) == (1.0, 0.0, 0.0)
        strong = rows[2]
        assert strong.r == 14.0
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert abs(strong.opt_nx) <= 1e-9
        assert abs(strong.opt_ny - inv_sqrt2) <= 1e-9
        assert abs(strong.opt_nz - inv_sqrt2) <= 1e-9


class TestTopAxesPath:
    """Closed-form C is block-diagonal, so its top axis takes no eigensolve;
    C of a route state is not exactly, so it keeps eigh."""

    def test_closed_form_sweep_and_point_run_no_eigh(self, eigh_calls):
        run_sweep(SweepSpec(vary="r", start=0.0, stop=20.0, steps=SWEEP_CHUNK + 3,
                            fixed_gamma=0.5, g_ratio=5.0))
        run_sweep(SweepSpec(vary="gamma", start=0.0, stop=3.0, steps=5, fixed_r=1.0, g=0.0))
        evaluate_point(ModelParams(r=14.0, gamma=0.5, g=2.5))
        assert eigh_calls == []

    def test_nullspace_point_keeps_eigh(self, eigh_calls):
        evaluate_point(ModelParams(r=14.0, gamma=0.5, g=2.5), "nullspace")
        assert (1, 3, 3) in eigh_calls


class TestGoldenOutput:
    """The README sweeps print as they did before sweeps were stacked.

    Fields at numerical-noise level (both values below 1e-10 in magnitude)
    may print different digits; they must agree within 1e-10.
    """

    @pytest.mark.parametrize("golden, argv", [
        ("sweep_vary_r.csv", ["--vary", "r", "--from", "0", "--to", "20", "--steps", "201",
                              "--gamma", "0.5", "--g-ratio", "5"]),
        ("sweep_vary_gamma.csv", ["--vary", "gamma", "--from", "0.01", "--to", "3",
                                  "--steps", "300", "--r", "1", "--g-ratio", "5"]),
    ])
    def test_cli_sweep_matches_golden(self, capsys, golden, argv):
        assert main(["sweep", *argv]) == EXIT_OK
        got = capsys.readouterr().out.split("\n")
        want = (DATA / golden).read_text().split("\n")
        assert len(got) == len(want)
        assert got[0] == want[0] == CSV_HEADER
        for line, (got_line, want_line) in enumerate(zip(got, want)):
            for name, a, b in zip(CSV_FIELDS, got_line.split(","), want_line.split(",")):
                if a == b:
                    continue
                x, y = float(a), float(b)
                where = f"line {line} {name}: {a} != {b}"
                assert max(abs(x), abs(y)) < 1e-10, where
                assert abs(x - y) <= 1e-10, where


CHUNK_SWEEP = SweepSpec(vary="gamma", start=0.01, stop=3.0, steps=SWEEP_CHUNK + 3,
                        fixed_r=1.0, g_ratio=5.0)


@pytest.fixture(scope="module")
def chunk_sweep_table():
    """A closed-form sweep one chunk and three points long."""
    return run_sweep(CHUNK_SWEEP)


class TestSweepTable:
    """run_sweep returns a read-only table that reads as a sequence of
    SweepRow."""

    def test_length_and_indexing(self, chunk_sweep_table):
        table = chunk_sweep_table
        assert isinstance(table, SweepTable)
        assert len(table) == len(table.array) == CHUNK_SWEEP.steps
        assert table.array.shape == (CHUNK_SWEEP.steps, len(CSV_FIELDS))
        grid = CHUNK_SWEEP.grid()
        for index in (0, SWEEP_CHUNK, -1, -3):
            row = table[index]
            assert isinstance(row, SweepRow)
            assert row.gamma == grid[index]
            assert _bits(row) == tuple(float.hex(x) for x in table.array[index].tolist())
        assert table[np.int64(2)] == table[2]
        with pytest.raises(IndexError):
            table[CHUNK_SWEEP.steps]
        with pytest.raises(TypeError):
            table[1.0]

    def test_slice_is_a_table(self, chunk_sweep_table):
        tail = chunk_sweep_table[SWEEP_CHUNK - 1:]
        assert isinstance(tail, SweepTable)
        assert len(tail) == 4
        assert list(tail) == list(chunk_sweep_table)[SWEEP_CHUNK - 1:]
        assert list(chunk_sweep_table[::-100]) == list(chunk_sweep_table)[::-100]
        assert len(chunk_sweep_table[5:5]) == 0

    def test_iteration_matches_indexing(self, chunk_sweep_table):
        rows = list(chunk_sweep_table)
        assert len(rows) == CHUNK_SWEEP.steps
        assert all(isinstance(row, SweepRow) for row in rows)
        assert rows[0] == chunk_sweep_table[0] and rows[-1] == chunk_sweep_table[-1]
        assert chunk_sweep_table[7] in chunk_sweep_table

    def test_array_is_read_only(self, chunk_sweep_table):
        with pytest.raises(ValueError):
            chunk_sweep_table.array[0, 0] = 1.0
        with pytest.raises(ValueError):
            chunk_sweep_table[:3].array[0] = 0.0
        source = np.zeros((2, len(CSV_FIELDS)))
        table = SweepTable(source)
        with pytest.raises(ValueError):
            table.array[1, 1] = 1.0
        source[1, 1] = 2.0  # the caller's array stays writable
        assert table[1].gamma == 2.0

    @pytest.mark.parametrize("shape", [(3,), (2, 11), (1, 2, 12)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="expected an \\(N, 12\\) array"):
            SweepTable(np.zeros(shape))

    def test_row_dict_is_the_row_in_csv_order(self, chunk_sweep_table):
        got = chunk_sweep_table[1].to_dict()
        assert tuple(got) == CSV_FIELDS
        assert list(got.values()) == chunk_sweep_table.array[1].tolist()

    def test_rows_equal_evaluate_point_bit_for_bit(self, chunk_sweep_table):
        grid = CHUNK_SWEEP.grid()
        for index in (0, 1, SWEEP_CHUNK - 1, SWEEP_CHUNK, -1):
            want = evaluate_point(CHUNK_SWEEP.params_at(grid[index]))
            assert _bits(chunk_sweep_table[index]) == _bits(want)

    def test_result_holds_at_most_128_bytes_per_point(self):
        # the table is 12 float64 per point, 96 B; a SweepRow of 12 Python
        # floats per point held about 470 B
        spec = SweepSpec(vary="r", start=0.0, stop=20.0, steps=20_000,
                         fixed_gamma=0.5, g_ratio=5.0)
        run_sweep(spec)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = run_sweep(spec)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table) == spec.steps
        assert held <= 128 * spec.steps


class TestCriticalPoint:
    def test_reset_rate_crossing(self):
        spec = SweepSpec(vary="r", start=0.5, stop=8.0, steps=2,
                         fixed_gamma=0.5, g_ratio=5.0)
        point = find_critical_point(spec)
        assert point.vary == "r"
        assert abs(point.value - 2.3) <= 0.1
        assert point.bracket_width <= 5e-5

    def test_dephasing_crossing(self):
        spec = SweepSpec(vary="gamma", start=0.01, stop=3.0, steps=2,
                         fixed_r=1.0, g_ratio=5.0)
        point = find_critical_point(spec)
        assert abs(point.value - 0.214) <= 0.01

    def test_requires_a_sign_change(self):
        spec = SweepSpec(vary="r", start=3.0, stop=8.0, steps=2,
                         fixed_gamma=0.5, g_ratio=5.0)
        with pytest.raises(NoSignChangeError):
            find_critical_point(spec)

    @pytest.mark.parametrize("spec, round_cap, error", [
        (SweepSpec(vary="r", start=0.0, stop=8.0, steps=2, fixed_gamma=0.5, g_ratio=5.0,
                   method="nullspace"), dynamics.RK4_ROUND_CAP,
         DegenerateSteadyStateError(f"{DEGENERATE_KERNEL} [at r = 0]")),
        (SweepSpec(vary="r", start=0.0, stop=1.0, steps=2, fixed_gamma=0.0, g=0.0),
         dynamics.RK4_ROUND_CAP,
         DegenerateLimitError("r = gamma = g = 0 singles out no steady state [at r = 0]")),
        # integrate takes 10 rounds at the low end and 14 at the high end,
        # so a cap of 13 fails on the second end the search solves
        (SweepSpec(vary="gamma", start=5e-4, stop=0.5, steps=2, fixed_r=0.01, g_ratio=2e3,
                   method="integrate"), 13,
         NoConvergenceError("residual still above 3e-13 ||L||_1 = 6.000e-10 after 13 rounds "
                            "(8191000 RK4 steps) [at gamma = 0.5]")),
    ], ids=["nullspace", "closed_form", "integrate"])
    def test_solver_failure_names_the_point(self, monkeypatch, spec, round_cap, error):
        monkeypatch.setattr(dynamics, "RK4_ROUND_CAP", round_cap)
        with pytest.raises(type(error)) as raised:
            find_critical_point(spec)
        assert str(raised.value) == str(error)


def _serial_bisection(spec):
    """Reference: the bisection evaluating one evaluate_point row per step.
    Returns the critical point and the number of halvings.

    A gap of exactly 0 at an end has no sign, and the other end gives the
    sign below the crossing; a midpoint gap of 0 counts as the sign above
    it.  The search halves past the width until it has met a gap of the
    sign below and one not of that sign, or the ends are adjacent floats,
    and reports a crossing only if it has met both."""

    def gap(value):
        row = evaluate_point(spec.params_at(value), spec.method)
        return row.lambda_x - row.lambda_yz_hi

    lo, hi = spec.start, spec.stop
    gap_lo, gap_hi = gap(lo), gap(hi)
    no_crossing = NoSignChangeError(
        f"lambda_x - lambda_yz_hi keeps its sign on {spec.vary} in [{lo}, {hi}] "
        f"({gap_lo:.3e} and {gap_hi:.3e})")
    below = np.sign(gap_lo) or -np.sign(gap_hi)
    if below == 0.0 or np.sign(gap_hi) == below:
        raise no_crossing
    seen = {np.sign(gap_lo), np.sign(gap_hi)} - {0.0}
    halvings = 0
    while hi - lo > CRITICAL_BRACKET_WIDTH or seen != {below, -below}:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        sign = np.sign(gap(mid))
        seen.add(sign if sign == below else -below)
        if sign == below:
            lo = mid
        else:
            hi = mid
        halvings += 1
    if seen != {below, -below}:
        raise no_crossing
    return CriticalPoint(vary=spec.vary, value=0.5 * (lo + hi),
                         bracket_width=0.5 * (hi - lo)), halvings


def _outcome(search, spec):
    try:
        point = search(spec)
    except NoSignChangeError as err:
        return ("NoSignChangeError", str(err))
    return (point.vary, float.hex(point.value), float.hex(point.bracket_width))


def _reference_outcome(spec):
    return _outcome(lambda spec: _serial_bisection(spec)[0], spec)


# halving counts the seeded brackets must include: none, one, a few (3 to
# 9), and 13 to 17, around the 15 that every perfbench bracket (1.8 to
# 3.2 wide) takes
HALVINGS = (0, 1, 3, 4, 7, 8, 9, 13, 15, 16, 17)


def _brackets_around(spec, rng, halvings):
    """Brackets of the varied rate around the crossing inside ``spec``, one
    per halving count.  A bracket has 30 to 70 % of its width below the
    crossing, or half the crossing where that is less, so it stays above
    zero."""
    crossing = _serial_bisection(spec)[0]
    fixed = {name: getattr(spec, name)
             for name in ("fixed_r", "fixed_gamma", "g", "g_ratio", "method")}
    specs = []
    for n in halvings:
        if n == 0:  # the reference's own final bracket
            lo = crossing.value - crossing.bracket_width
            hi = crossing.value + crossing.bracket_width
        else:
            width = CRITICAL_BRACKET_WIDTH * 2**n * rng.uniform(0.55, 0.95)
            lo = max(crossing.value - rng.uniform(0.3, 0.7) * width, 0.5 * crossing.value)
            hi = lo + width
        specs.append(SweepSpec(vary=spec.vary, start=lo, stop=hi, steps=2, **fixed))
    return specs


@pytest.fixture(scope="module")
def seeded_brackets():
    """96 closed-form brackets, half in r and half in gamma, with crossings
    in [6, 20], and 6 nullspace brackets."""
    rng = np.random.default_rng(2016)
    specs = []
    for k in range(8):
        g_ratio = rng.uniform(2.0, 10.0)
        estimate = rng.uniform(6.0, 20.0) if k % 2 == 0 else rng.uniform(6.0, 12.0)
        if k % 2 == 0:
            wide = SweepSpec(vary="r", start=0.5 * estimate, stop=2.0 * estimate, steps=2,
                             fixed_gamma=estimate / (0.92 * g_ratio), g_ratio=g_ratio)
        else:
            wide = SweepSpec(vary="gamma", start=0.5 * estimate, stop=2.0 * estimate,
                             steps=2, fixed_r=0.93 * g_ratio * estimate, g_ratio=g_ratio)
        extra = int(rng.integers(2, 17))
        specs += _brackets_around(wide, rng, (*HALVINGS, extra))
    for wide in (SweepSpec(vary="r", start=1.5, stop=3.5, steps=2, fixed_gamma=0.5,
                           g_ratio=5.0, method="nullspace"),
                 SweepSpec(vary="gamma", start=0.1, stop=0.4, steps=2, fixed_r=1.0,
                           g_ratio=5.0, method="nullspace")):
        specs += _brackets_around(wide, rng, (0, 3, 5))
    return specs


class TestCriticalBisection:
    """find_critical_point evaluates the two ends, then one midpoint per
    halving, from a scalar gap (the closed form) or one solve per point
    (the other routes), with the result of a point-by-point bisection on
    evaluate_point rows, bit for bit."""

    def test_matches_serial_bisection_bit_for_bit(self, seeded_brackets):
        halvings = set()
        sign_changes = 0
        for spec in seeded_brackets:
            want = _reference_outcome(spec)
            assert _outcome(find_critical_point, spec) == want, spec
            if want[0] != "NoSignChangeError":
                sign_changes += 1
                halvings.add(_serial_bisection(spec)[1])
        assert len(seeded_brackets) == 102
        assert {spec.method for spec in seeded_brackets} == {"closed_form", "nullspace"}
        assert set(HALVINGS) <= halvings
        assert sign_changes >= 96

    @pytest.mark.parametrize("spec", [
        SweepSpec(vary="r", start=0.5, stop=8.0, steps=2, fixed_gamma=0.5, g_ratio=5.0),
        SweepSpec(vary="gamma", start=0.01, stop=3.0, steps=2, fixed_r=1.0, g_ratio=5.0),
        SweepSpec(vary="r", start=0.0, stop=8.0, steps=2, fixed_gamma=0.5, g_ratio=5.0),
        SweepSpec(vary="r", start=1, stop=8, steps=2, fixed_gamma=1, g=2),
        SweepSpec(vary="r", start=0.0, stop=8e-5, steps=2, fixed_gamma=5e-6, g_ratio=5.0),
    ], ids=["acceptance_r", "acceptance_gamma", "from_r_0", "integer_bounds",
            "from_r_0_narrow"])
    def test_acceptance_brackets_match_serial_bisection(self, spec):
        assert _outcome(find_critical_point, spec) == _reference_outcome(spec)

    def test_no_sign_change_message(self):
        spec = SweepSpec(vary="r", start=3.0, stop=8.0, steps=2,
                         fixed_gamma=0.5, g_ratio=5.0)
        message = ("lambda_x - lambda_yz_hi keeps its sign on r in [3.0, 8.0] "
                   "(-2.326e-01 and -1.532e+00)")
        assert _reference_outcome(spec) == ("NoSignChangeError", message)
        assert _outcome(find_critical_point, spec) == ("NoSignChangeError", message)

    def test_tiny_gaps_of_one_sign_are_no_crossing(self):
        # the closed-form gaps at the ends are 2.3e-201 and 9.4e-201; their
        # product underflows to 0
        spec = SweepSpec(vary="r", start=1e-100, stop=2e-100, steps=2,
                         fixed_gamma=0.5, g_ratio=5.0)
        message = ("lambda_x - lambda_yz_hi keeps its sign on r in [1e-100, 2e-100] "
                   "(2.345e-201 and 9.379e-201)")
        assert _outcome(find_critical_point, spec) == ("NoSignChangeError", message)

    def test_tiny_gaps_keep_their_signs_while_halving(self, monkeypatch):
        # a gap of 1e-170 per unit of r: every product of two gaps underflows
        # to 0, so a product test would take each midpoint as the new hi
        monkeypatch.setattr(point, "closed_form_gap", lambda r, gamma, g: 1e-170 * (2.3 - r))
        spec = SweepSpec(vary="r", start=0.5, stop=8.0, steps=2, fixed_gamma=0.5, g_ratio=5.0)
        crossing = find_critical_point(spec)
        assert abs(crossing.value - 2.3) <= crossing.bracket_width <= CRITICAL_BRACKET_WIDTH

    @pytest.mark.parametrize("scale", [1.0, 1e-5], ids=["wide", "narrower_than_the_width"])
    def test_zero_gap_at_an_end_takes_its_sign_from_the_other(self, closed_form_gaps, scale):
        # C = 0 at r = 0, so the gap there is exactly 0 and has no sign; the
        # halving follows the sign at r = 8 to the crossing at 2.32578230.
        # The gap is scale-invariant: scaled by 1e-5 the bracket is narrower
        # than the width, and the halving goes on until a midpoint has the
        # sign below the crossing
        spec = SweepSpec(vary="r", start=0.0, stop=8.0 * scale, steps=2,
                         fixed_gamma=0.5 * scale, g_ratio=5.0)
        crossing = find_critical_point(spec)
        assert closed_form_gaps[0] == (0.0, 0.5 * scale, 2.5 * scale)
        assert abs(crossing.value - 2.32578230 * scale) <= crossing.bracket_width
        assert crossing.bracket_width <= CRITICAL_BRACKET_WIDTH

    def test_zero_gap_at_an_end_is_no_crossing(self, monkeypatch):
        # the gap is positive on (0, 1]: the search halves towards r = 0,
        # past the width, and never meets the sign below the crossing; it
        # stops once hi = 2^-1074, the smallest float above 0
        rates = []

        def recording(r, gamma, g):
            rates.append(r)
            return closed_form_gap(r, gamma, g)

        monkeypatch.setattr(point, "closed_form_gap", recording)
        spec = SweepSpec(vary="r", start=0.0, stop=1.0, steps=2, fixed_gamma=0.5, g_ratio=5.0)
        message = ("lambda_x - lambda_yz_hi keeps its sign on r in [0.0, 1.0] "
                   "(0.000e+00 and 1.252e-01)")
        assert _outcome(find_critical_point, spec) == ("NoSignChangeError", message)
        assert len(rates) == 2 + 1074
        assert rates[-1] == math.ulp(0.0)
        monkeypatch.undo()
        assert _reference_outcome(spec) == ("NoSignChangeError", message)

    @pytest.mark.parametrize("spec", [
        # r = 0: C = 0 at every gamma
        SweepSpec(vary="gamma", start=0.1, stop=3.0, steps=2, fixed_r=0.0, g_ratio=5.0),
        # a route state this close to I/4 has C = 0 to the last bit
        SweepSpec(vary="r", start=1e-100, stop=2e-100, steps=2, fixed_gamma=0.5, g_ratio=5.0,
                  method="nullspace"),
        SweepSpec(vary="r", start=1e-100, stop=2e-100, steps=2, fixed_gamma=0.5, g_ratio=5.0,
                  method="integrate"),
    ], ids=["r_0", "nullspace", "integrate"])
    def test_zero_gaps_at_both_ends_are_no_crossing(self, spec):
        message = (f"lambda_x - lambda_yz_hi keeps its sign on {spec.vary} in "
                   f"[{spec.start}, {spec.stop}] (0.000e+00 and 0.000e+00)")
        assert _reference_outcome(spec) == ("NoSignChangeError", message)
        assert _outcome(find_critical_point, spec) == ("NoSignChangeError", message)

    def test_zero_gap_at_a_midpoint_is_a_crossing(self, monkeypatch):
        # 0 at both r = 0 and the first midpoint r = 2, negative at r = 4
        monkeypatch.setattr(point, "closed_form_gap", lambda r, gamma, g: r * (2.0 - r))
        spec = SweepSpec(vary="r", start=0.0, stop=4.0, steps=2, fixed_gamma=0.5, g_ratio=5.0)
        crossing = find_critical_point(spec)
        assert crossing.value < 2.0 <= crossing.value + crossing.bracket_width

    def test_closed_form_evaluates_the_serial_points_only(self, monkeypatch, closed_form_gaps):
        spec = SweepSpec(vary="r", start=1.5, stop=3.5, steps=2, fixed_gamma=0.5, g_ratio=5.0)
        want = _reference_outcome(spec)
        assert _serial_bisection(spec)[1] == 15

        def unreachable(*args):
            raise AssertionError("the closed-form search takes scalar gaps only: it calls "
                                 "no closed_form_figures, builds no states and computes "
                                 "no entanglement measure")

        for owner, name in ((sweep, "closed_form_figures"), (dynamics, "closed_form_figures"),
                            (sweep, "steady_state"), (dynamics, "closed_form_steady_state"),
                            (DensityMatrix, "__init__"), (sweep, "concurrence"),
                            (sweep, "negativity")):
            monkeypatch.setattr(owner, name, unreachable)
        assert _outcome(find_critical_point, spec) == want
        # the two ends, then one midpoint per halving
        assert len(closed_form_gaps) == 2 + 15
        assert closed_form_gaps[:2] == [(1.5, 0.5, 2.5), (3.5, 0.5, 2.5)]
        assert all(1.5 < r < 3.5 for r, _, _ in closed_form_gaps[2:])

    def test_superoperator_routes_evaluate_the_serial_points_only(self, route_calls):
        spec = SweepSpec(vary="r", start=2.0, stop=2.5, steps=2, fixed_gamma=0.5,
                         g_ratio=5.0, method="nullspace")
        halvings = _serial_bisection(spec)[1]
        want = list(route_calls)  # the reference solves through the same steady_state
        route_calls.clear()
        find_critical_point(spec)
        assert route_calls == want
        assert len(route_calls) == 2 + halvings == 15

    def test_route_without_sign_change_solves_the_ends_only(self, route_calls):
        spec = SweepSpec(vary="r", start=3.0, stop=8.0, steps=2, fixed_gamma=0.5,
                         g_ratio=5.0, method="nullspace")
        want = _reference_outcome(spec)
        route_calls.clear()
        assert _outcome(find_critical_point, spec) == want
        assert want[0] == "NoSignChangeError"
        assert route_calls == [(3.0, 0.5, 2.5), (8.0, 0.5, 2.5)]

    def test_bracket_of_adjacent_floats_ends(self, closed_form_gaps):
        # the model is homogeneous in its rates, so the crossing scales with
        # them; above 2**39 adjacent floats lie more than 1e-4 apart, and the
        # search ends once the bracket's ends are adjacent
        spec = SweepSpec(vary="r", start=1e12, stop=3e12, steps=2, fixed_gamma=4e11,
                         g_ratio=5.0)
        small = SweepSpec(vary="r", start=1e10, stop=3e10, steps=2, fixed_gamma=4e9,
                          g_ratio=5.0)
        point = find_critical_point(spec)
        assert point.bracket_width == 0.5 * math.ulp(point.value) == 2.0**-13
        assert point.value == pytest.approx(100.0 * find_critical_point(small).value, rel=1e-12)
        assert f"{point.value:.9g}" == "1.86062584e+12"

    def test_bracket_near_the_largest_float(self, closed_form_gaps):
        # lo + hi overflows here; the midpoints add halves instead
        spec = SweepSpec(vary="r", start=5e307, stop=1.7e308, steps=2, fixed_gamma=6e307,
                         g_ratio=2.0)
        scaled = SweepSpec(vary="r", start=5.0, stop=17.0, steps=2, fixed_gamma=6.0,
                           g_ratio=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = find_critical_point(spec)
        assert spec.start < point.value < spec.stop
        assert point.bracket_width <= math.ulp(point.value)
        assert point.value == pytest.approx(1e307 * find_critical_point(scaled).value, rel=1e-4)

    @pytest.mark.parametrize("method", ["closed_form", "nullspace"])
    def test_computes_no_entanglement(self, monkeypatch, method):
        spec = SweepSpec(vary="r", start=2.0, stop=2.5, steps=2, fixed_gamma=0.5,
                         g_ratio=5.0, method=method)
        want = _reference_outcome(spec)

        def unreachable(*args):
            raise AssertionError("a bisection needs C only")

        monkeypatch.setattr(sweep, "concurrence", unreachable)
        monkeypatch.setattr(sweep, "negativity", unreachable)
        assert _outcome(find_critical_point, spec) == want


class TestEmit:
    def test_header_only_for_empty_rows(self, capsys):
        emit([])
        assert capsys.readouterr().out == CSV_HEADER + "\n"

    def test_single_row_is_two_lines(self, capsys):
        emit([evaluate_point(ModelParams(r=14.0, gamma=0.5, g=2.5))])
        out = capsys.readouterr().out
        lines = out.split("\n")
        assert out.endswith("\n")
        assert "\r" not in out
        assert len(lines) == 3 and lines[2] == ""
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("14,0.5,2.5,1.00225507,")

    def test_nine_significant_digits(self, capsys):
        emit([evaluate_point(ModelParams(r=1.0, gamma=0.01, g=0.05))])
        fields = capsys.readouterr().out.split("\n")[1].split(",")
        assert fields[3] == "1.02124461"
        assert fields[8] == "0.0183813306"

    def test_round_trip_preserves_nine_digits(self, reset_sweep_rows, tmp_path):
        target = tmp_path / "sweep.csv"
        emit(reset_sweep_rows, fmt="csv", path=str(target))
        parsed = parse_csv(target.read_text())
        assert len(parsed) == len(reset_sweep_rows)
        for original, back in zip(reset_sweep_rows, parsed):
            for name in CSV_FIELDS:
                assert getattr(back, name) == float(f"{getattr(original, name):.9g}")

    def test_emission_is_deterministic(self, reset_sweep_rows, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit(reset_sweep_rows, path=str(first))
        emit(reset_sweep_rows, path=str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_json_rows(self, capsys):
        emit([evaluate_point(ModelParams(r=14.0, gamma=0.5, g=2.5))], fmt="json")
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        assert list(payload[0]) == list(CSV_FIELDS)
        assert payload[0]["mean_qfi"] == 1.00225507

    def test_critical_point_csv(self, capsys):
        emit(CriticalPoint(vary="r", value=2.32576179, bracket_width=2.86102294921875e-05))
        out = capsys.readouterr().out
        assert out == "vary,value,bracket_width\nr,2.32576179,2.86102295e-05\n"

    def test_critical_point_json(self, capsys):
        emit(CriticalPoint(vary="gamma", value=0.2149876403, bracket_width=4.5e-05), fmt="json")
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"vary": "gamma", "value": 0.21498764, "bracket_width": 4.5e-05}

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            emit([], fmt="xml")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_and_row_list_emit_the_same_bytes(self, capsys, chunk_sweep_table, fmt):
        # SWEEP_CHUNK + 3 rows: formatted in EMIT_CHUNK pieces, the last of 3 rows
        emit(chunk_sweep_table, fmt=fmt)
        from_table = capsys.readouterr().out
        emit(list(chunk_sweep_table), fmt=fmt)
        from_rows = capsys.readouterr().out
        assert from_table == from_rows
        if fmt == "csv":
            assert from_table.count("\n") == CHUNK_SWEEP.steps + 1
            assert len(parse_csv(from_table)) == CHUNK_SWEEP.steps
        else:
            payload = json.loads(from_table)
            assert len(payload) == CHUNK_SWEEP.steps
            assert from_table == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_out_file_matches_stdout(self, capsys, tmp_path, fmt):
        argv = ["sweep", "--vary", "gamma", "--from", "0.01", "--to", "3",
                "--steps", str(SWEEP_CHUNK + 3), "--r", "1", "--g-ratio", "5", "--format", fmt]
        target = tmp_path / f"sweep.{fmt}"
        assert main(argv) == EXIT_OK
        stdout = capsys.readouterr().out
        assert main([*argv, "--out", str(target)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == stdout.encode("ascii")

    def test_failed_cli_sweep_writes_nothing(self, capsys, tmp_path):
        # r = gamma = g = 0 at the first point: the whole table is built before
        # any output
        argv = ["sweep", "--vary", "r", "--from", "0", "--to", "1",
                "--steps", str(SWEEP_CHUNK + 3), "--gamma", "0", "--g", "0"]
        target = tmp_path / "sweep.csv"
        assert main(argv) == EXIT_SOLVER
        assert main([*argv, "--out", str(target)]) == EXIT_SOLVER
        assert capsys.readouterr().out == ""
        assert not target.exists()

    def test_empty_table_emits_like_no_rows(self, capsys):
        empty = SweepTable(np.empty((0, len(CSV_FIELDS))))
        for fmt, want in (("csv", CSV_HEADER + "\n"), ("json", "[]\n")):
            emit(empty, fmt=fmt)
            assert capsys.readouterr().out == want
            emit([], fmt=fmt)
            assert capsys.readouterr().out == want

    def test_parse_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            parse_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("body, message", [
        ("1,2\n", "^CSV line 2: 2 fields, expected 12$"),
        (",".join(["1"] * 13) + "\n", "^CSV line 2: 13 fields, expected 12$"),
        (",".join(["1"] * 12) + "\n\n1,x,1,1,1,1,1,1,1,1,1,1\n",
         "^CSV line 4: could not convert string to float: 'x'$"),
    ], ids=["short", "long", "not-a-number"])
    def test_parse_rejects_malformed_row_naming_its_line(self, body, message):
        with pytest.raises(ValueError, match=message):
            parse_csv(CSV_HEADER + "\n" + body)

    def test_parse_skips_blank_lines(self):
        rows = parse_csv(CSV_HEADER + "\n\n" + ",".join(["1"] * 12) + "\n\n")
        assert rows == [SweepRow(*[1.0] * 12)]


def _plain_csv(rows) -> str:
    """The CSV of ``rows`` with every value rendered on its own by %.9g."""
    lines = [",".join("%.9g" % x for x in astuple(row)) for row in rows]
    return "".join(line + "\n" for line in (CSV_HEADER, *lines))


def _special_values() -> np.ndarray:
    """Seven rows of seeded values with, in their first columns, signed zeros
    mixed in one column, NaN, infinities, the smallest subnormal, and
    columns that hold one value over all rows or over the first three."""
    array = np.random.default_rng(19).normal(size=(7, len(CSV_FIELDS)))
    array[:, 0] = [0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0]
    array[:, 1] = [np.nan, np.inf, -np.inf, 5e-324, -5e-324, np.nan, 0.0]
    array[:, 2] = np.nan
    array[:, 3] = -np.inf
    array[:, 4] = 5e-324
    array[:, 5] = -0.0
    array[:, 6] = [1.5, 1.5, 1.5, 2.0, 1.5, 1.5, 1.5]
    array[:, 7] = [-0.0, -0.0, -0.0, 0.0, 0.0, 0.0, -0.0]
    return array


EMIT_SWEEPS = {
    "sweep-vary-r": SweepSpec(vary="r", start=0.0, stop=20.0, steps=1000,
                              fixed_gamma=0.5, g_ratio=5.0),
    "sweep-vary-gamma-g-ratio": SweepSpec(vary="gamma", start=0.0, stop=3.0, steps=1000,
                                          fixed_r=1.0, g_ratio=5.0),
    "sweep-vary-gamma-fixed-g": SweepSpec(vary="gamma", start=0.0, stop=3.0, steps=1000,
                                          fixed_r=14.0, g=2.5),
}


@pytest.fixture(scope="module")
def emit_payloads():
    """Tables and row lists whose CSV is checked against ``_plain_csv``."""
    sweeps = {name: run_sweep(spec) for name, spec in EMIT_SWEEPS.items()}
    special = _special_values()
    return {
        "special-values": SweepTable(special),
        "all-constant": SweepTable(np.tile(special[[3]], (600, 1))),
        "one-row": SweepTable(special[:1]),
        "empty": SweepTable(np.empty((0, len(CSV_FIELDS)))),
        "strided-slice": sweeps["sweep-vary-r"][::-3],
        "row-list": list(sweeps["sweep-vary-gamma-g-ratio"])[:300],
        **sweeps,
    }


EMIT_CASES = ["special-values", "all-constant", "one-row", "empty", "strided-slice",
              "row-list", *EMIT_SWEEPS]
# "whole" is one piece of len + 1 rows
EMIT_PIECES = [1, 2, 3, EMIT_CHUNK, "whole"]


def _emit_in_pieces(monkeypatch, capsys, payload, piece, fmt) -> str:
    monkeypatch.setattr(sweep, "EMIT_CHUNK", len(payload) + 1 if piece == "whole" else piece)
    emit(payload, fmt=fmt)
    return capsys.readouterr().out


class TestEmitPieces:
    """emit formats a column that holds one value over a piece once for
    that piece; its CSV and JSON bytes are those of every value rendered
    on its own, at every piece size."""

    @pytest.mark.parametrize("piece", EMIT_PIECES)
    @pytest.mark.parametrize("case", EMIT_CASES)
    def test_csv_equals_plain_rendering(self, monkeypatch, capsys, emit_payloads, case, piece):
        payload = emit_payloads[case]
        text = _emit_in_pieces(monkeypatch, capsys, payload, piece, "csv")
        # compared line by line, so a failure names its first differing line
        assert text.splitlines(keepends=True) == _plain_csv(payload).splitlines(keepends=True)

    @pytest.mark.parametrize("piece", EMIT_PIECES)
    @pytest.mark.parametrize("case", EMIT_CASES)
    def test_json_equals_plain_rendering(self, monkeypatch, capsys, emit_payloads, case, piece):
        payload = emit_payloads[case]
        text = _emit_in_pieces(monkeypatch, capsys, payload, piece, "json")
        plain = json.dumps([{name: float("%.9g" % x) for name, x in zip(CSV_FIELDS, astuple(row))}
                            for row in payload], indent=2) + "\n"
        assert text.splitlines(keepends=True) == plain.splitlines(keepends=True)
