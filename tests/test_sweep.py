import json
from pathlib import Path

import numpy as np
import pytest

from resetqfi import (
    CSV_FIELDS,
    CSV_HEADER,
    CriticalPoint,
    DegenerateLimitError,
    DegenerateSteadyStateError,
    ModelParams,
    NoConvergenceError,
    NoSignChangeError,
    SweepSpec,
    dynamics,
    emit,
    evaluate_point,
    find_critical_point,
    parse_csv,
    run_sweep,
    sweep,
)
from resetqfi.cli import EXIT_OK, main
from resetqfi.dynamics import closed_form_figures, density_eig, route_matrix
from resetqfi.sweep import CRITICAL_BRACKET_WIDTH, SWEEP_CHUNK

DATA = Path(__file__).parent / "data"

DEGENERATE_KERNEL = ("Liouvillian kernel is not one-dimensional (second eigenvalue of "
                     "L^dag L is 0.000e+00); the steady state is not unique")

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

    def test_accepts_zero_rates(self):
        spec = SweepSpec(vary="gamma", start=0.0, stop=3.0, steps=2, fixed_r=0.0, g_ratio=0.0)
        p = spec.params_at(3.0)
        assert (p.r, p.gamma, p.g) == (0.0, 3.0, 0.0)


@pytest.fixture
def route_calls(monkeypatch):
    """(r, gamma, g) of every call of a superoperator route made by sweep."""
    calls = []

    def counting(params, method):
        calls.append((params.r, params.gamma, params.g))
        return route_matrix(params, method)

    monkeypatch.setattr(sweep, "route_matrix", counting)
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

    def test_integrate_failure_names_the_point(self, route_calls):
        # g = 2000 gamma: converges at gamma = 5e-4, not at gamma = 0.5
        spec = SweepSpec(vary="gamma", start=5e-4, stop=0.5, steps=2, fixed_r=0.01,
                         g_ratio=2e3, method="integrate")
        with pytest.raises(NoConvergenceError) as raised:
            run_sweep(spec)
        assert str(raised.value) == ("residual still above 1e-12 after 10000000 RK4 steps "
                                     "[at gamma = 0.5]")
        # every point up to the failing one is solved once
        assert route_calls == [(0.01, 5e-4, 1.0), (0.01, 0.5, 1e3)]

    def test_closed_form_failure_names_the_point(self):
        spec = SweepSpec(vary="r", start=0.0, stop=1.0, steps=3, fixed_gamma=0.0, g=0.0)
        with pytest.raises(DegenerateLimitError, match=r"at r = 0"):
            run_sweep(spec)

    def test_states_validated_once_per_chunk(self, monkeypatch):
        spec = SweepSpec(vary="gamma", start=0.0, stop=3.0, steps=SWEEP_CHUNK + 3,
                         fixed_r=1.0, g_ratio=5.0, method="nullspace")
        stacks = []

        def counting(mats):
            stacks.append(len(mats))
            return density_eig(mats)

        monkeypatch.setattr(sweep, "density_eig", counting)
        run_sweep(spec)
        assert stacks == [SWEEP_CHUNK, 3]


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
    ], ids=["closed_form", "nullspace"])
    def test_rows_equal_single_points_bit_for_bit(self, spec):
        rows = run_sweep(spec)
        assert len(rows) == spec.steps
        for value, row in zip(spec.grid(), rows):
            assert _bits(row) == _bits(evaluate_point(spec.params_at(value), spec.method))

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

    @pytest.mark.parametrize("spec, error", [
        (SweepSpec(vary="r", start=0.0, stop=8.0, steps=2, fixed_gamma=0.5, g_ratio=5.0,
                   method="nullspace"),
         DegenerateSteadyStateError(f"{DEGENERATE_KERNEL} [at r = 0]")),
        (SweepSpec(vary="r", start=0.0, stop=1.0, steps=2, fixed_gamma=0.0, g=0.0),
         DegenerateLimitError("r = gamma = g = 0 singles out no steady state [at r = 0]")),
    ], ids=["nullspace", "closed_form"])
    def test_solver_failure_names_the_point(self, spec, error):
        with pytest.raises(type(error)) as raised:
            find_critical_point(spec)
        assert str(raised.value) == str(error)


def _serial_bisection(spec):
    """Reference: the bisection evaluating one evaluate_point row per step.
    Returns the critical point and the number of halvings."""

    def gap(value):
        row = evaluate_point(spec.params_at(value), spec.method)
        return row.lambda_x - row.lambda_yz_hi

    lo, hi = spec.start, spec.stop
    gap_lo, gap_hi = gap(lo), gap(hi)
    if gap_lo * gap_hi > 0.0:
        raise NoSignChangeError(
            f"lambda_x - lambda_yz_hi keeps its sign on {spec.vary} in [{lo}, {hi}] "
            f"({gap_lo:.3e} and {gap_hi:.3e})")
    halvings = 0
    while hi - lo > CRITICAL_BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        gap_mid = gap(mid)
        if gap_lo * gap_mid <= 0.0:
            hi, gap_hi = mid, gap_mid
        else:
            lo, gap_lo = mid, gap_mid
        halvings += 1
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


# halving counts the seeded brackets must include
HALVINGS = (0, 1, 3, 4, 13, 15, 16)


def _brackets_around(spec, rng, halvings):
    """Brackets of the varied rate around the crossing inside ``spec``, one
    per halving count, plus one of random width."""
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
            lo = crossing.value - rng.uniform(0.3, 0.7) * width
            hi = lo + width
        specs.append(SweepSpec(vary=spec.vary, start=lo, stop=hi, steps=2, **fixed))
    return specs


@pytest.fixture(scope="module")
def seeded_brackets():
    """64 closed-form brackets, half in r and half in gamma, with crossings
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
    """find_critical_point evaluates both end points in one stacked pass and
    then one midpoint per halving, with the result of a point-by-point
    bisection on evaluate_point rows, bit for bit."""

    def test_matches_serial_bisection_bit_for_bit(self, seeded_brackets):
        halvings = set()
        sign_changes = 0
        for spec in seeded_brackets:
            want = _reference_outcome(spec)
            assert _outcome(find_critical_point, spec) == want, spec
            if want[0] != "NoSignChangeError":
                sign_changes += 1
                halvings.add(_serial_bisection(spec)[1])
        assert len(seeded_brackets) == 70
        assert {spec.method for spec in seeded_brackets} == {"closed_form", "nullspace"}
        assert set(HALVINGS) <= halvings
        assert sign_changes >= 64

    @pytest.mark.parametrize("spec", [
        SweepSpec(vary="r", start=0.5, stop=8.0, steps=2, fixed_gamma=0.5, g_ratio=5.0),
        SweepSpec(vary="gamma", start=0.01, stop=3.0, steps=2, fixed_r=1.0, g_ratio=5.0),
        SweepSpec(vary="r", start=0.0, stop=8.0, steps=2, fixed_gamma=0.5, g_ratio=5.0),
        SweepSpec(vary="r", start=1, stop=8, steps=2, fixed_gamma=1, g=2),
    ], ids=["acceptance_r", "acceptance_gamma", "from_r_0", "integer_bounds"])
    def test_acceptance_brackets_match_serial_bisection(self, spec):
        assert _outcome(find_critical_point, spec) == _reference_outcome(spec)

    def test_no_sign_change_message(self):
        spec = SweepSpec(vary="r", start=3.0, stop=8.0, steps=2,
                         fixed_gamma=0.5, g_ratio=5.0)
        message = ("lambda_x - lambda_yz_hi keeps its sign on r in [3.0, 8.0] "
                   "(-2.326e-01 and -1.532e+00)")
        assert _reference_outcome(spec) == ("NoSignChangeError", message)
        assert _outcome(find_critical_point, spec) == ("NoSignChangeError", message)

    def test_closed_form_evaluates_one_point_per_halving(self, monkeypatch):
        spec = SweepSpec(vary="r", start=1.5, stop=3.5, steps=2, fixed_gamma=0.5, g_ratio=5.0)
        assert _serial_bisection(spec)[1] == 15
        points = []

        def counting(r, gamma, g):
            points.append(np.size(r))
            return closed_form_figures(r, gamma, g)

        def unreachable(*args):
            raise AssertionError("the closed-form search builds no states")

        monkeypatch.setattr(sweep, "closed_form_figures", counting)
        monkeypatch.setattr(sweep, "density_eig", unreachable)
        monkeypatch.setattr(sweep, "closed_form_matrices", unreachable, raising=False)
        monkeypatch.setattr(dynamics, "closed_form_matrices", unreachable)
        find_critical_point(spec)
        # both end points in one call, then one midpoint per halving: 17 points
        assert points == [2] + [1] * 15

    def test_superoperator_routes_evaluate_the_serial_points_only(self, route_calls):
        spec = SweepSpec(vary="r", start=2.0, stop=2.5, steps=2, fixed_gamma=0.5,
                         g_ratio=5.0, method="nullspace")
        halvings = _serial_bisection(spec)[1]
        find_critical_point(spec)
        assert len(route_calls) == 2 + halvings == 15

    @pytest.mark.parametrize("method", ["closed_form", "nullspace"])
    def test_computes_no_entanglement(self, monkeypatch, method):
        spec = SweepSpec(vary="r", start=2.0, stop=2.5, steps=2, fixed_gamma=0.5,
                         g_ratio=5.0, method=method)
        want = _reference_outcome(spec)

        def unreachable(*args):
            raise AssertionError("a bisection needs C only")

        monkeypatch.setattr(sweep, "concurrences", unreachable)
        monkeypatch.setattr(sweep, "negativities", unreachable)
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

    def test_parse_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            parse_csv("a,b,c\n1,2,3\n")
