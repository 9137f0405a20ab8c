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
    NoSignChangeError,
    SweepSpec,
    emit,
    evaluate_point,
    find_critical_point,
    parse_csv,
    run_sweep,
)
from resetqfi.cli import EXIT_OK, main
from resetqfi.sweep import SWEEP_CHUNK

DATA = Path(__file__).parent / "data"

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

    def test_solver_failure_names_the_point(self):
        spec = SweepSpec(vary="r", start=0.0, stop=1.0, steps=3,
                         fixed_gamma=0.5, g=2.5, method="nullspace")
        with pytest.raises(DegenerateSteadyStateError, match=r"at r = 0"):
            run_sweep(spec)

    def test_closed_form_failure_names_the_point(self):
        spec = SweepSpec(vary="r", start=0.0, stop=1.0, steps=3, fixed_gamma=0.0, g=0.0)
        with pytest.raises(DegenerateLimitError, match=r"at r = 0"):
            run_sweep(spec)


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
