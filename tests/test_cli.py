import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resetqfi
from resetqfi import CSV_HEADER, parse_csv
from resetqfi.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main

EVAL_A = ["eval", "--r", "14", "--gamma", "0.5", "--g", "2.5"]
SWEEP_SMALL = ["sweep", "--vary", "r", "--from", "0", "--to", "20", "--steps", "21",
               "--gamma", "0.5", "--g-ratio", "5"]


class TestEval:
    def test_csv_row(self, capsys):
        assert main(EVAL_A) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("14,0.5,2.5,1.00225507,")

    def test_json_row(self, capsys):
        assert main(EVAL_A + ["--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["mean_qfi"] == 1.00225507
        assert payload[0]["concurrence"] == 0.0992485788

    @pytest.mark.parametrize("method", ["closed-form", "nullspace", "integrate"])
    def test_methods_agree_to_output_precision(self, capsys, method):
        assert main(EVAL_A + ["--method", method]) == EXIT_OK
        row = parse_csv(capsys.readouterr().out)[0]
        assert row.mean_qfi == 1.00225507

    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--r", "14", "--gamma", "0.5"])
        assert info.value.code == EXIT_USAGE

    def test_unknown_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(EVAL_A + ["--method", "guess"])
        assert info.value.code == EXIT_USAGE


class TestSweep:
    def test_writes_csv_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        assert main(SWEEP_SMALL + ["--out", str(target)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        rows = parse_csv(target.read_text())
        assert len(rows) == 21
        assert rows[-1].r == 20.0

    def test_stdout_by_default(self, capsys):
        assert main(SWEEP_SMALL) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER + "\n")
        assert len(out.strip().split("\n")) == 22

    def test_json_file(self, tmp_path):
        target = tmp_path / "rows.json"
        assert main(SWEEP_SMALL + ["--format", "json", "--out", str(target)]) == EXIT_OK
        payload = json.loads(target.read_text())
        assert len(payload) == 21

    def test_repeat_runs_are_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(SWEEP_SMALL + ["--out", str(first)]) == EXIT_OK
        assert main(SWEEP_SMALL + ["--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_reversed_interval_is_usage_error(self, capsys):
        code = main(["sweep", "--vary", "r", "--from", "1", "--to", "0", "--steps", "3",
                     "--gamma", "0.5", "--g", "2.5"])
        assert code == EXIT_USAGE
        assert "start < stop" in capsys.readouterr().err

    def test_negative_g_ratio_is_usage_error(self, capsys):
        code = main(["sweep", "--vary", "gamma", "--from", "0", "--to", "3", "--steps", "2",
                     "--r", "1", "--g-ratio", "-5"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "g_ratio" in err
        assert "-15" not in err

    def test_overflowing_end_rate_is_usage_error(self, capsys):
        code = main(["sweep", "--vary", "gamma", "--from", "0", "--to", "1e308", "--steps", "2",
                     "--r", "1", "--g-ratio", "10"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "resetqfi: g must be finite and non-negative, got inf\n"

    def test_missing_fixed_rate_is_usage_error(self, capsys):
        code = main(["sweep", "--vary", "r", "--from", "0", "--to", "1", "--steps", "3",
                     "--g", "2.5"])
        assert code == EXIT_USAGE

    def test_degenerate_solver_exit(self, capsys):
        code = main(["sweep", "--vary", "r", "--from", "0", "--to", "1", "--steps", "3",
                     "--gamma", "0.5", "--g", "2.5", "--method", "nullspace"])
        assert code == EXIT_SOLVER
        assert "not unique" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "rows.csv"
        code = main(SWEEP_SMALL + ["--out", str(target)])
        assert code == EXIT_IO
        assert "rows.csv" in capsys.readouterr().err


class TestCritical:
    def test_reset_rate_crossing(self, capsys):
        code = main(["critical", "--vary", "r", "--lo", "0.5", "--hi", "8",
                     "--gamma", "0.5", "--g-ratio", "5"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "vary,value,bracket_width"
        name, value, width = lines[1].split(",")
        assert name == "r"
        assert abs(float(value) - 2.3) <= 0.1
        assert float(width) <= 5e-5

    def test_no_crossing_is_solver_error(self, capsys):
        code = main(["critical", "--vary", "r", "--lo", "3", "--hi", "8",
                     "--gamma", "0.5", "--g-ratio", "5"])
        assert code == EXIT_SOLVER
        assert "sign" in capsys.readouterr().err

    def test_solver_error_names_the_point(self, capsys):
        code = main(["critical", "--vary", "r", "--lo", "0", "--hi", "1",
                     "--gamma", "0", "--g", "0"])
        assert code == EXIT_SOLVER
        assert capsys.readouterr().err == ("resetqfi: solver error: r = gamma = g = 0 "
                                           "singles out no steady state [at r = 0]\n")


def test_module_entry_point(tmp_path):
    target = tmp_path / "rows.csv"
    # the child imports the same package as this process, installed or not
    package_root = str(Path(resetqfi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "resetqfi", "sweep", "--vary", "gamma",
         "--from", "0.01", "--to", "3", "--steps", "5", "--r", "1", "--g-ratio", "5",
         "--out", str(target)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0
    rows = parse_csv(target.read_text())
    assert len(rows) == 5
    assert abs(rows[0].mean_qfi - 1.02124461) <= 1e-8
