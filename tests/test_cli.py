import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resetqfi
from resetqfi import CSV_HEADER, SweepSpec
from resetqfi.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, build_parser, main
from resetqfi.dynamics import STEADY_STATE_METHODS

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
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(row["mean_qfi"]) == 1.00225507

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
        rows = list(csv.DictReader(io.StringIO(target.read_text())))
        assert len(rows) == 21
        assert float(rows[-1]["r"]) == 20.0

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

    def test_sweep_too_large_for_memory_is_usage_error(self, capsys, monkeypatch):
        # numpy raises MemoryError for a grid it cannot allocate, 7.28 TiB
        # at 10**12 steps; the grid raises it here without allocating
        def too_large(spec):
            raise MemoryError(f"Unable to allocate 7.28 TiB for an array with shape "
                              f"({spec.steps},) and data type float64")

        monkeypatch.setattr(SweepSpec, "grid", too_large)
        code = main(["sweep", "--vary", "r", "--from", "0", "--to", "1",
                     "--steps", "1000000000000", "--gamma", "0.5", "--g-ratio", "5"])
        assert code == EXIT_USAGE
        assert capsys.readouterr() == ("", "resetqfi: out of memory: Unable to allocate "
                                           "7.28 TiB for an array with shape (1000000000000,) "
                                           "and data type float64\n")


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

    # exact stdout of the README example, of the acceptance bracket in
    # gamma, where g = g_ratio * gamma moves with every midpoint, and of a
    # bracket above 2**39, whose search ends on adjacent floats 2**-12 apart
    @pytest.mark.parametrize("argv, row", [
        (["--vary", "r", "--lo", "0.5", "--hi", "8", "--gamma", "0.5", "--g-ratio", "5"],
         "r,2.3257618,2.86102295e-05"),
        (["--vary", "gamma", "--lo", "0.01", "--hi", "3", "--r", "1", "--g-ratio", "5"],
         "gamma,0.21498764,4.56237793e-05"),
        (["--vary", "r", "--lo", "1e12", "--hi", "3e12", "--gamma", "4e11", "--g-ratio", "5"],
         "r,1.86062584e+12,0.000122070312"),
    ])
    def test_crossing_bytes(self, capsys, closed_form_gaps, argv, row):
        assert main(["critical", *argv]) == EXIT_OK
        assert capsys.readouterr().out == f"vary,value,bracket_width\n{row}\n"

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


@pytest.mark.parametrize("command, usage", [
    ("critical", "--lo LO --hi HI"),
    ("sweep", "--from FROM --to TO"),
])
def test_help_names_the_interval_flags(capsys, command, usage):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == EXIT_OK
    assert usage in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_method_choices_are_the_steady_state_routes(command):
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    method = next(action for action in subparsers.choices[command]._actions
                  if action.dest == "method")
    assert tuple(choice.replace("-", "_") for choice in method.choices) == STEADY_STATE_METHODS


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
    rows = list(csv.DictReader(io.StringIO(target.read_text())))
    assert len(rows) == 5
    assert abs(float(rows[0]["mean_qfi"]) - 1.02124461) <= 1e-8


# Runs resetqfi.cli.main on its arguments in a fresh interpreter, then
# writes on a last stderr line whether numpy was loaded.
_FRESH_MAIN = """
import sys
from resetqfi.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as stop:
    code = stop.code
sys.stderr.write(f"\\nnumpy loaded: {'numpy' in sys.modules}\\n")
raise SystemExit(code)
"""


def _fresh(code: str, *args: str):
    """(exit code, stdout, stderr without its last line, whether numpy was
    loaded) of ``code`` run by a fresh interpreter on this package."""
    package_root = str(Path(resetqfi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=path))
    stderr, _, last = result.stderr.rstrip("\n").rpartition("\n")
    assert last in ("numpy loaded: True", "numpy loaded: False"), result.stderr
    return result.returncode, result.stdout, stderr, last == "numpy loaded: True"


README_CRITICAL = ["critical", "--vary", "r", "--lo", "0.5", "--hi", "8", "--gamma", "0.5",
                   "--g-ratio", "5"]


EVAL_A_CSV = (CSV_HEADER + "\n14,0.5,2.5,1.00225507,0.108618821,2.00451013,1.42980908,"
              "0.0992485788,0.0496242894,0,0.707106781,0.707106781\n")
EVAL_A_JSON = json.dumps([dict(zip(CSV_HEADER.split(","), map(float, EVAL_A_CSV.split(
    "\n")[1].split(","))))], indent=2) + "\n"


class TestClosedFormCriticalLoadsNoNumpy:
    """A closed-form critical search and a closed-form eval run on Python
    floats: in a fresh interpreter they, their error exits and a bare
    import load no numpy."""

    @pytest.mark.parametrize("argv, code, out", [
        (README_CRITICAL, EXIT_OK, "vary,value,bracket_width\nr,2.3257618,2.86102295e-05\n"),
        (["critical", "--vary", "r", "--lo", "0", "--hi", "1", "--gamma", "0", "--g", "0"],
         EXIT_SOLVER, ""),
        (README_CRITICAL[:-1] + ["-5"], EXIT_USAGE, ""),
        (["critical", "--vary", "r", "--lo", "3", "--hi", "8", "--gamma", "0.5",
          "--g-ratio", "5"], EXIT_SOLVER, ""),
        (EVAL_A, EXIT_OK, EVAL_A_CSV),
        (EVAL_A + ["--format", "json"], EXIT_OK, EVAL_A_JSON),
        (["eval", "--r", "0", "--gamma", "0", "--g", "0"], EXIT_SOLVER, ""),
        (EVAL_A[:-1] + ["-2.5"], EXIT_USAGE, ""),
    ], ids=["readme", "all-rates-zero", "negative-g-ratio", "no-sign-change", "eval",
            "eval-json", "eval-all-rates-zero", "eval-negative-g"])
    def test_command(self, argv, code, out):
        returncode, stdout, stderr, numpy_loaded = _fresh(_FRESH_MAIN, *argv)
        assert (returncode, stdout) == (code, out)
        assert bool(stderr) == (code != EXIT_OK)
        assert not numpy_loaded

    def test_import(self):
        code = "import sys, resetqfi; sys.stderr.write(f\"numpy loaded: {'numpy' in sys.modules}\")"
        assert _fresh(code)[3] is False

    @pytest.mark.parametrize("argv", [SWEEP_SMALL, EVAL_A + ["--method", "nullspace"],
                                      EVAL_A + ["--method", "integrate"]],
                             ids=["sweep", "eval-nullspace", "eval-integrate"])
    def test_array_side_still_runs_and_loads_numpy(self, argv):
        returncode, stdout, stderr, numpy_loaded = _fresh(_FRESH_MAIN, *argv)
        assert (returncode, stderr) == (EXIT_OK, "")
        assert stdout.startswith(CSV_HEADER + "\n")
        assert numpy_loaded
