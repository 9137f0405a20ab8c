"""The local runner of the workflow's steps, ci/run_local.py."""

import importlib.util
from pathlib import Path

import pytest

pytest.importorskip("yaml")

RUNNER = Path(__file__).resolve().parent.parent / "ci" / "run_local.py"


@pytest.fixture(scope="module")
def run_local():
    spec = importlib.util.spec_from_file_location("run_local", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_skipped_step_is_a_run_step_of_the_workflow(run_local):
    # a renamed step would otherwise leave its skip entry behind and run
    names = [step["name"] for step in run_local.run_steps(run_local.job())]
    assert len(names) == len(set(names))
    for name, reason in run_local.SKIP.items():
        assert name in names
        assert reason.strip()


def test_unknown_step_name_is_a_usage_error(run_local, capsys):
    assert run_local.main(["no such step"]) == 2
    assert "no run: step named 'no such step'" in capsys.readouterr().err
