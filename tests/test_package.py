"""The surface of ``import resetqfi``: every public name, eager or lazy."""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

import resetqfi

# the module each public name is defined in
HOMES = {
    "errors": ("BadDimensionError", "DegenerateLimitError", "DegenerateSteadyStateError",
               "NoConvergenceError", "NoSignChangeError", "NotHermitianError",
               "NotNormalizedError", "NotSymmetricError", "OutOfRangeError"),
    "point": ("CSV_FIELDS", "CSV_HEADER", "CriticalPoint", "ModelParams", "SweepRow",
              "SweepSpec", "emit", "find_critical_point"),
    "dynamics": ("PLUS", "DensityMatrix", "closed_form_steady_state", "liouvillian_apply",
                 "liouvillian_superoperator", "steady_state", "unvectorize", "vectorize"),
    "entanglement": ("concurrence", "negativity"),
    "metrology": ("X_AXIS", "Y_AXIS", "Z_AXIS", "Direction", "QfiResult", "c_matrix",
                  "mean_qfi_max", "optimal_direction", "qfi_direction", "qfi_pure", "rotate"),
    "qlinalg": ("HermitianEig", "hermitian_eig", "kron", "partial_trace", "partial_transpose",
                "sigma_x", "sigma_y", "sigma_z", "trace_norm"),
    "sweep": ("SweepTable", "evaluate_point", "run_sweep"),
}
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SUBMODULES = ("cli", "dynamics", "entanglement", "errors", "metrology", "point", "qlinalg",
              "sweep")


def test_every_public_name_has_one_home():
    names = [name for names in HOMES.values() for name in names]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(resetqfi.__all__)


def test_names_are_the_objects_of_their_home_modules():
    wrong = [f"{home}.{name}" for home, names in HOMES.items() for name in names
             if getattr(resetqfi, name) is not getattr(importlib.import_module(f"resetqfi.{home}"),
                                                       name)]
    assert wrong == []


def test_dir_lists_every_name():
    listed = dir(resetqfi)
    assert set(resetqfi.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert listed == sorted(listed)


def test_star_import():
    namespace = {}
    exec("from resetqfi import *", namespace)
    assert {name: namespace[name] for name in resetqfi.__all__} == {
        name: getattr(resetqfi, name) for name in resetqfi.__all__}


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="^module 'resetqfi' has no attribute 'no_such_name'$"):
        resetqfi.no_such_name  # noqa: B018
    assert not hasattr(resetqfi, "no_such_name")


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve_as_modules(name):
    module = getattr(resetqfi, name)
    assert isinstance(module, types.ModuleType)
    assert module is importlib.import_module(f"resetqfi.{name}")


def test_array_names_are_read_from_their_home_module(monkeypatch):
    # not cached in the package: a name rebound at home is the name seen here
    sweep = importlib.import_module("resetqfi.sweep")
    stand_in = object()
    monkeypatch.setattr(sweep, "run_sweep", stand_in)
    assert resetqfi.run_sweep is stand_in
    monkeypatch.undo()
    assert resetqfi.run_sweep is sweep.run_sweep


def test_benchmark_tracer_finds_every_traced_name():
    # the tracer looks each layer up by name with no default, so a deleted
    # name fails here instead of only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tracer.Tracer().prepare(resetqfi)  # not applied, so nothing is wrapped
