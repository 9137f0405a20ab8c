"""Steady-state quantum Fisher information of a dephasing two-qubit
system with a particle-reset mechanism.

The package builds the master-equation generator, solves for its steady
state by three independent routes and evaluates the metrological and
entanglement content of the result: directional and axis-optimized QFI,
optimal rotation direction, Wootters concurrence and negativity, plus
sweep, serialization and command-line tooling on top.

The specifications, the crossing search and the text of a crossing
(``ModelParams``, ``SweepSpec``, ``find_critical_point``, ``emit``, ...)
and the exception types load without numpy.  The array-side names are
read from their home module on every access (PEP 562), which imports
it, and numpy, the first time one is used.
"""

import importlib
import types

from .errors import (
    BadDimensionError,
    DegenerateLimitError,
    DegenerateSteadyStateError,
    NoConvergenceError,
    NoSignChangeError,
    NotHermitianError,
    NotNormalizedError,
    NotSymmetricError,
    OutOfRangeError,
)
from .point import (
    CSV_FIELDS,
    CSV_HEADER,
    CriticalPoint,
    ModelParams,
    SweepRow,
    SweepSpec,
    emit,
    find_critical_point,
)

# the array-side names, by home module
_ARRAY_NAMES = {
    "dynamics": ("PLUS", "DensityMatrix", "closed_form_steady_state", "liouvillian_apply",
                 "liouvillian_superoperator", "steady_state", "unvectorize", "vectorize"),
    "entanglement": ("concurrence", "negativity"),
    "metrology": ("X_AXIS", "Y_AXIS", "Z_AXIS", "Direction", "QfiResult", "c_matrix",
                  "mean_qfi_max", "optimal_direction", "qfi_direction", "qfi_pure", "rotate"),
    "qlinalg": ("HermitianEig", "hermitian_eig", "kron", "partial_trace", "partial_transpose",
                "sigma_x", "sigma_y", "sigma_z", "trace_norm"),
    "sweep": ("SweepTable", "evaluate_point", "run_sweep"),
}
_HOME = {name: module for module, names in _ARRAY_NAMES.items() for name in names}
# the eager names imported above and the array-side names, each listed once
__all__ = sorted([*(name for name, value in globals().items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType)),
                  *_HOME])
_SUBMODULES = ("cli", "dynamics", "entanglement", "errors", "metrology", "point", "qlinalg",
               "sweep")


def __getattr__(name):
    # not cached here: a name rebound in its home module is the name seen here
    home = _HOME.get(name)
    if home is not None:
        return getattr(importlib.import_module(f"{__name__}.{home}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


__version__ = "0.1.0"
