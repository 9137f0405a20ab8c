"""Exception types shared across the package."""


class NotHermitianError(ValueError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotSymmetricError(ValueError):
    """Real matrix deviates from its transpose beyond tolerance."""


class BadDimensionError(ValueError):
    """Operand has the wrong shape for this operation."""


class NotNormalizedError(ValueError):
    """Vector norm differs from 1 beyond tolerance."""


class OutOfRangeError(ValueError):
    """Value violates a physical bound, usually an upstream numerical fault."""


class DegenerateLimitError(ValueError):
    """All rates vanish, so no steady state is singled out."""


class DegenerateSteadyStateError(RuntimeError):
    """Liouvillian kernel is not one-dimensional; the steady state is not unique."""


class NoConvergenceError(RuntimeError):
    """Iterative solver exhausted its step budget."""


class NoSignChangeError(RuntimeError):
    """Bisection target has the same sign at both interval endpoints."""


# Failures of a solver on valid input (as opposed to bad input): run_sweep
# and the crossing search (point._gap) name the point they occur at, and
# the command line exits with 3.
SOLVER_ERRORS = (
    DegenerateSteadyStateError,
    NoConvergenceError,
    NoSignChangeError,
    DegenerateLimitError,
)
