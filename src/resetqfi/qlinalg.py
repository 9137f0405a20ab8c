"""Dense complex linear algebra for few-qubit operators.

Plain complex ndarrays are the carrier throughout: Hermitian
eigendecomposition with a fixed phase convention, tensor products,
two-qubit partial trace, the partial transpose of the second qubit and
the trace norm.  Each function takes one matrix; a stack of them is
rejected.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDimensionError, NoConvergenceError, NotHermitianError, OutOfRangeError

HERMITIAN_TOL = 1e-10
# components smaller than this are ignored when fixing eigenvector phases
PHASE_TOL = 1e-12

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _pauli in (sigma_x, sigma_y, sigma_z):
    _pauli.flags.writeable = False
del _pauli


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadDimensionError(f"expected a square matrix, got shape {m.shape}")
    if not m.size:  # no entries to reduce over
        raise BadDimensionError(f"expected a matrix with entries, got shape {m.shape}")
    return m


def _hermitian(m) -> np.ndarray:
    """``_as_square`` of a finite matrix Hermitian within ``HERMITIAN_TOL``.
    NaN and infinite entries are rejected first: they would slip past the
    tolerance test (or, for inf, warn in ``m - m.conj().T``)."""
    m = _as_square(m)
    if np.count_nonzero(np.isfinite(m)) < m.size:  # cheaper than .all() on a few entries
        raise OutOfRangeError(f"matrix has non-finite entries: {m.tolist()}")
    defect = float(np.abs(m - m.conj().T).max())
    if defect > HERMITIAN_TOL:
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {defect:.3e} (tol {HERMITIAN_TOL:.1e})")
    return m


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are sorted ascending and ``eigenvectors[:, k]`` is the
    orthonormal eigenvector paired with ``eigenvalues[k]``, phased
    so that its first component of modulus above 1e-12 is real and positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    # a unit vector always has a component above PHASE_TOL
    first = (np.abs(vectors) > PHASE_TOL).argmax(axis=0)
    lead = vectors[first, np.arange(len(first))]
    return vectors * (lead.conj() / np.abs(lead))


def hermitian_eig(m) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix with deterministic phases.

    Parameters
    ----------
    m : array_like
        Square matrix, Hermitian within ``HERMITIAN_TOL``
        (largest tolerated entry of ``m - m.conj().T``).

    Raises
    ------
    OutOfRangeError
        If an entry is NaN or infinite.
    NotHermitianError
        If the symmetry tolerance is violated.
    NoConvergenceError
        If the underlying eigensolver fails to converge.
    """
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(_hermitian(m))
    except np.linalg.LinAlgError as err:
        raise NoConvergenceError(f"Hermitian eigensolver failed: {err}") from err
    return HermitianEig(eigenvalues, _fix_phases(eigenvectors))


def kron(a, b) -> np.ndarray:
    """Tensor product with the left factor acting on particle 1."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _two_qubit_blocks(m) -> np.ndarray:
    m = _as_square(m)
    if m.shape != (4, 4):
        raise BadDimensionError(f"expected a 4x4 two-qubit operator, got shape {m.shape}")
    return m.reshape(2, 2, 2, 2)  # [i, j, k, l] = <ij|M|kl>


def partial_trace(m, qubit: int) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator.

    The result is 2x2 and has the same trace as the input.  ``qubit`` is
    1 (left tensor factor) or 2 (right).
    """
    blocks = _two_qubit_blocks(m)
    if qubit == 1:
        return np.trace(blocks, axis1=0, axis2=2)
    if qubit == 2:
        return np.trace(blocks, axis1=1, axis2=3)
    raise ValueError(f"qubit must be 1 or 2, got {qubit}")


def partial_transpose(m) -> np.ndarray:
    """Transpose the indices of the second qubit (right tensor factor);
    applying it twice is the identity."""
    return _two_qubit_blocks(m).swapaxes(1, 3).reshape(4, 4)


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a finite Hermitian matrix."""
    try:
        eigenvalues = np.linalg.eigvalsh(_hermitian(m))
    except np.linalg.LinAlgError as err:
        raise NoConvergenceError(f"Hermitian eigensolver failed: {err}") from err
    return float(np.abs(eigenvalues).sum())
