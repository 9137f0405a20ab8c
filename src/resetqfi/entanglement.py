"""Two-qubit entanglement measures: Wootters concurrence and negativity."""

import numpy as np

from .dynamics import DensityMatrix
from .errors import BadDimensionError, OutOfRangeError
from .qlinalg import kron, partial_transpose, sigma_y, trace_norm

_YY = kron(sigma_y, sigma_y)
# eigenvalues of a state this far below zero indicate a broken input state
NEGATIVE_EIG_TOL = -1e-12


def _two_qubit_state(rho: DensityMatrix) -> np.ndarray:
    if rho.dim != 4:
        raise BadDimensionError(f"defined for two qubits only, got dimension {rho.dim}")
    return rho.mat


def concurrences(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each two-qubit state in a stack, given by its
    eigendecomposition: eigenvalues (N, 4) and eigenvectors (N, 4, 4).

    mu_1 >= ... >= mu_4, the square roots of the eigenvalues of
    rho (Y x Y) rho* (Y x Y), are the singular values of
    sqrt(rho) (Y x Y) sqrt(rho)*.  Near pure states the small eigenvalues
    are as small as their rounding error, and their square roots would be
    off by its square root; the singular values are not.
    """
    low = eigenvalues.min(initial=0.0)
    if low < NEGATIVE_EIG_TOL:
        raise OutOfRangeError(f"state has eigenvalue {low:.3e} below zero")
    root = (eigenvectors * np.sqrt(np.maximum(eigenvalues, 0.0))[:, None, :]
            @ eigenvectors.conj().swapaxes(-1, -2))
    mu = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)  # descending
    value = mu[:, 0] - mu[:, 1] - mu[:, 2] - mu[:, 3]
    return np.where(value > 0.0, value, 0.0)


def negativities(mats: np.ndarray) -> np.ndarray:
    """Negativity of each two-qubit state in a stack of shape (N, 4, 4)."""
    value = 0.5 * (trace_norm(partial_transpose(mats, 2)) - 1.0)
    return np.where(value > 0.0, value, 0.0)  # trace norm of a unit-trace state is >= 1


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence, 0 for separable states and 1 for Bell states.

    Computed from the square roots mu_1 >= ... >= mu_4 of the eigenvalues
    of rho (Y x Y) rho* (Y x Y) as max(0, mu_1 - mu_2 - mu_3 - mu_4).
    """
    _two_qubit_state(rho)
    return float(concurrences(rho.eig.eigenvalues[None], rho.eig.eigenvectors[None])[0])


def negativity(rho: DensityMatrix) -> float:
    """Entanglement negativity, (||rho^T2||_1 - 1) / 2.

    Zero whenever the partial transpose is positive semidefinite and 1/2
    for Bell states.
    """
    return float(negativities(_two_qubit_state(rho)[None])[0])
