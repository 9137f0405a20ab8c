"""Two-qubit entanglement measures: Wootters concurrence and negativity."""

import numpy as np

from .dynamics import DensityMatrix
from .qlinalg import kron, partial_transpose, sigma_y, trace_norm

_YY = kron(sigma_y, sigma_y)


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence, 0 for separable states and 1 for Bell states.

    max(0, mu_1 - mu_2 - mu_3 - mu_4), where mu_1 >= ... >= mu_4, the
    square roots of the eigenvalues of rho (Y x Y) rho* (Y x Y), are the
    singular values of sqrt(rho) (Y x Y) sqrt(rho)*.  Near pure states the
    small eigenvalues are as small as their rounding error, and their
    square roots would be off by its square root; the singular values are
    not.  Eigenvalues below zero, down to the -1e-10 that ``DensityMatrix``
    accepts, count as 0.
    """
    eigenvalues, eigenvectors = rho.eig.eigenvalues, rho.eig.eigenvectors
    root = eigenvectors * np.sqrt(np.maximum(eigenvalues, 0.0)) @ eigenvectors.conj().T
    mu = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False).tolist()  # descending
    return max(0.0, mu[0] - mu[1] - mu[2] - mu[3])


def negativity(rho: DensityMatrix) -> float:
    """Entanglement negativity, (||rho^T2||_1 - 1) / 2.

    Zero whenever the partial transpose is positive semidefinite and 1/2
    for Bell states.
    """
    value = 0.5 * (trace_norm(partial_transpose(rho.mat)) - 1.0)
    return max(0.0, value)  # trace norm of a unit-trace state is >= 1
