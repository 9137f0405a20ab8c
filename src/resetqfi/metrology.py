"""Quantum Fisher information for collective rotations of two-qubit states.

A rotation exp(i phi J_n) about the unit axis n imprints the phase phi;
the QFI of the state with respect to that generator bounds how well phi
can be estimated.  The 3x3 moment matrix C turns the direction search
into an eigenproblem: F(n) = n . C n, so the best axis is the top
eigenvector of C.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import point
from .dynamics import DensityMatrix
from .errors import (
    BadDimensionError,
    NotNormalizedError,
    NotSymmetricError,
    OutOfRangeError,
)
# the particle count and the tie tolerance of the axis rule live in the
# numpy-free point module, which applies that rule to one closed-form row
from .point import DIRECTION_TIE_TOL, N_PARTICLES
from .qlinalg import kron, sigma_x, sigma_y, sigma_z

# eigenvalue pairs with p_i + p_j at or below this drop out of the spectral sums
EIGENVALUE_CUTOFF = 1e-12
IMAG_RESIDUE_TOL = 1e-10


@dataclass(frozen=True)
class Direction:
    """Unit rotation axis (nx, ny, nz)."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            object.__setattr__(self, name, float(getattr(self, name)))
        norm = math.sqrt(self.nx**2 + self.ny**2 + self.nz**2)
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise NotNormalizedError(f"direction norm {norm!r} differs from 1")


X_AXIS = Direction(1.0, 0.0, 0.0)
Y_AXIS = Direction(0.0, 1.0, 0.0)
Z_AXIS = Direction(0.0, 0.0, 1.0)


_I2 = np.eye(2, dtype=complex)
# the collective spin J_a = (sigma_a x 1 + 1 x sigma_a) / 2, a = x, y, z, of
# the two qubits, stacked; read-only
_J = np.stack([0.5 * (kron(pauli, _I2) + kron(_I2, pauli)) for pauli in (sigma_x, sigma_y, sigma_z)])
_J.flags.writeable = False


def _along(direction: Direction) -> np.ndarray:
    """J_n = n . J for a unit axis n."""
    return direction.nx * _J[0] + direction.ny * _J[1] + direction.nz * _J[2]


@dataclass(frozen=True, eq=False)
class QfiResult:
    """Direction-optimized QFI summary for one state.

    ``c`` is the real symmetric moment matrix, ``lambda_max`` its top
    eigenvalue, which is the QFI along the best axis ``opt_dir``, and
    ``mean_f`` the same per particle.
    """

    c: np.ndarray
    lambda_max: float
    mean_f: float
    opt_dir: Direction


def _spectral_weights(p: np.ndarray) -> np.ndarray:
    """(p_i - p_j)^2 / (p_i + p_j) with vanishing pairs excluded, for one
    spectrum p; the few pairs of a state go faster on Python floats than
    through masked array passes, with the same arithmetic."""
    values = p.tolist()
    return np.array([[(a - b) * (a - b) / (a + b) if i != j and a + b > EIGENVALUE_CUTOFF else 0.0
                      for j, b in enumerate(values)] for i, a in enumerate(values)])


def qfi_direction(rho: DensityMatrix, direction: Direction) -> float:
    """QFI of rho for the generator J_n along one fixed axis."""
    eig = rho.eig
    jn = _along(direction)
    a = eig.eigenvectors.conj().T @ jn @ eig.eigenvectors
    weights = _spectral_weights(eig.eigenvalues)
    return float(2.0 * (weights * np.abs(a) ** 2).sum())


def qfi_pure(psi, direction: Direction) -> float:
    """Pure-state QFI, four times the variance of J_n."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != 4:
        raise BadDimensionError(f"state vector must have 4 entries, got {psi.shape[0]}")
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:  # NaN fails too
        raise NotNormalizedError("state vector must be normalized within 1e-10")
    jpsi = _along(direction) @ psi
    mean = np.vdot(psi, jpsi).real
    mean_sq = np.vdot(jpsi, jpsi).real
    return float(4.0 * (mean_sq - mean**2))


def c_matrix(rho: DensityMatrix) -> np.ndarray:
    """Real symmetric 3x3 matrix C with n . C n = qfi_direction(rho, n).

    C_kl sums (p_i - p_j)^2 / (p_i + p_j) times the symmetrized product
    of J_k and J_l matrix elements in the eigenbasis of rho.  The
    imaginary residue of that sum must stay below 1e-10; it is asserted
    and discarded.
    """
    basis = rho.eig.eigenvectors
    elements = basis.conj().T @ _J @ basis  # (3, 4, 4)
    half = np.einsum("ab,kab,lba->kl", _spectral_weights(rho.eig.eigenvalues), elements, elements)
    c = half + half.T
    residue = np.abs(c.imag).max()
    if residue > IMAG_RESIDUE_TOL:
        raise OutOfRangeError(f"moment matrix has imaginary residue {residue:.3e}")
    return np.ascontiguousarray(c.real)


# the four axes a block-diagonal C can have, the table of point._block_axis
_BLOCK_AXES = np.array(point._BLOCK_AXES)


def block_axes(c_xx, c_yy, c_yz) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue, clipped at 0, and optimal axis of each block-diagonal
    moment matrix, C_yx = C_zx = 0 and C_yy = C_zz with finite entries,
    given by its entries C_xx, C_yy and C_yz as arrays of shape (N,).

    This is the rule of ``top_axes`` in closed form, with no eigensolve;
    ``point._block_axis`` applies it to one point of Python floats.
    The eigenvalues are C_xx with axis x, hi = C_yy + |C_yz| with
    (0, 1, sign C_yz)/sqrt(2) and lo = C_yy - |C_yz| with
    (0, 1, -sign C_yz)/sqrt(2); top = max(C_xx, hi), and with
    tie = 1e-10 max(1, |top|) the axis is
      x                             if C_xx >= top - tie, else
      (0, 1, 0)                     if C_yz = 0 (e_y and e_z tie), else
      (0, 1, -sign C_yz)/sqrt(2)    if lo >= top - tie (lo comes first), else
      (0, 1, sign C_yz)/sqrt(2),
    with the bits that ``np.linalg.eigh`` and the rule give.
    """
    size = np.abs(c_yz)
    top = np.maximum(c_xx, c_yy + size)
    floor = top - DIRECTION_TIE_TOL * np.maximum(1.0, np.abs(top))
    # row 3 of _BLOCK_AXES has nz > 0: the hi axis for C_yz > 0, the lo one for C_yz < 0
    row = 2 + ((c_yy - size >= floor) != (c_yz > 0.0))
    row[c_yz == 0.0] = 1
    row[c_xx >= floor] = 0
    return np.where(top > 0.0, top, 0.0), _BLOCK_AXES[row]


def top_axes(c: np.ndarray) -> tuple[float, list]:
    """Top eigenvalue, clipped at 0, and optimal axis of one 3x3 moment
    matrix, as a float and a list of three floats, from one
    ``np.linalg.eigh``, which reads the lower triangle.

    The eigenvalues within tie = 1e-10 max(1, |top|) of the top one tie.
    Among their eigenvectors the axis is the one of largest |nx|, then of
    largest |ny|, then the first in ascending eigenvalue order, with its
    first component of modulus above 1e-12 made positive.  No eigenvalue
    ties when they are NaN; the first eigenvector is taken.
    ``block_axes`` takes this rule in closed form.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(c)
    values = eigenvalues.tolist()
    vectors = eigenvectors.T.tolist()
    top = values[-1]
    floor = top - DIRECTION_TIE_TOL * max(1.0, abs(top))
    tied = [vector for value, vector in zip(values, vectors) if value >= floor] or vectors[:1]
    axis = max(tied, key=lambda vector: (abs(vector[0]), abs(vector[1])))
    lead = next((x for x in axis if abs(x) > 1e-12), axis[0])
    # C is positive semidefinite up to eigensolver noise
    return top if top > 0.0 else 0.0, [-x for x in axis] if lead < 0.0 else axis


def optimal_direction(c) -> Direction:
    """Top eigenvector of the moment matrix as a Direction, with the
    tie-break and sign of ``top_axes``."""
    c = np.asarray(c, dtype=float)
    if c.shape != (3, 3):
        raise BadDimensionError(f"moment matrix must be 3x3, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise OutOfRangeError(f"moment matrix has non-finite entries: {c.tolist()}")
    defect = float(np.abs(c - c.T).max())
    if defect > 1e-10:
        raise NotSymmetricError(f"moment matrix deviates from symmetric by {defect:.3e}")
    return Direction(*top_axes(c)[1])


def mean_qfi_max(rho: DensityMatrix) -> QfiResult:
    """Maximize the QFI over rotation axes and report it per particle."""
    c = c_matrix(rho)
    lam, axis = top_axes(c)
    return QfiResult(
        c=c,
        lambda_max=lam,
        mean_f=lam / N_PARTICLES,
        opt_dir=Direction(*axis),
    )


def rotate(rho: DensityMatrix, direction: Direction, phi: float) -> DensityMatrix:
    """Apply exp(i phi J_n) to the state."""
    jn = _along(direction)
    eigenvalues, eigenvectors = np.linalg.eigh(jn)
    u = (eigenvectors * np.exp(1j * phi * eigenvalues)) @ eigenvectors.conj().T
    return DensityMatrix(u @ rho.mat @ u.conj().T)
