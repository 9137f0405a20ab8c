"""Two-qubit master equation with dephasing and a particle-reset mechanism.

The generator combines a sigma_z sigma_z coupling Hamiltonian, local
dephasing at rate gamma, and replacement of either particle by a fresh
one in the state |+> at rate r.  The steady state is produced by three
independent routes (closed-form matrix, superoperator kernel, RK4
integration) so they can cross-check each other.
"""

import math

import numpy as np

from . import point
from .errors import (
    BadDimensionError,
    DegenerateLimitError,
    DegenerateSteadyStateError,
    NoConvergenceError,
)
# ModelParams and the closed-form terms live in the numpy-free point module
from .point import (  # noqa: F401
    _ALL_RATES_ZERO,
    STEADY_STATE_METHODS,
    ModelParams,
    _closed_form_terms,
)
from .qlinalg import (
    HermitianEig,
    hermitian_eig,
    kron,
    partial_trace,
    sigma_x,
    sigma_y,
    sigma_z,
)

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
PLUS.flags.writeable = False
_PLUS_PROJECTOR = np.outer(PLUS, PLUS.conj())
_PLUS_PROJECTOR.flags.writeable = False

_I2 = np.eye(2, dtype=complex)
_Z1 = kron(sigma_z, _I2)
_Z2 = kron(_I2, sigma_z)
_ZZ = kron(sigma_z, sigma_z)
_EYE4 = np.eye(4, dtype=complex)
_EYE16 = np.eye(16, dtype=complex)
# Parameter-free pieces of the superoperator: [ZZ, .] and the two
# dephasing terms Z_i . Z_i - 1, scaled by g and gamma / 2 per call.
_COMMUTATOR_ZZ = np.kron(_EYE4, _ZZ) - np.kron(_ZZ.T, _EYE4)
_DEPHASING = tuple(np.kron(z.T, z) - _EYE16 for z in (_Z1, _Z2))


def _reset_piece(qubit: int) -> np.ndarray:
    """gain_q - 1 for resets of qubit q, from the Kraus operators |+><b|
    acting on it; read-only."""
    gain = np.zeros((16, 16), dtype=complex)
    for bra in _I2:
        k_small = np.outer(PLUS, bra)  # |+><b|
        k_full = kron(k_small, _I2) if qubit == 1 else kron(_I2, k_small)
        gain = gain + np.kron(k_full.conj(), k_full)
    piece = gain - _EYE16
    piece.flags.writeable = False
    return piece


# The two reset pieces, scaled by r per call.
_RESET = (_reset_piece(1), _reset_piece(2))

RK4_BLOCK = 1_000  # steps of the first round; each later round doubles them
RK4_ROUND_CAP = 20  # 1000 (2^20 - 1), about 1.05e9, RK4 steps in all
# The convergence test is ||L rho||_max < RK4_RESIDUAL_SCALE ||L||_1, with
# ||L||_1 the largest column sum of |L|.  The step scales with the rates,
# so the whole iteration does, and so does the residual's floor, which is
# rounding: a state rounded to u = 2^-53 leaves about u ||L||_1, and the
# rounding of the one-step polynomial and of the block products raises the
# level a converged run settles at.  Run for 40 rounds on 1536 log-uniform
# points of [1e-3, 1e2]^3, that level has a median of 9e-17 ||L||_1 and a
# largest value of 1.6e-15 ||L||_1 (9e-16 and 4.1e-15 with complex blocks
# in the matrix basis).  The scale sits about 190 times above the largest;
# a smaller one buys accuracy with rounds (3e-14 needs up to 19 of the 20
# on 4027 points of that cube, 3e-13 up to 18).
RK4_RESIDUAL_SCALE = 3e-13


class DensityMatrix:
    """Validated two-qubit state with its eigendecomposition.

    Any shape other than 4x4 raises ``BadDimensionError``.  The state is
    then eigendecomposed once and checked in the order finite and
    Hermitian within 1e-10 (by ``hermitian_eig``), unit trace within
    1e-10, smallest eigenvalue above ``point.PSD_TOL`` = -1e-10; the first
    failure raises.
    The stored matrix is read-only.
    """

    TRACE_TOL = 1e-10

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (4, 4):
            raise BadDimensionError(f"expected a 4x4 two-qubit state, got shape {mat.shape}")
        eig = hermitian_eig(mat)
        trace = mat.trace().item()
        if abs(trace - 1.0) > self.TRACE_TOL:
            raise ValueError(f"density matrix trace {trace:.12g} differs from 1")
        point._check_smallest(eig.eigenvalues[0].item())
        mat = mat.copy()
        mat.flags.writeable = False
        self._mat = mat
        self._eig = eig

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def eig(self) -> HermitianEig:
        return self._eig


def _check_psd(smallest) -> None:
    """The ``DensityMatrix`` positivity check on the smallest eigenvalue of
    each state, given as one number or an array of any shape, against
    ``point.PSD_TOL``; the first failing state raises."""
    bad = smallest < point.PSD_TOL
    if np.count_nonzero(bad):  # half the cost of bad.any() on a numpy scalar
        point._check_smallest(np.ravel(smallest)[np.ravel(bad).argmax()])


def hamiltonian(p: ModelParams) -> np.ndarray:
    """H = g sigma_z x sigma_z = g diag(1, -1, -1, 1)."""
    return p.g * _ZZ


def liouvillian_apply(p: ModelParams, rho) -> np.ndarray:
    """Right-hand side of the master equation, drho/dt.

    Unitary part -i[H, rho], dephasing (gamma/2) sum_i (Z_i rho Z_i - rho)
    and reset r sum_i (|+><+|_i kron tr_i rho - rho).  Linear in rho;
    the result is traceless and Hermitian for Hermitian input.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise BadDimensionError(f"expected a 4x4 operator, got shape {rho.shape}")
    h = hamiltonian(p)
    out = -1j * (h @ rho - rho @ h)
    for z in (_Z1, _Z2):
        out = out + 0.5 * p.gamma * (z @ rho @ z - rho)
    out = out + p.r * (kron(_PLUS_PROJECTOR, partial_trace(rho, 1)) - rho)
    out = out + p.r * (kron(partial_trace(rho, 2), _PLUS_PROJECTOR) - rho)
    return out


def vectorize(mat) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(mat, dtype=complex).reshape(-1, order="F")


def unvectorize(v) -> np.ndarray:
    """Inverse of ``vectorize``."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    dim = math.isqrt(v.size)
    if dim * dim != v.size:
        raise BadDimensionError(f"cannot reshape a length-{v.size} vector into a square matrix")
    return v.reshape((dim, dim), order="F")


def liouvillian_superoperator(p: ModelParams) -> np.ndarray:
    """16x16 matrix L with L @ vectorize(rho) = vectorize(liouvillian_apply(p, rho)).

    Column stacking maps rho -> X rho Y to kron(Y.T, X).  L is g, gamma
    and r times fixed pieces, built once at import.  The reset channel
    enters through its Kraus operators |+><b| acting on the reset qubit,
    which keeps this construction independent of the partial-trace route
    used by ``liouvillian_apply``.
    """
    sup = -1j * (p.g * _COMMUTATOR_ZZ)
    for dephasing in _DEPHASING:
        sup = sup + 0.5 * p.gamma * dephasing
    for reset in _RESET:
        sup = sup + p.r * reset
    return sup


# B, the 16x16 matrix of columns vec(P_ab), P_ab = sigma_a x sigma_b / 2 for
# a, b in (1, x, y, z): an orthonormal basis of Hermitian 4x4 matrices, so B
# is unitary.  A Hermitian rho is B x with x real, and a map that takes
# Hermitian matrices to Hermitian ones is real in this basis: the
# coherence-vector form of Alicki and Lendi, Quantum Dynamical Semigroups
# and Applications (Lecture Notes in Physics 286, 1987).  Column stacking
# puts entry (row, col) of a 4x4 matrix at 4 col + row, so
# B[(j, l, i, k), (a, b)] = P_ab[2 i + k, 2 j + l] = sigma_a[i, j] sigma_b[k, l] / 2.
_PAULIS = np.array([_I2, sigma_x, sigma_y, sigma_z])
_PAULI_BASIS = (np.einsum("aij,bkl->jlikab", _PAULIS, _PAULIS) / 2.0).reshape(16, 16)
_PAULI_BASIS.flags.writeable = False


def _real_piece(piece: np.ndarray) -> np.ndarray:
    """B^dagger piece B, the real matrix of a Hermiticity-preserving piece in
    the basis P_ab; read-only.  An imaginary part above 1e-15 raises."""
    full = _PAULI_BASIS.conj().T @ piece @ _PAULI_BASIS
    residue = np.abs(full.imag).max()
    if residue > 1e-15:
        raise ArithmeticError(f"superoperator piece has an imaginary part of {residue:.1e} "
                              "in the Pauli basis")
    real = np.ascontiguousarray(full.real)
    real.flags.writeable = False
    return real


# The pieces of liouvillian_superoperator in the basis P_ab, the unitary
# one with its factor -i: -i [ZZ, .], the dephasing and the reset pieces.
_REAL_UNITARY = _real_piece(-1j * _COMMUTATOR_ZZ)
_REAL_DEPHASING = tuple(_real_piece(piece) for piece in _DEPHASING)
_REAL_RESET = tuple(_real_piece(piece) for piece in _RESET)
_REAL_EYE16 = np.eye(16)
_REAL_EYE16.flags.writeable = False


def _scaled(r, gamma, g) -> tuple:
    """Valid rates divided by the largest of them, which keeps every power
    in the closed-form entries finite; r = gamma = g = 0 raises.  Scalar
    rates come back as numpy scalars, arrays as arrays."""
    scale = np.maximum(np.maximum(r, gamma), g)
    if np.count_nonzero(scale == 0.0):  # non-negative rates, so all three are 0
        raise DegenerateLimitError(_ALL_RATES_ZERO)
    return r / scale, gamma / scale, g / scale


def closed_form_figures(r, gamma, g) -> tuple[np.ndarray, np.ndarray]:
    """Moment matrices C, shape (N, 3, 3), and the negativities, shape (N,),
    of the closed-form steady states at valid rates that broadcast to shape
    (N,): arrays of N points, with a fixed rate given as one number.

    Equal, up to rounding, to ``c_matrix`` and ``negativity`` of
    ``closed_form_steady_state``, without building or eigensolving the states.
    C (Hyllus, Guehne and Smerzi, arXiv:0912.4349) is block-diagonal:
    C_xy = C_xz = 0 and C_yy = C_zz.  The entries and the negativity are
    ratios of polynomials in the rates, derived symbolically from the
    closed-form state; every polynomial has non-negative coefficients, so
    nothing cancels near pure states.  The concurrence of these states is
    twice the negativity.

    The rates enter divided by the largest of them.  That keeps every power
    finite, and rates scaled by a power of two give bit-equal results.
    At r = 0 the continuity limit I/4 has C = 0.  Where gamma = g = 0, or g
    is too small to square against r, the state is |++> and C is
    diag(0, 2, 2).  The ``DensityMatrix`` positivity check runs on the
    analytic spectrum; unit trace and Hermiticity hold by construction.
    ``point.closed_form_gap`` takes the same terms, through the shared
    ``point._closed_form_terms``, at one point of Python floats.
    """
    r, gamma, g = _scaled(r, gamma, g)
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 and |++> rows are replaced below
        c_xx, yy, yz, kp, negativity, smallest = _closed_form_terms(
            r, gamma, g, np.sqrt, np.minimum)
        c_yy = yy / kp
        c_yz = yz / kp
    pure = kp == 0.0
    c_yy = np.where(pure, 2.0, c_yy)
    c_yz = np.where(pure, 0.0, c_yz)
    negativity = np.where(negativity > 0.0, negativity, 0.0)
    # one select over the four figures, shape (4, N), which unpacks into rows
    zero_reset = r == 0.0
    c_xx, c_yy, c_yz, negativity = np.where(zero_reset, 0.0, (c_xx, c_yy, c_yz, negativity))
    _check_psd(np.where(zero_reset, 0.25, smallest))  # I/4 at r = 0
    c = np.zeros(np.shape(r) + (3, 3))
    c[..., 0, 0] = c_xx
    c[..., 1, 1] = c[..., 2, 2] = c_yy
    c[..., 1, 2] = c[..., 2, 1] = c_yz
    return c, negativity


def closed_form_steady_state(p: ModelParams) -> DensityMatrix:
    """Steady state from the closed-form matrix elements.

    All diagonal entries are 1/4; with s = r + gamma/2 and
    D = 2 g^2 + s (r + gamma), the anti-diagonal entries are
    r^2 s / (4 (r + gamma) D) and the remaining off-diagonal entries are
    r (s - i g) / (4 D) or the conjugate.  At r = 0 the continuity limit
    I/4 is returned; the kernel is degenerate there, see ``steady_state``.
    """
    r, gamma, g = (float(rate) for rate in _scaled(p.r, p.gamma, p.g))
    if r == 0.0:
        return DensityMatrix(_EYE4 / 4.0)
    shifted = r + 0.5 * gamma
    denom = 2.0 * g * g + shifted * (r + gamma)
    anti = r * r * shifted / (4.0 * (r + gamma) * denom)
    # r (s - i g) / (4 D) in real arithmetic, with the rounding and the
    # signed zeros of the complex expression
    edge = complex(r * shifted / (4.0 * denom), r * (0.0 - g) / (4.0 * denom))
    conj = edge.conjugate()
    return DensityMatrix(np.array([[0.25, edge, edge, anti],
                                   [conj, 0.25, anti, conj],
                                   [conj, anti, 0.25, conj],
                                   [anti, edge, edge, 0.25]]))


_TRACE_ROW = vectorize(_EYE4)  # the trace functional, border row of the nullspace solve
_TRACE_ROW.flags.writeable = False


def _nullspace_steady_state(p: ModelParams) -> np.ndarray:
    # tr L(rho) = 0, so the rows of the four diagonal entries sum to zero
    # and row 0 is redundant: the trace functional takes its place, and
    # L rho = 0, tr rho = 1 becomes one square solve (bordered as in
    # QuTiP's steadystate, Johansson, Nation and Nori, arXiv:1110.0573)
    bordered = liouvillian_superoperator(p)
    bordered[0] = _TRACE_ROW
    try:
        rho = unvectorize(np.linalg.solve(bordered, _EYE16[0]))
    except np.linalg.LinAlgError as err:
        raise DegenerateSteadyStateError(
            "Liouvillian kernel is not one-dimensional (L with its first row replaced "
            "by the trace is singular); the steady state is not unique") from err
    return 0.5 * (rho + rho.conj().T)


def _integrate_steady_state(p: ModelParams) -> np.ndarray:
    if p.r == 0.0:
        raise DegenerateSteadyStateError(
            "integration needs r > 0; at r = 0 the steady state is not unique")
    # L in the basis P_ab, summed in the order of liouvillian_superoperator
    real = p.g * _REAL_UNITARY
    for dephasing in _REAL_DEPHASING:
        real = real + 0.5 * p.gamma * dephasing
    for reset in _REAL_RESET:
        real = real + p.r * reset
    # the step shrinks with the fastest rate and grows as it falls, so that
    # h L, and the rounding of the RK4 polynomial of it, do not depend on
    # the scale of the rates
    h = 0.01 / max(p.r, p.gamma, 4.0 * p.g)
    a = h * real
    a2 = a @ a
    one_step = _REAL_EYE16 + a + a2 / 2.0 + (a @ a2) / 6.0 + (a2 @ a2) / 24.0
    # RK4 on a linear equation is exactly this degree-4 polynomial, so a
    # block of RK4_BLOCK steps is one matrix power (the products of
    # np.linalg.matrix_power, in its order); squaring the block after each
    # round doubles the steps of the next one.  The blocks are real and the
    # state is B x with x real, so it stays Hermitian with no correction;
    # the convergence check runs on the complex L at the round boundaries.
    block, power, steps = None, one_step, RK4_BLOCK
    while steps:
        steps, bit = divmod(steps, 2)
        if bit:
            block = power if block is None else block @ power
        if steps:
            power = power @ power
    sup = liouvillian_superoperator(p)
    tol = RK4_RESIDUAL_SCALE * np.abs(sup).sum(axis=0).max()
    coherence = _REAL_EYE16[0] / 2.0  # I/4 = P_11 / 2
    for _ in range(RK4_ROUND_CAP):
        coherence = block @ coherence
        state = _PAULI_BASIS @ coherence
        if np.abs(sup @ state).max() < tol:
            rho = unvectorize(state)
            return rho / np.trace(rho).real
        block = block @ block
    raise NoConvergenceError(
        f"residual still above {RK4_RESIDUAL_SCALE:.0e} ||L||_1 = {tol:.3e} after "
        f"{RK4_ROUND_CAP} rounds ({RK4_BLOCK * (2**RK4_ROUND_CAP - 1)} RK4 steps)")


def steady_state(p: ModelParams, method: str = "closed_form") -> DensityMatrix:
    """Steady state of the master equation by the requested route.

    closed_form
        Closed-form matrix elements.
    nullspace
        Kernel of the superoperator from one linear solve, with the
        first row of L replaced by the trace; trusted for every r > 0.
        At r = 0 the kernel is not one-dimensional and the solve raises
        DegenerateSteadyStateError.
    integrate
        Fixed-step RK4 from I/4, with the step 0.01 / max(r, gamma, 4 g),
        in rounds of 1000, 2000, 4000, ... steps (one power of a real
        16x16 matrix each, L in the Pauli basis), until
        ||drho/dt||_max < 3e-13 ||L||_1,
        with ||L||_1 the largest column sum of |L|; NoConvergenceError
        after 20 rounds.  The state is Hermitian by construction.  Trusted
        on [1e-3, 1e2]^3 in (r, gamma, g): within 9.1e-13 of the nullspace
        state on 2560 seeded points of that cube, stiffness
        max(r, gamma, 4 g) / r up to 3.4e5 among them.
    """
    if method == "closed_form":
        return closed_form_steady_state(p)
    if method == "nullspace":
        return DensityMatrix(_nullspace_steady_state(p))
    if method == "integrate":
        return DensityMatrix(_integrate_steady_state(p))
    raise ValueError(f"unknown method {method!r}; choose from {STEADY_STATE_METHODS}")
