import numpy as np
import pytest

from resetqfi import (
    BadDimensionError,
    DensityMatrix,
    ModelParams,
    closed_form_steady_state,
    concurrence,
    evaluate_point,
    kron,
    negativity,
    partial_transpose,
    steady_state,
)
from resetqfi.dynamics import closed_form_figures

POINT_A = ModelParams(r=14.0, gamma=0.5, g=2.5)
POINT_B = ModelParams(r=1.0, gamma=0.01, g=0.05)

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


def random_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, dim=4):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = z @ z.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


class TestConcurrence:
    def test_bell_state(self):
        assert abs(concurrence(DensityMatrix(BELL)) - 1.0) <= 1e-10

    def test_product_state_is_separable(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert concurrence(DensityMatrix(kron(plus, plus))) <= 1e-10

    def test_maximally_mixed(self):
        assert concurrence(DensityMatrix(np.eye(4) / 4)) == 0.0

    def test_steady_state_values(self):
        assert abs(concurrence(closed_form_steady_state(POINT_A)) - 0.0992486) <= 5e-4
        assert abs(concurrence(closed_form_steady_state(POINT_B)) - 0.0367627) <= 5e-4

    def test_rejects_single_qubit(self):
        with pytest.raises(BadDimensionError):
            concurrence(DensityMatrix(np.eye(2) / 2))

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(41)
        rho = closed_form_steady_state(POINT_A)
        base = concurrence(rho)
        for _ in range(20):
            u = kron(random_unitary(rng), random_unitary(rng))
            moved = DensityMatrix(u @ rho.mat @ u.conj().T)
            assert abs(concurrence(moved) - base) <= 1e-9

    def test_bounds_on_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            value = concurrence(random_density(rng))
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_accurate_near_pure_states(self):
        # the small mu are about 1e-6, so the small eigenvalues of rho rho~
        # are about 1e-12, not far above their rounding error.  The exact
        # concurrence is twice the analytic negativity, accurate to 1e-16 here.
        params = ModelParams(r=1.0, gamma=1e-6, g=5e-6)
        exact = 2.0 * closed_form_figures(*(np.array([x]) for x in (1.0, 1e-6, 5e-6)))[3][0]
        assert abs(concurrence(closed_form_steady_state(params)) - exact) <= 1e-16
        assert abs(concurrence(steady_state(params, "nullspace")) - exact) <= 2e-15
        assert abs(evaluate_point(params, "nullspace").concurrence - exact) <= 2e-15

    def test_negative_eigenvalue_that_validation_accepts_counts_as_zero(self):
        # DensityMatrix accepts eigenvalues down to -1e-10, and both
        # measures take every state it accepts
        rho = DensityMatrix(np.diag([-5e-11, 0.5, 0.5, 5e-11]))
        assert concurrence(rho) == 0.0
        assert negativity(rho) == pytest.approx(5e-11, rel=1e-6)


class TestNegativity:
    def test_bell_state(self):
        assert abs(negativity(DensityMatrix(BELL)) - 0.5) <= 1e-12

    def test_maximally_mixed(self):
        assert negativity(DensityMatrix(np.eye(4) / 4)) == 0.0

    def test_steady_state_values(self):
        assert abs(negativity(closed_form_steady_state(POINT_A)) - 0.0496243) <= 5e-4
        assert abs(negativity(closed_form_steady_state(POINT_B)) - 0.0183813) <= 5e-4

    def test_half_the_concurrence_on_steady_states(self):
        for params in (POINT_A, POINT_B):
            rho = closed_form_steady_state(params)
            assert abs(negativity(rho) - concurrence(rho) / 2.0) <= 5e-4

    def test_rejects_single_qubit(self):
        with pytest.raises(BadDimensionError):
            negativity(DensityMatrix(np.eye(2) / 2))

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(43)
        rho = closed_form_steady_state(POINT_B)
        base = negativity(rho)
        for _ in range(20):
            u = kron(random_unitary(rng), random_unitary(rng))
            moved = DensityMatrix(u @ rho.mat @ u.conj().T)
            assert abs(negativity(moved) - base) <= 1e-9

    def test_zero_iff_positive_partial_transpose(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            rho = random_density(rng)
            smallest = np.linalg.eigvalsh(partial_transpose(rho.mat)).min()
            value = negativity(rho)
            if smallest >= -1e-10:
                assert value <= 2e-10
            else:
                assert value > 0.0

    def test_separable_mixture_is_ppt(self):
        up = np.diag([1.0, 0.0]).astype(complex)
        down = np.diag([0.0, 1.0]).astype(complex)
        mix = 0.5 * kron(up, down) + 0.5 * kron(down, up)
        assert negativity(DensityMatrix(mix)) == 0.0
