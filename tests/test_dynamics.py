import numpy as np
import pytest

from resetqfi import dynamics
from resetqfi import (
    BadDimensionError,
    DegenerateLimitError,
    DegenerateSteadyStateError,
    DensityMatrix,
    ModelParams,
    NoConvergenceError,
    NotHermitianError,
    NotNormalizedError,
    UnsupportedResetStateError,
    closed_form_steady_state,
    hamiltonian,
    hermiticity_defect,
    liouvillian_apply,
    liouvillian_superoperator,
    steady_state,
    unvectorize,
    vectorize,
)

PLUS_PLUS = np.full((4, 4), 0.25, dtype=complex)


def random_hermitian(rng, dim=4):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (z + z.conj().T)


class TestModelParams:
    def test_defaults_to_plus_reset(self):
        p = ModelParams(r=1.0, gamma=0.5, g=2.5)
        assert np.allclose(p.reset_state, [1 / np.sqrt(2)] * 2)
        assert p.resets_to_plus()

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            ModelParams(r=-0.1, gamma=0.5, g=2.5)

    def test_rejects_unnormalized_reset(self):
        with pytest.raises(NotNormalizedError):
            ModelParams(r=1.0, gamma=0.5, g=2.5, reset_state=[1.0, 1.0])

    def test_plus_detection_ignores_global_phase(self):
        chi = np.exp(0.3j) * np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert ModelParams(r=1.0, gamma=0.5, g=2.5, reset_state=chi).resets_to_plus()
        assert not ModelParams(r=1.0, gamma=0.5, g=2.5, reset_state=[1.0, 0.0]).resets_to_plus()


class TestDensityMatrix:
    def test_accepts_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert rho.dim == 4
        assert abs(rho.mat.trace() - 1.0) == 0.0

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.5

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.1
        with pytest.raises(NotHermitianError):
            DensityMatrix(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.6, 0.6, -0.1, -0.1]))

    def test_eigendecomposition_is_cached(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]))
        assert rho.eig is rho.eig
        assert np.allclose(rho.eig.eigenvalues, [0.1, 0.2, 0.3, 0.4])


class TestHamiltonian:
    def test_diagonal_form(self):
        h = hamiltonian(ModelParams(r=1.0, gamma=0.5, g=2.5))
        assert np.array_equal(h, np.diag([2.5, -2.5, -2.5, 2.5]).astype(complex))

    def test_vanishes_without_coupling(self):
        assert np.abs(hamiltonian(ModelParams(r=1.0, gamma=0.5, g=0.0))).max() == 0.0


class TestLiouvillianApply:
    def test_rejects_wrong_shape(self):
        p = ModelParams(r=1.0, gamma=0.5, g=2.5)
        with pytest.raises(BadDimensionError):
            liouvillian_apply(p, np.eye(2))

    def test_mixed_state_is_fixed_without_reset(self):
        p = ModelParams(r=0.0, gamma=0.7, g=1.3)
        out = liouvillian_apply(p, np.eye(4) / 4)
        assert np.abs(out).max() <= 1e-15

    def test_pure_dephasing_rates(self):
        # off-diagonal entries decay at gamma times the number of differing
        # qubits between the two basis labels
        p = ModelParams(r=0.0, gamma=1.0, g=0.0)
        out = liouvillian_apply(p, PLUS_PLUS)
        bits = [(j >> 1 & 1, j & 1) for j in range(4)]
        for j in range(4):
            for k in range(4):
                differing = sum(bj != bk for bj, bk in zip(bits[j], bits[k]))
                expected = -p.gamma * differing * 0.25
                assert abs(out[j, k] - expected) <= 1e-14
        assert abs(out[0, 1] + p.gamma / 4.0) <= 1e-14

    def test_closed_form_is_a_fixed_point(self):
        p = ModelParams(r=1.0, gamma=0.5, g=2.5)
        rho = closed_form_steady_state(p)
        assert np.abs(liouvillian_apply(p, rho.mat)).max() <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(21)
        p = ModelParams(r=0.8, gamma=0.3, g=1.7)
        for _ in range(10):
            m1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a, b = rng.normal(size=2)
            combined = liouvillian_apply(p, a * m1 + b * m2)
            split = a * liouvillian_apply(p, m1) + b * liouvillian_apply(p, m2)
            assert np.abs(combined - split).max() <= 1e-11

    def test_annihilates_trace(self):
        rng = np.random.default_rng(22)
        p = ModelParams(r=2.0, gamma=1.1, g=0.4)
        for _ in range(10):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert abs(np.trace(liouvillian_apply(p, m))) <= 1e-12

    def test_preserves_hermiticity(self):
        rng = np.random.default_rng(23)
        p = ModelParams(r=2.0, gamma=1.1, g=0.4)
        for _ in range(10):
            out = liouvillian_apply(p, random_hermitian(rng))
            assert hermiticity_defect(out) <= 1e-12


class TestVectorization:
    def test_column_stacking_order(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(vectorize(m), np.array([1.0, 3.0, 2.0, 4.0], dtype=complex))

    def test_round_trip(self):
        rng = np.random.default_rng(24)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(unvectorize(vectorize(m)), m)

    def test_rejects_non_square_length(self):
        with pytest.raises(BadDimensionError):
            unvectorize(np.zeros(5))


class TestSuperoperator:
    def test_matches_direct_application(self):
        rng = np.random.default_rng(25)
        p = ModelParams(r=1.4, gamma=0.6, g=2.2)
        sup = liouvillian_superoperator(p)
        for _ in range(50):
            rho = random_hermitian(rng)
            via_sup = unvectorize(sup @ vectorize(rho))
            assert np.abs(via_sup - liouvillian_apply(p, rho)).max() <= 1e-11

    def test_zero_generator(self):
        sup = liouvillian_superoperator(ModelParams(r=0.0, gamma=0.0, g=0.0))
        assert np.abs(sup).max() == 0.0

    def test_identity_is_left_null_vector(self):
        # trace preservation in superoperator form
        for p in (ModelParams(r=1.0, gamma=0.5, g=2.5),
                  ModelParams(r=14.0, gamma=0.5, g=2.5),
                  ModelParams(r=0.2, gamma=3.0, g=0.1)):
            sup = liouvillian_superoperator(p)
            left = vectorize(np.eye(4)).conj() @ sup
            assert np.abs(left).max() <= 1e-12

    def test_nondiagonal_reset_state(self):
        rng = np.random.default_rng(26)
        chi = np.array([np.cos(0.3), np.exp(0.4j) * np.sin(0.3)])
        p = ModelParams(r=0.9, gamma=0.2, g=1.1, reset_state=chi)
        sup = liouvillian_superoperator(p)
        rho = random_hermitian(rng)
        via_sup = unvectorize(sup @ vectorize(rho))
        assert np.abs(via_sup - liouvillian_apply(p, rho)).max() <= 1e-11

    @pytest.mark.parametrize("r, gamma, g, chi", [
        (0.0, 0.0, 0.0, None),
        (14.0, 0.5, 2.5, None),
        (1e-3, 7.0, 0.0, None),
        (0.3, 0.0, 1e4, [1.0, 0.0]),
        (0.9, 0.2, 1.1, [np.cos(0.3), np.exp(0.4j) * np.sin(0.3)]),
        (2.0, 1e-6, 3.3, [0.6, 0.8j]),
    ])
    def test_equals_kron_construction_bit_for_bit(self, r, gamma, g, chi):
        """The precomputed pieces give exactly the full per-call kron build."""
        p = ModelParams(r=r, gamma=gamma, g=g,
                        **({} if chi is None else {"reset_state": chi}))
        want = kron_superoperator(p)
        got = liouvillian_superoperator(p)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_alternating_reset_states_bit_for_bit(self):
        # a cache keyed on the wrong thing would hand one state's reset
        # pieces to the next
        states = [None, [1.0, 0.0], [np.cos(0.3), np.exp(0.4j) * np.sin(0.3)], None]
        for chi, (r, gamma, g) in zip(states, [(1.4, 0.6, 2.2), (0.7, 0.1, 3.0),
                                              (2.5, 1.2, 0.4), (0.2, 3.0, 0.1)]):
            p = ModelParams(r=r, gamma=gamma, g=g,
                            **({} if chi is None else {"reset_state": chi}))
            assert liouvillian_superoperator(p).tobytes() == kron_superoperator(p).tobytes()

    def test_writing_into_result_leaves_next_call_unchanged(self):
        p = ModelParams(r=1.4, gamma=0.6, g=2.2, reset_state=[0.6, 0.8j])
        first = liouvillian_superoperator(p)
        first[...] = 99.0
        assert liouvillian_superoperator(p).tobytes() == kron_superoperator(p).tobytes()

    def test_cached_reset_terms_are_read_only(self):
        p = ModelParams(r=1.0, gamma=0.5, g=2.5)
        terms = dynamics._reset_terms(p.reset_state.tobytes())
        assert len(terms) == 2
        for term in terms:
            assert not term.flags.writeable
            with pytest.raises(ValueError):
                term[0, 0] = 1.0


def kron_superoperator(p):
    """The superoperator built term by term from kron products, per call."""
    i2, z = np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)
    eye4, eye16 = np.eye(4, dtype=complex), np.eye(16, dtype=complex)
    h = hamiltonian(p)
    want = -1j * (np.kron(eye4, h) - np.kron(h.T, eye4))
    for z_i in (np.kron(z, i2), np.kron(i2, z)):
        want = want + 0.5 * p.gamma * (np.kron(z_i.T, z_i) - eye16)
    for qubit in (1, 2):
        gain = np.zeros((16, 16), dtype=complex)
        for b in range(2):
            k_small = np.outer(p.reset_state, np.eye(2, dtype=complex)[b])
            k_full = np.kron(k_small, i2) if qubit == 1 else np.kron(i2, k_small)
            gain = gain + np.kron(k_full.conj(), k_full)
        want = want + p.r * (gain - eye16)
    return want


def matrix_block_rk4(p):
    """RK4 integration that hermitizes the 4x4 matrix at every block
    boundary; returns the normalized state and the number of blocks run."""
    sup = liouvillian_superoperator(p)
    h = 0.01 / max(p.r, p.gamma, 4.0 * p.g, 1.0)
    a = h * sup
    a2 = a @ a
    one_step = np.eye(16, dtype=complex) + a + a2 / 2.0 + (a @ a2) / 6.0 + (a2 @ a2) / 24.0
    block = np.linalg.matrix_power(one_step, dynamics.RK4_BLOCK)
    state = vectorize(np.eye(4, dtype=complex) / 4.0)
    for blocks in range(1, dynamics.RK4_STEP_CAP // dynamics.RK4_BLOCK + 1):
        state = block @ state
        rho = unvectorize(state)
        rho = 0.5 * (rho + rho.conj().T)
        state = vectorize(rho)
        if np.abs(sup @ state).max() < dynamics.RK4_RESIDUAL_TOL:
            return rho / np.trace(rho).real, blocks
    return None, blocks


class TestClosedForm:
    def test_no_reset_gives_maximally_mixed(self):
        rho = closed_form_steady_state(ModelParams(r=0.0, gamma=0.5, g=2.5))
        assert np.array_equal(rho.mat, np.eye(4, dtype=complex) / 4)

    def test_reference_point_entries(self):
        rho = closed_form_steady_state(ModelParams(r=1.0, gamma=0.5, g=2.5)).mat
        assert np.allclose(np.diag(rho), 0.25, atol=1e-15)
        assert abs(rho[0, 3] - 1.25 / 86.25) <= 1e-12
        assert abs(rho[0, 1] - (1.25 - 2.5j) / 57.5) <= 1e-12
        assert abs(rho[1, 0] - (1.25 + 2.5j) / 57.5) <= 1e-12
        assert abs(rho[1, 2] - rho[0, 3]) <= 1e-15

    def test_rejects_other_reset_states(self):
        p = ModelParams(r=1.0, gamma=0.5, g=2.5, reset_state=[1.0, 0.0])
        with pytest.raises(UnsupportedResetStateError):
            closed_form_steady_state(p)

    def test_rejects_all_rates_zero(self):
        with pytest.raises(DegenerateLimitError):
            closed_form_steady_state(ModelParams(r=0.0, gamma=0.0, g=0.0))

    def test_fixed_point_on_grid(self, grid):
        for p in grid:
            rho = closed_form_steady_state(p)
            assert np.abs(liouvillian_apply(p, rho.mat)).max() <= 1e-10

    def test_huge_rates_equal_the_scaled_state(self):
        # 2 g^2 and r^2 overflow unless the rates are divided by their largest
        huge = steady_state(ModelParams(r=1e160, gamma=3e159, g=2e160)).mat
        assert np.array_equal(huge, steady_state(ModelParams(r=1.0, gamma=0.3, g=2.0)).mat)


class TestSteadyState:
    def test_nullspace_matches_closed_form(self):
        for p in (ModelParams(r=1.0, gamma=0.5, g=2.5),
                  ModelParams(r=0.3, gamma=2.0, g=0.7)):
            diff = steady_state(p, "nullspace").mat - steady_state(p, "closed_form").mat
            assert np.abs(diff).max() <= 1e-8

    def test_integrate_matches_closed_form(self):
        p = ModelParams(r=14.0, gamma=0.5, g=2.5)
        diff = steady_state(p, "integrate").mat - steady_state(p, "closed_form").mat
        assert np.abs(diff).max() <= 1e-8

    @pytest.mark.parametrize("r, gamma, g, chi, min_blocks", [
        (14.0, 0.5, 2.5, None, 1),
        (1.0, 0.01, 0.05, None, 1),
        (0.3, 2.0, 0.7, None, 1),
        (2.0, 0.4, 1.3, [1.0, 0.0], 1),
        (0.9, 0.2, 1.1, [np.cos(0.3), np.exp(0.4j) * np.sin(0.3)], 1),
        (0.01, 0.005, 0.02, None, 101),
    ])
    def test_integrate_equals_matrix_hermitization_bit_for_bit(self, r, gamma, g, chi,
                                                               min_blocks):
        """Hermitizing the vectorized state gives exactly the matrix round trip."""
        p = ModelParams(r=r, gamma=gamma, g=g,
                        **({} if chi is None else {"reset_state": chi}))
        want, blocks = matrix_block_rk4(p)
        assert blocks >= min_blocks
        assert steady_state(p, "integrate").mat.tobytes() == DensityMatrix(want).mat.tobytes()

    def test_integrate_no_convergence_message(self):
        p = ModelParams(r=0.01, gamma=0.5, g=1e3)
        with pytest.raises(NoConvergenceError,
                           match=r"^residual still above 1e-12 after 10000000 RK4 steps$"):
            steady_state(p, "integrate")

    def test_nullspace_degenerate_without_reset(self):
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(ModelParams(r=0.0, gamma=0.5, g=2.5), "nullspace")

    def test_integrate_degenerate_without_reset(self):
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(ModelParams(r=0.0, gamma=0.5, g=2.5), "integrate")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            steady_state(ModelParams(r=1.0, gamma=0.5, g=2.5), "magic")

    def test_zero_state_reset_pins_both_qubits(self):
        # with |0> resets the product |00><00| is stationary for every rate
        p = ModelParams(r=2.0, gamma=0.4, g=1.3, reset_state=[1.0, 0.0])
        rho = steady_state(p, "nullspace")
        assert np.abs(liouvillian_apply(p, rho.mat)).max() <= 1e-10
        assert rho.mat[0, 0].real >= 0.999
