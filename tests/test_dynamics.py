import dataclasses

import numpy as np
import pytest

from resetqfi import dynamics
from resetqfi import (
    BadDimensionError,
    CSV_FIELDS,
    DegenerateLimitError,
    DegenerateSteadyStateError,
    DensityMatrix,
    ModelParams,
    NoConvergenceError,
    NotHermitianError,
    OutOfRangeError,
    PLUS,
    closed_form_steady_state,
    evaluate_point,
    liouvillian_apply,
    liouvillian_superoperator,
    steady_state,
    unvectorize,
    vectorize,
)

PLUS_PLUS = np.full((4, 4), 0.25, dtype=complex)
DEGENERATE_KERNEL = ("^Liouvillian kernel is not one-dimensional \\(L with its first row "
                     "replaced by the trace is singular\\); the steady state is not unique$")


def random_hermitian(rng, dim=4):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (z + z.conj().T)


class TestModelParams:
    def test_fields_are_the_three_rates(self):
        # the reset state is |+>, fixed by the model
        assert [field.name for field in dataclasses.fields(ModelParams)] == ["r", "gamma", "g"]

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            ModelParams(r=-0.1, gamma=0.5, g=2.5)

    @pytest.mark.parametrize("value", [-0.1, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["r", "gamma", "g"])
    def test_each_rate_must_be_finite_and_non_negative(self, name, value):
        rates = {"r": 1.0, "gamma": 0.5, "g": 2.5, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative, got "):
            ModelParams(**rates)


class TestDensityMatrix:
    def test_accepts_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert rho.mat.shape == (4, 4)
        assert abs(rho.mat.trace() - 1.0) == 0.0

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.5

    @pytest.mark.parametrize("shape", [(2, 2), (8, 8), (4, 2), (16,), (1, 4, 4)])
    def test_rejects_all_but_two_qubit_shapes(self, shape):
        with pytest.raises(BadDimensionError, match=r"^expected a 4x4 two-qubit state, got shape"):
            DensityMatrix(np.zeros(shape))

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

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_type_and_message(self, entry):
        bad = np.eye(4, dtype=complex) / 4
        bad[2, 2] = entry
        with pytest.raises(OutOfRangeError, match=r"^matrix has non-finite entries: \[\["):
            DensityMatrix(bad)

    def test_non_hermitian_type_and_message(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.1
        with pytest.raises(NotHermitianError, match=(
                r"^matrix deviates from Hermitian by 1\.000e-01 \(tol 1\.0e-10\)$")):
            DensityMatrix(bad)

    def test_wrong_trace_type_and_message(self):
        with pytest.raises(ValueError,
                           match=r"^density matrix trace 2\+0j differs from 1$") as raised:
            DensityMatrix(np.eye(4) / 2)
        assert type(raised.value) is ValueError

    def test_negative_eigenvalue_type_and_message(self):
        with pytest.raises(ValueError, match=(
                r"^density matrix has negative eigenvalue -1\.000e-01$")) as raised:
            DensityMatrix(np.diag([0.6, 0.6, -0.1, -0.1]))
        assert type(raised.value) is ValueError

    @pytest.mark.parametrize("mat, error, message", [
        # shape before finiteness: a 2x2 NaN matrix is the wrong shape
        (np.full((2, 2), np.nan), BadDimensionError, "^expected a 4x4 two-qubit state"),
        # finiteness before Hermiticity and trace
        (np.triu(np.full((4, 4), np.inf)), OutOfRangeError, "^matrix has non-finite entries"),
        # Hermiticity before trace: trace 2 and not Hermitian
        (np.eye(4) / 2 + np.triu(np.ones((4, 4)), 1), NotHermitianError,
         r"^matrix deviates from Hermitian by 1\.000e\+00"),
        # trace before positivity: trace 2 with eigenvalue -0.2
        (np.diag([1.2, 1.2, -0.2, -0.2]), ValueError,
         r"^density matrix trace 2\+0j differs from 1$"),
    ], ids=["shape_first", "finite_before_hermitian", "hermitian_before_trace",
            "trace_before_positivity"])
    def test_first_failing_check_raises(self, mat, error, message):
        with pytest.raises(error, match=message) as raised:
            DensityMatrix(mat)
        assert type(raised.value) is error

    def test_eigendecomposition_is_cached(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]))
        assert rho.eig is rho.eig
        assert np.allclose(rho.eig.eigenvalues, [0.1, 0.2, 0.3, 0.4])


class TestHamiltonian:
    """At r = gamma = 0 the generator is -i g [ZZ, rho], ZZ = diag(1, -1, -1, 1)."""

    def test_diagonal_form(self):
        rng = np.random.default_rng(24)
        h = np.diag([2.5, -2.5, -2.5, 2.5]).astype(complex)
        for _ in range(5):
            rho = random_hermitian(rng)
            out = liouvillian_apply(ModelParams(r=0.0, gamma=0.0, g=2.5), rho)
            assert np.array_equal(out, -1j * (h @ rho - rho @ h))

    def test_vanishes_without_coupling(self):
        rho = random_hermitian(np.random.default_rng(25))
        assert np.abs(liouvillian_apply(ModelParams(r=0.0, gamma=0.0, g=0.0), rho)).max() == 0.0


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
            assert np.abs(out - out.conj().T).max() <= 1e-12


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

    @pytest.mark.parametrize("r, gamma, g", [
        (0.0, 0.0, 0.0),
        (14.0, 0.5, 2.5),
        (1e-3, 7.0, 0.0),
        (0.3, 0.0, 1e4),
        (0.9, 0.2, 1.1),
        (2.0, 1e-6, 3.3),
    ])
    def test_equals_kron_construction_bit_for_bit(self, r, gamma, g):
        """The precomputed pieces give exactly the full per-call kron build."""
        p = ModelParams(r=r, gamma=gamma, g=g)
        want = kron_superoperator(p)
        got = liouvillian_superoperator(p)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_writing_into_result_leaves_next_call_unchanged(self):
        p = ModelParams(r=1.4, gamma=0.6, g=2.2)
        first = liouvillian_superoperator(p)
        first[...] = 99.0
        assert liouvillian_superoperator(p).tobytes() == kron_superoperator(p).tobytes()

    def test_cached_reset_terms_are_read_only(self):
        assert len(dynamics._RESET) == 2
        for piece in (*dynamics._RESET, dynamics._PLUS_PROJECTOR, dynamics._PAULI_BASIS,
                      dynamics._REAL_UNITARY, *dynamics._REAL_DEPHASING, *dynamics._REAL_RESET):
            assert not piece.flags.writeable
            with pytest.raises(ValueError):
                piece[0, 0] = 1.0

    def test_real_pieces_give_the_superoperator_in_the_pauli_basis(self):
        p = ModelParams(r=1.4, gamma=0.6, g=2.2)
        real = p.g * dynamics._REAL_UNITARY
        for piece in dynamics._REAL_DEPHASING:
            real = real + 0.5 * p.gamma * piece
        for piece in dynamics._REAL_RESET:
            real = real + p.r * piece
        basis = dynamics._PAULI_BASIS
        paulis = [np.array(m, dtype=complex)
                  for m in (np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]
        assert np.array_equal(basis, np.column_stack([
            vectorize(np.kron(a, b) / 2.0) for a in paulis for b in paulis]))
        assert np.abs(basis.conj().T @ basis - np.eye(16)).max() == 0.0
        assert np.abs(basis @ real @ basis.conj().T - liouvillian_superoperator(p)).max() <= 1e-14

    def test_real_piece_rejects_a_map_that_breaks_hermiticity(self):
        # [ZZ, .] takes Hermitian matrices to anti-Hermitian ones; -i [ZZ, .] is the piece
        with pytest.raises(ArithmeticError, match="imaginary part of 2.0e\\+00 in the Pauli basis"):
            dynamics._real_piece(dynamics._COMMUTATOR_ZZ)


def kron_superoperator(p):
    """The superoperator built term by term from kron products, per call."""
    i2, z = np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)
    eye4, eye16 = np.eye(4, dtype=complex), np.eye(16, dtype=complex)
    h = p.g * np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    want = -1j * (np.kron(eye4, h) - np.kron(h.T, eye4))
    for z_i in (np.kron(z, i2), np.kron(i2, z)):
        want = want + 0.5 * p.gamma * (np.kron(z_i.T, z_i) - eye16)
    for qubit in (1, 2):
        gain = np.zeros((16, 16), dtype=complex)
        for b in range(2):
            k_small = np.outer(PLUS, np.eye(2, dtype=complex)[b])
            k_full = np.kron(k_small, i2) if qubit == 1 else np.kron(i2, k_small)
            gain = gain + np.kron(k_full.conj(), k_full)
        want = want + p.r * (gain - eye16)
    return want


def matrix_block_rk4(p):
    """RK4 integration that hermitizes the 4x4 matrix at every round
    boundary, squaring the block after each round; returns the normalized
    state and the number of rounds run."""
    sup = liouvillian_superoperator(p)
    h = 0.01 / max(p.r, p.gamma, 4.0 * p.g)
    a = h * sup
    a2 = a @ a
    one_step = np.eye(16, dtype=complex) + a + a2 / 2.0 + (a @ a2) / 6.0 + (a2 @ a2) / 24.0
    block = np.linalg.matrix_power(one_step, dynamics.RK4_BLOCK)
    tol = dynamics.RK4_RESIDUAL_SCALE * np.abs(sup).sum(axis=0).max()
    state = vectorize(np.eye(4, dtype=complex) / 4.0)
    for rounds in range(1, dynamics.RK4_ROUND_CAP + 1):
        state = block @ state
        rho = unvectorize(state)
        rho = 0.5 * (rho + rho.conj().T)
        state = vectorize(rho)
        if np.abs(sup @ state).max() < tol:
            return rho / np.trace(rho).real, rounds
        block = block @ block
    return None, rounds


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


def matrix_power_rk4(p):
    """The integrate route with its first block from np.linalg.matrix_power,
    the rest step for step as the route takes it; the state, bit for bit,
    that the route gives."""
    real = p.g * dynamics._REAL_UNITARY
    for piece in dynamics._REAL_DEPHASING:
        real = real + 0.5 * p.gamma * piece
    for piece in dynamics._REAL_RESET:
        real = real + p.r * piece
    a = 0.01 / max(p.r, p.gamma, 4.0 * p.g) * real
    a2 = a @ a
    one_step = dynamics._REAL_EYE16 + a + a2 / 2.0 + (a @ a2) / 6.0 + (a2 @ a2) / 24.0
    block = np.linalg.matrix_power(one_step, dynamics.RK4_BLOCK)
    sup = liouvillian_superoperator(p)
    tol = dynamics.RK4_RESIDUAL_SCALE * np.abs(sup).sum(axis=0).max()
    coherence = dynamics._REAL_EYE16[0] / 2.0
    for _ in range(dynamics.RK4_ROUND_CAP):
        coherence = block @ coherence
        state = dynamics._PAULI_BASIS @ coherence
        if np.abs(sup @ state).max() < tol:
            rho = unvectorize(state)
            return rho / np.trace(rho).real
        block = block @ block
    raise AssertionError(f"no convergence at {p}")


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

    @pytest.mark.parametrize("r, gamma, g, min_rounds", [
        (14.0, 0.5, 2.5, 2),
        (1.0, 0.01, 0.05, 2),
        (0.3, 2.0, 0.7, 2),
        (2.0, 0.4, 1.3, 3),
        (0.9, 0.2, 1.1, 4),
        (0.01, 0.005, 0.02, 4),
        (0.2, 0.0, 4.0, 7),
    ])
    def test_integrate_hermitian_in_reference_rounds(self, monkeypatch, r, gamma, g, min_rounds):
        """Real Pauli-basis blocks give an exactly Hermitian state, in the
        rounds of the complex-basis reference and within 1e-12 of its state."""
        p = ModelParams(r=r, gamma=gamma, g=g)
        want, rounds = matrix_block_rk4(p)
        assert rounds >= min_rounds
        mat = steady_state(p, "integrate").mat
        assert np.array_equal(mat, mat.conj().T)
        assert np.abs(mat - want).max() <= 1e-12
        monkeypatch.setattr(dynamics, "RK4_ROUND_CAP", rounds)
        assert steady_state(p, "integrate").mat.tobytes() == mat.tobytes()
        monkeypatch.setattr(dynamics, "RK4_ROUND_CAP", rounds - 1)
        with pytest.raises(NoConvergenceError):
            steady_state(p, "integrate")

    def test_integrate_block_is_the_matrix_power(self):
        # the route squares its first block up by hand, in the order of
        # np.linalg.matrix_power, so its states keep their bits on every numpy
        rng = np.random.default_rng(27)
        for rates in np.exp(rng.uniform(np.log(1e-3), np.log(10.0), size=(32, 3))).tolist():
            p = ModelParams(*rates)
            assert steady_state(p, "integrate").mat.tobytes() == matrix_power_rk4(p).tobytes()

    def test_integrate_no_convergence_message(self):
        # |++> relaxes at r = 1e-6 while the step follows 4 g = 4: it takes
        # 22 rounds
        p = ModelParams(r=1e-6, gamma=0.0, g=1.0)
        with pytest.raises(NoConvergenceError,
                           match=r"^residual still above 3e-13 \|\|L\|\|_1 = 6\.000e-13 after "
                                 r"20 rounds \(1048575000 RK4 steps\)$"):
            steady_state(p, "integrate")

    @pytest.mark.parametrize("r, gamma, g", [(4.5e307, 0.5, 2.5), (8.9e307, 0.5, 2.5),
                                             (5e307, 1e305, 1e305), (1.7e308, 0.5, 2.5),
                                             (1.0, 0.0, 1.7e308)])
    def test_integrate_raises_where_the_norm_of_l_overflows(self, r, gamma, g):
        # the column sums of |L| overflow from r = 4.5e307 at gamma = 0.5,
        # g = 2.5, its entries only from r = 9e307; an infinite ||L||_1 made
        # the residual test pass after the first round, with a state of mean
        # QFI 0.99991 where it is 1, and an overflow warning as the only sign.
        # At g = 1.7e308 the unitary part of L holds -i inf, which is NaN
        p = ModelParams(r=r, gamma=gamma, g=g)
        with pytest.raises(NoConvergenceError,
                           match=r"^\|\|L\|\|_1, the largest column sum of \|L\|, overflows; "
                                 r"the RK4 residual test needs it finite$"):
            steady_state(p, "integrate")

    @pytest.mark.parametrize("r, gamma, g", [(9e307, 0.5, 2.5), (1.7e308, 0.5, 2.5),
                                             (1.0, 0.5, 9.5e307), (1.0, 1.7e308, 2.5)])
    def test_nullspace_raises_where_an_entry_of_l_overflows(self, r, gamma, g):
        # from r = 9e307 at gamma = 0.5, g = 2.5 the entries of L overflow,
        # the solve returned NaN and the state check raised OutOfRangeError,
        # a bad-input error, after an overflow warning; from g = 9e307 the
        # unitary part holds -i inf, which is NaN
        with pytest.raises(NoConvergenceError,
                           match=r"^an entry of L, the superoperator, overflows; "
                                 r"the bordered solve needs it finite$"):
            steady_state(ModelParams(r=r, gamma=gamma, g=g), "nullspace")

    @pytest.mark.parametrize("r, gamma, g", [(8.9e307, 0.5, 2.5), (1.0, 0.5, 8.9e307)])
    def test_nullspace_holds_below_the_overflow_of_l(self, r, gamma, g):
        p = ModelParams(r=r, gamma=gamma, g=g)
        diff = steady_state(p, "nullspace").mat - closed_form_steady_state(p).mat
        assert np.abs(diff).max() <= 1e-15

    def test_integrate_holds_below_the_overflow_of_the_norm_of_l(self):
        p = ModelParams(r=4.4e307, gamma=0.5, g=2.5)
        diff = steady_state(p, "integrate").mat - closed_form_steady_state(p).mat
        assert np.abs(diff).max() <= 1e-12

    def test_integrate_converges_at_a_stiff_point(self):
        # 14 rounds, 1.6e7 steps; a fixed absolute residual of 1e-12 did not
        # converge here within 1e7 steps
        p = ModelParams(r=0.01, gamma=0.5, g=1e3)
        assert matrix_block_rk4(p)[1] == 14
        diff = steady_state(p, "integrate").mat - steady_state(p, "nullspace").mat
        assert np.abs(diff).max() <= 2e-10

    def test_integrate_meets_nullspace_at_its_worst_stiff_point(self):
        # one of the 2560 seeded points of [1e-3, 1e2]^3 that perfbench's
        # defect count runs, stiffness max(r, gamma, 4 g) / r = 1.1e5, where
        # the rounding of complex blocks left the state 1.0e-10 from nullspace
        p = ModelParams(r=0.0019515502640270394, gamma=0.007630676483012499,
                        g=54.179966025815396)
        diff = steady_state(p, "integrate").mat - steady_state(p, "nullspace").mat
        assert np.abs(diff).max() <= 1e-12
        # fields r ... negativity print alike; the axis fields differ by rounding
        integrate, nullspace = (["%.9g" % evaluate_point(p, method).to_dict()[name]
                                 for name in CSV_FIELDS[:9]] for method in ("integrate", "nullspace"))
        assert integrate == nullspace

    @pytest.mark.parametrize("r, gamma, g", [(0.01, 0.005, 0.02), (1e-3, 1e-3, 1e-3)])
    def test_integrate_reaches_the_closed_form_at_slow_rates(self, r, gamma, g):
        # a residual test that does not scale with L stopped 2.0e-11 and
        # 3.3e-10 short of the closed form here; the route now lands within
        # 4e-15 of it
        p = ModelParams(r=r, gamma=gamma, g=g)
        diff = steady_state(p, "integrate").mat - closed_form_steady_state(p).mat
        assert np.abs(diff).max() <= 1e-13

    def test_integrate_scales_with_the_rates(self):
        # the step scales with the rates, so rates scaled by a power of two
        # give the same state, bit for bit (here down to gamma = 8.4e-8)
        p = ModelParams(r=0.37, gamma=0.011, g=0.81)
        for scale in (2.0**-17, 2.0**-8, 2.0**9):
            scaled = ModelParams(r=scale * p.r, gamma=scale * p.gamma, g=scale * p.g)
            assert (steady_state(scaled, "integrate").mat.tobytes()
                    == steady_state(p, "integrate").mat.tobytes())

    def test_nullspace_degenerate_without_reset(self):
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(ModelParams(r=0.0, gamma=0.5, g=2.5), "nullspace")

    @pytest.mark.parametrize("r", [1e-2, 1e-5, 1e-6, 1e-8, 1e-300])
    def test_nullspace_accurate_at_small_reset_rates(self, r):
        # the bordered L has a condition number growing as 1 / r, and the
        # solve stays at rounding level down to the smallest rates
        p = ModelParams(r=r, gamma=0.5, g=2.5)
        diff = steady_state(p, "nullspace").mat - closed_form_steady_state(p).mat
        assert np.abs(diff).max() <= 1e-14

    @pytest.mark.parametrize("r, gamma, g", [(0.0, 0.5, 2.5), (0.0, 0.5, 0.0),
                                             (0.0, 0.0, 2.5), (0.0, 0.0, 0.0)])
    def test_nullspace_raises_without_reset(self, r, gamma, g):
        p = ModelParams(r=r, gamma=gamma, g=g)
        with pytest.raises(DegenerateSteadyStateError, match=DEGENERATE_KERNEL):
            steady_state(p, "nullspace")

    @pytest.mark.parametrize("r, gamma, g", [
        (1.0, 0.5, 2.5), (0.1, 0.5, 2.5), (0.01, 0.005, 0.02), (14.0, 0.5, 2.5),
        (1.0, 0.01, 0.05), (0.3, 2.0, 0.7), (2.0, 0.4, 1.3), (5.0, 0.0, 0.0),
        (0.5, 3.0, 0.0), (0.2, 0.0, 4.0), (40.0, 10.0, 0.5), (3.0, 1e-4, 1e2),
    ])
    def test_nullspace_agrees_with_integrate(self, r, gamma, g):
        # the two numerical routes share only the superoperator
        p = ModelParams(r=r, gamma=gamma, g=g)
        diff = steady_state(p, "nullspace").mat - steady_state(p, "integrate").mat
        assert np.abs(diff).max() <= 1e-9

    @pytest.mark.parametrize("r", [1.0, 1e-6, 1e-300])
    def test_nullspace_pins_plus_plus_without_dephasing_or_coupling(self, r):
        # with gamma = g = 0 only resets act, and |++><++| is the exact
        # steady state for every reset rate
        p = ModelParams(r=r, gamma=0.0, g=0.0)
        assert np.abs(steady_state(p, "nullspace").mat - PLUS_PLUS).max() <= 1e-14

    def test_nullspace_eigensolves_only_the_state(self, eigh_calls):
        steady_state(ModelParams(r=14.0, gamma=0.5, g=2.5), "nullspace")
        assert eigh_calls == [(4, 4)]

    def test_integrate_degenerate_without_reset(self):
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(ModelParams(r=0.0, gamma=0.5, g=2.5), "integrate")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            steady_state(ModelParams(r=1.0, gamma=0.5, g=2.5), "magic")
