import warnings

import numpy as np
import pytest

from resetqfi import (
    BadDimensionError,
    DensityMatrix,
    NoConvergenceError,
    NotHermitianError,
    OutOfRangeError,
    hermitian_eig,
    hermiticity_defect,
    kron,
    partial_trace,
    partial_transpose,
    sigma_x,
    sigma_y,
    sigma_z,
    trace_norm,
)

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


def failing_solver(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


def random_hermitian(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (z + z.conj().T)


class TestHermitianEig:
    def test_identity(self):
        eig = hermitian_eig(np.eye(3))
        assert np.allclose(eig.eigenvalues, 1.0)
        assert np.allclose(eig.eigenvectors.conj().T @ eig.eigenvectors, np.eye(3))

    def test_pauli_z(self):
        eig = hermitian_eig(sigma_z)
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0])

    def test_analytic_2x2(self):
        eig = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eig.eigenvalues, [1.0, 3.0], atol=1e-12)
        assert np.allclose(np.abs(eig.eigenvectors), 1.0 / np.sqrt(2.0), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(BadDimensionError):
            hermitian_eig(np.zeros((2, 3)))

    def test_solver_failure_is_no_convergence(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", failing_solver)
        with pytest.raises(NoConvergenceError,
                           match="^Hermitian eigensolver failed: did not converge$"):
            hermitian_eig(BELL)

    def test_reconstruction_and_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = random_hermitian(rng, 4)
            eig = hermitian_eig(m)
            scale = max(1.0, np.abs(eig.eigenvalues).max())
            rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
            assert np.abs(rebuilt - m).max() <= 1e-9
            residual = m @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues
            assert np.abs(residual).max() <= 1e-10 * scale

    def test_orthonormality_and_order(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            eig = hermitian_eig(random_hermitian(rng, 5))
            gram = eig.eigenvectors.conj().T @ eig.eigenvectors
            assert np.abs(gram - np.eye(5)).max() <= 1e-10
            assert np.all(np.diff(eig.eigenvalues) >= -1e-14)

    def test_phases_match_reference_loop(self):
        def reference(m):
            # per-column phase fix: first component above 1e-12 made real positive
            eigenvalues, vectors = np.linalg.eigh(m)
            vectors = vectors.copy()
            for k in range(vectors.shape[1]):
                col = vectors[:, k]
                lead = col[np.abs(col) > 1e-12][0]
                col *= lead.conjugate() / abs(lead)
            return eigenvalues, vectors

        rng = np.random.default_rng(13)
        matrices = [random_hermitian(rng, 4) for _ in range(20)]
        # eigenvectors whose leading components vanish
        matrices += [np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), BELL,
                     np.kron(np.eye(2), random_hermitian(rng, 2))]
        for m in matrices:
            eig = hermitian_eig(m)
            ref_values, ref_vectors = reference(m)
            assert np.array_equal(eig.eigenvalues, ref_values)
            assert np.array_equal(eig.eigenvectors, ref_vectors)

    def test_phase_convention(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = random_hermitian(rng, 4)
            eig = hermitian_eig(m)
            again = hermitian_eig(m)
            assert np.array_equal(eig.eigenvectors, again.eigenvectors)
            for k in range(4):
                col = eig.eigenvectors[:, k]
                lead = col[np.abs(col) > 1e-12][0]
                assert abs(lead.imag) <= 1e-12
                assert lead.real > 0.0


class TestKron:
    def test_with_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_pair(self):
        assert np.array_equal(kron(sigma_z, sigma_z),
                              np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))

    def test_left_factor_is_particle_one(self):
        # |1><1| on particle 1 selects the lower-right block
        p1 = np.array([[0.0, 0.0], [0.0, 1.0]])
        full = kron(p1, sigma_x)
        expected = np.zeros((4, 4))
        expected[2, 3] = expected[3, 2] = 1.0
        assert np.array_equal(full, expected.astype(complex))

    def test_mixed_product(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[0, 5], [6, 7]], dtype=complex)
        out = kron(a, b)
        assert out.shape == (4, 4)
        assert out[0, 1] == 5.0  # a00 b01
        assert out[2, 3] == 4.0 * 5.0  # a11 b01
        assert out[3, 0] == 3.0 * 6.0  # a10 b10


class TestPartialTrace:
    def test_product_state(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = 0.5 * (np.eye(2) + sigma_x)
        assert np.abs(partial_trace(kron(a, b), 2) - a).max() <= 1e-15
        assert np.abs(partial_trace(kron(a, b), 1) - b).max() <= 1e-15

    def test_bell_state_is_locally_mixed(self):
        for qubit in (1, 2):
            assert np.abs(partial_trace(BELL, qubit) - np.eye(2) / 2).max() <= 1e-15

    def test_preserves_trace(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for qubit in (1, 2):
                assert abs(np.trace(partial_trace(m, qubit)) - np.trace(m)) <= 1e-12

    def test_rejects_wrong_shape(self):
        with pytest.raises(BadDimensionError):
            partial_trace(np.eye(3), 1)

    def test_rejects_bad_qubit(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), 3)


class TestPartialTranspose:
    def test_product_operator(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[5, 6], [7, 8]], dtype=complex)
        assert np.array_equal(partial_transpose(kron(a, b), 2), kron(a, b.T))
        assert np.array_equal(partial_transpose(kron(a, b), 1), kron(a.T, b))

    def test_bell_state_negative_eigenvalue(self):
        eigenvalues = np.linalg.eigvalsh(partial_transpose(BELL, 2))
        assert abs(eigenvalues.min() + 0.5) <= 1e-12

    def test_involution(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for qubit in (1, 2):
            assert np.array_equal(partial_transpose(partial_transpose(m, qubit), qubit), m)

    def test_preserves_hermiticity(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = 0.5 * (m + m.conj().T)
        assert hermiticity_defect(partial_transpose(m, 2)) <= 1e-14

    def test_rejects_wrong_shape(self):
        with pytest.raises(BadDimensionError):
            partial_transpose(np.eye(2), 1)

    @pytest.mark.parametrize("qubit", [0, 3])
    def test_rejects_bad_qubit(self, qubit):
        with pytest.raises(ValueError, match=f"^qubit must be 1 or 2, got {qubit}$"):
            partial_transpose(BELL, qubit)


class TestTraceNorm:
    def test_density_matrix_is_one(self):
        assert abs(trace_norm(BELL) - 1.0) <= 1e-12

    def test_traceless_diagonal(self):
        assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) <= 1e-12

    def test_bell_partial_transpose(self):
        assert abs(trace_norm(partial_transpose(BELL, 2)) - 2.0) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_solver_failure_is_no_convergence(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", failing_solver)
        with pytest.raises(NoConvergenceError,
                           match="^Hermitian eigensolver failed: did not converge$"):
            trace_norm(BELL)


@pytest.mark.parametrize("call", [
    hermitian_eig,
    hermiticity_defect,
    lambda m: partial_trace(m, 1),
    lambda m: partial_transpose(m, 2),
    trace_norm,
    DensityMatrix,
], ids=["hermitian_eig", "hermiticity_defect", "partial_trace", "partial_transpose",
        "trace_norm", "DensityMatrix"])
def test_rejects_stacks(call):
    # each per-state function takes one matrix; a stack of two states is rejected
    stack = np.stack([BELL, np.eye(4, dtype=complex) / 4])
    with pytest.raises(BadDimensionError):
        call(stack)


def _with_entries(entries):
    m = np.eye(4, dtype=complex) / 4
    for index, value in entries.items():
        m[index] = value
    return m


@pytest.mark.parametrize("call", [hermitian_eig, DensityMatrix, trace_norm],
                         ids=["hermitian_eig", "DensityMatrix", "trace_norm"])
@pytest.mark.parametrize("m", [
    np.diag([0.25, 0.25, 0.25, np.nan]),
    np.full((4, 4), np.nan),
    _with_entries({(0, 1): complex(0.0, np.nan), (1, 0): complex(0.0, np.nan)}),
    np.diag([np.inf, 0.0, 0.0, 0.0]),
    _with_entries({(0, 3): np.inf, (3, 0): np.inf}),
    _with_entries({(2, 2): -np.inf}),
], ids=["nan_eigenvalue", "all_nan", "nan_imaginary", "inf_diagonal", "inf_pair",
        "minus_inf"])
def test_rejects_non_finite_entries(call, m):
    # NaN fails every tolerance test quietly, and inf - inf warns; both are
    # rejected before the Hermiticity test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRangeError, match="^matrix has non-finite entries: "):
            call(m)
