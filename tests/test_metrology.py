import numpy as np
import pytest

from resetqfi import (
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    BadDimensionError,
    DensityMatrix,
    Direction,
    ModelParams,
    NotNormalizedError,
    NotSymmetricError,
    OutOfRangeError,
    c_matrix,
    closed_form_steady_state,
    evaluate_point,
    mean_qfi_max,
    optimal_direction,
    qfi_direction,
    qfi_pure,
    rotate,
    steady_state,
)
from resetqfi.dynamics import closed_form_figures
from resetqfi import metrology, point
from resetqfi.metrology import block_axes, top_axes

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1.0 / np.sqrt(2.0)
PLUS_PLUS = np.full(4, 0.5, dtype=complex)

POINT_A = ModelParams(r=14.0, gamma=0.5, g=2.5)
POINT_B = ModelParams(r=1.0, gamma=0.01, g=0.05)


def pure_density(psi):
    return DensityMatrix(np.outer(psi, psi.conj()))


def random_pure(rng, dim=4):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def unit(v):
    v = np.asarray(v, dtype=float)
    return Direction(*(v / np.linalg.norm(v)))


def vector(d):
    return np.array([d.nx, d.ny, d.nz])


def random_direction(rng):
    return unit(rng.normal(size=3))


def reference(c):
    """Top eigenvalue and axis of one moment matrix by the per-matrix
    tie-break: largest |nx|, then |ny|, then the first."""
    eigenvalues, eigenvectors = np.linalg.eigh(c)
    tie = 1e-10 * max(1.0, abs(eigenvalues[-1]))
    candidates = [eigenvectors[:, k] for k in range(3)
                  if eigenvalues[k] >= eigenvalues[-1] - tie]
    best = max(candidates, key=lambda u: (abs(u[0]), abs(u[1])))
    lead = best[np.abs(best) > 1e-12][0]
    return max(0.0, float(eigenvalues[-1])), -best if lead < 0.0 else best


def hexes(values):
    return [float.hex(float(x)) for x in values]


class TestDirection:
    def test_rejects_non_unit(self):
        with pytest.raises(NotNormalizedError):
            Direction(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_components(self, value):
        with pytest.raises(NotNormalizedError):
            Direction(value, 0.0, 0.0)

    def test_axes(self):
        assert vector(X_AXIS).tolist() == [1.0, 0.0, 0.0]
        assert Y_AXIS.ny == 1.0
        assert Z_AXIS.nz == 1.0


class TestTwoQubitSpin:
    def test_two_particle_jz(self):
        assert np.allclose(metrology._J[2], np.diag([1.0, 0.0, 0.0, -1.0]))

    def test_su2_commutators(self):
        jx, jy, jz = metrology._J
        assert np.abs(jx @ jy - jy @ jx - 1j * jz).max() <= 1e-12

    def test_along_mixes_components(self):
        d = unit([1.0, 1.0, 0.0])
        expected = (metrology._J[0] + metrology._J[1]) / np.sqrt(2.0)
        assert np.abs(metrology._along(d) - expected).max() <= 1e-15

    def test_is_read_only(self):
        with pytest.raises(ValueError):
            metrology._J[0, 0, 0] = 0.0


class TestQfiDirection:
    def test_maximally_mixed_is_blind(self):
        rho = DensityMatrix(np.eye(4) / 4)
        for d in (X_AXIS, Y_AXIS, Z_AXIS):
            assert abs(qfi_direction(rho, d)) <= 1e-12

    def test_bell_state_reaches_heisenberg(self):
        assert abs(qfi_direction(pure_density(BELL), Z_AXIS) - 4.0) <= 1e-10

    def test_steady_state_value(self):
        rho = closed_form_steady_state(POINT_A)
        d = unit([0.0, 1.0, 1.0])
        assert abs(qfi_direction(rho, d) - 2.00452) <= 1e-2

    def test_dimension_mismatch(self):
        with pytest.raises(BadDimensionError):
            qfi_direction(DensityMatrix(np.eye(2) / 2), Z_AXIS)


class TestQfiPure:
    def test_product_plus_state(self):
        assert abs(qfi_pure(PLUS_PLUS, X_AXIS)) <= 1e-12
        assert abs(qfi_pure(PLUS_PLUS, Y_AXIS) - 2.0) <= 1e-12
        assert abs(qfi_pure(PLUS_PLUS, Z_AXIS) - 2.0) <= 1e-12

    def test_bell_state(self):
        assert abs(qfi_pure(BELL, Z_AXIS) - 4.0) <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            qfi_pure(np.ones(4), Z_AXIS)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, value):
        with pytest.raises(NotNormalizedError):
            qfi_pure(np.array([value, 0.0, 0.0, 0.0]), Z_AXIS)

    def test_dimension_mismatch(self):
        with pytest.raises(BadDimensionError, match="^state vector must have 4 entries, got 2$"):
            qfi_pure(np.array([1.0, 0.0]), Z_AXIS)

    def test_agrees_with_mixed_state_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            psi = random_pure(rng)
            d = random_direction(rng)
            dense = qfi_direction(pure_density(psi), d)
            assert abs(dense - qfi_pure(psi, d)) <= 1e-8


class TestCMatrix:
    def test_maximally_mixed_is_zero(self):
        assert np.abs(c_matrix(DensityMatrix(np.eye(4) / 4))).max() <= 1e-12

    def test_product_plus_state(self):
        c = c_matrix(pure_density(PLUS_PLUS))
        assert np.abs(c - np.diag([0.0, 2.0, 2.0])).max() <= 1e-12
        # diagonal doubles as four times the variance of each component
        for k, axis in enumerate((X_AXIS, Y_AXIS, Z_AXIS)):
            assert abs(c[k, k] - qfi_pure(PLUS_PLUS, axis)) <= 1e-12

    def test_quadratic_form_matches_directional_qfi(self):
        rng = np.random.default_rng(32)
        for params in (POINT_A, POINT_B):
            rho = closed_form_steady_state(params)
            c = c_matrix(rho)
            for _ in range(100):
                d = random_direction(rng)
                n = vector(d)
                assert abs(n @ c @ n - qfi_direction(rho, d)) <= 1e-9

    def test_steady_state_block_structure(self):
        for params in (POINT_A, ModelParams(r=0.7, gamma=1.9, g=0.3)):
            c = c_matrix(closed_form_steady_state(params))
            assert abs(c[0, 1]) <= 1e-9
            assert abs(c[0, 2]) <= 1e-9
            assert abs(c[1, 1] - c[2, 2]) <= 1e-9

    def test_non_hermitian_generator_leaves_imaginary_residue(self, monkeypatch):
        jx, jy, jz = metrology._J
        skewed = np.stack((jx, jy + 1j * jx, jz))
        monkeypatch.setattr(metrology, "_J", skewed)
        with pytest.raises(OutOfRangeError, match="^moment matrix has imaginary residue"):
            c_matrix(closed_form_steady_state(POINT_A))

    def test_convex_mixing_never_gains_qfi(self):
        rng = np.random.default_rng(33)
        rho1 = closed_form_steady_state(POINT_A)
        rho2 = closed_form_steady_state(ModelParams(r=2.0, gamma=1.0, g=0.5))
        for weight in (0.25, 0.5, 0.75):
            mixed = DensityMatrix(weight * rho1.mat + (1 - weight) * rho2.mat)
            for _ in range(10):
                d = random_direction(rng)
                bound = (weight * qfi_direction(rho1, d)
                         + (1 - weight) * qfi_direction(rho2, d))
                assert qfi_direction(mixed, d) <= bound + 1e-9


class TestOptimalDirection:
    def test_plain_dominant_axis(self):
        d = optimal_direction(np.diag([3.0, 1.0, 1.0]))
        assert (d.nx, d.ny, d.nz) == (1.0, 0.0, 0.0)

    def test_tie_prefers_x_then_y(self):
        d = optimal_direction(np.diag([2.0, 2.0, 1.0]))
        assert abs(d.nx) == 1.0
        d = optimal_direction(np.diag([1.0, 2.0, 2.0]))
        assert abs(d.ny) == 1.0

    def test_sign_convention(self):
        d = optimal_direction(np.diag([1.0, 5.0, 2.0]))
        assert d.ny == 1.0

    def test_small_reset_rate_prefers_x(self):
        c = c_matrix(closed_form_steady_state(ModelParams(r=1.8, gamma=0.5, g=2.5)))
        d = optimal_direction(c)
        assert abs(d.nx - 1.0) <= 1e-6
        assert abs(d.ny) <= 1e-6
        assert abs(d.nz) <= 1e-6

    def test_large_reset_rate_prefers_yz_diagonal(self):
        c = c_matrix(closed_form_steady_state(POINT_A))
        d = optimal_direction(c)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert abs(d.nx) <= 1e-6
        assert abs(d.ny - inv_sqrt2) <= 1e-6
        assert abs(d.nz - inv_sqrt2) <= 1e-6

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3, 3), (9,)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(BadDimensionError, match=r"^moment matrix must be 3x3, got shape"):
            optimal_direction(np.zeros(shape))

    def test_rejects_asymmetric(self):
        bad = np.diag([1.0, 2.0, 3.0])
        bad[0, 1] = 0.5
        with pytest.raises(NotSymmetricError):
            optimal_direction(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
    def test_rejects_non_finite_entries(self, value, entry):
        bad = np.diag([1.0, 2.0, 2.0])
        bad[entry] = bad[entry[::-1]] = value
        with pytest.raises(OutOfRangeError, match="non-finite"):
            optimal_direction(bad)

    def test_stack_matches_per_matrix_reference(self, eigh_calls):
        rng = np.random.default_rng(35)
        stack = [np.zeros((3, 3)), np.eye(3), np.diag([2.0, 2.0, 1.0]), np.diag([1.0, 2.0, 2.0]),
                 np.diag([1.0, 5.0, 2.0]), np.diag([3.0, 3.0, 3.0 + 1e-11])]
        stack += [c_matrix(closed_form_steady_state(ModelParams(r=r, gamma=0.5, g=2.5)))
                  for r in (0.0, 1.8, 2.3, 14.0)]
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            stack.append(m @ m.T)
        # ties of two and three eigenvalues, exact and within 5e-11, on the
        # axes and rotated, and C of route states with the top eigenvalue
        # tied exactly and within 5e-11
        rng = np.random.default_rng(17)
        for tied in ([2.0, 2.0, 1.0], [1.0, 2.0, 2.0], [3.0, 3.0, 3.0], [1.0, 2.0, 2.0 - 5e-11],
                     [2.0 - 5e-11, 2.0, 1.0], [2.0, 2.0 - 5e-11, 2.0 + 5e-11]):
            stack.append(np.diag(tied))
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            stack.append((q * tied) @ q.T)
        for rates in ((14.0, 0.5, 2.5), (1.8, 0.5, 2.5), (0.3, 2.0, 0.7), (1.0, 0.01, 0.05),
                      (0.01, 0.005, 0.02)):
            for method in ("nullspace", "integrate"):
                c = c_matrix(steady_state(ModelParams(*rates), method))
                stack.append(c)
                values, vectors = np.linalg.eigh(c)
                for shift in (0.0, 5e-11):
                    values[-2] = values[-1] - shift
                    stack.append((vectors * values) @ vectors.T)
        for c in stack:
            eigh_calls.clear()
            lambda_max, axis = top_axes(c)
            assert eigh_calls == [(3, 3)]
            ref_lam, ref_axis = reference(c)
            assert lambda_max.hex() == ref_lam.hex()
            assert hexes(axis) == hexes(ref_axis)


def block(c_xx, c_yy, c_yz):
    return np.array([[c_xx, 0.0, 0.0], [0.0, c_yy, c_yz], [0.0, c_yz, c_yy]])


def entries(*matrices):
    """C_xx, C_yy and C_yz of block-diagonal matrices, the arrays of shape
    (N,) that ``block_axes`` takes."""
    c = np.array(matrices)
    return c[:, 0, 0], c[:, 1, 1], c[:, 2, 1]


def stacked_reference(c):
    """``reference`` of each matrix of a stack of shape (N, 3, 3), in array
    passes: one stacked eigh, then the tie-break over the eigenvectors in
    ascending order."""
    eigenvalues, eigenvectors = np.linalg.eigh(c)
    top = eigenvalues[:, -1]
    floor = top - 1e-10 * np.maximum(1.0, np.abs(top))
    best = np.zeros((len(c), 3))
    found = np.zeros(len(c), dtype=bool)
    for k in range(3):
        u = eigenvectors[:, :, k]
        better = ~found | (np.abs(u[:, 0]) > np.abs(best[:, 0])) | (
            (np.abs(u[:, 0]) == np.abs(best[:, 0])) & (np.abs(u[:, 1]) > np.abs(best[:, 1])))
        take = (eigenvalues[:, k] >= floor) & better
        best = np.where(take[:, None], u, best)
        found |= take
    lead = best[np.arange(len(c)), (np.abs(best) > 1e-12).argmax(axis=1)]
    return np.where(top > 0.0, top, 0.0), np.where((lead < 0.0)[:, None], -best, best)


INV_SQRT2 = 1.0 / np.sqrt(2.0)
# C_xx = 1.5 - 0.75e-10 and 1.5 - 3e-10 lie half a tie and two ties below
# top = hi = 1.5
TIE = 1e-10 * 1.5


class TestTopAxesBlockDiagonal:
    """Block-diagonal moment matrices, C_yx = C_zx = 0 and C_yy = C_zz:
    ``block_axes`` takes their top axis from the entries in closed form,
    with the bits of the eigh path; ``top_axes`` takes eigh for them as for
    any matrix."""

    @pytest.mark.parametrize("c", [
        np.zeros((3, 3)), np.diag([0.0, 2.0, 2.0]), np.diag([1.0, 2.0, 2.0]),
        np.diag([2.0, 2.0, 2.0]),
        block(1.5, 1.0, 0.5), block(1.5 - 0.5 * TIE, 1.0, 0.5), block(1.5 - 2.0 * TIE, 1.0, 0.5),
        block(0.1, 1.0, 0.5), block(0.1, 1.0, -0.5), block(1.5, 1.0, -0.5),
        block(1.5 - 2.0 * TIE, 1.0, -0.5), block(0.1, 1e-7, -3e-16), block(0.1, 1e-7, 3e-16),
    ], ids=["zero", "yz_plane", "yz_over_x", "all_tie", "x_equals_hi", "x_half_a_tie_below",
            "x_two_ties_below", "hi", "hi_negative_c_yz", "x_equals_hi_negative_c_yz",
            "x_two_ties_below_negative_c_yz", "lo_ties_negative_c_yz", "lo_ties"])
    def test_matches_reference_bit_for_bit(self, c, eigh_calls):
        lambda_max, axes = block_axes(*entries(c, c))
        assert eigh_calls == []
        ref_lam, ref_axis = reference(c)
        for lam, axis in zip(lambda_max.tolist(), axes):
            assert lam.hex() == ref_lam.hex()
            assert hexes(axis) == hexes(ref_axis)
        # the rule at one point of Python floats
        lam, axis = point._block_axis(*(x.item() for x in entries(c)))
        assert lam.hex() == ref_lam.hex()
        assert hexes(axis) == hexes(ref_axis)
        lam, axis = top_axes(c)
        assert lam.hex() == ref_lam.hex()
        assert hexes(axis) == hexes(ref_axis)

    @pytest.mark.parametrize("c_yz", [1e-11, -1e-11, 3e-17, -3e-17, 1e-300])
    def test_yz_axes_tie_below_half_a_tie(self, c_yz, eigh_calls):
        # both yz axes are candidates, and the rule takes lo, the first in
        # ascending order; eigh agrees until C_yz falls below about 1e-16
        # C_yy, where it drops C_yz and returns e_y, so the rule is the
        # reference here
        lambda_max, axes = block_axes(*entries(block(0.5, 1.0, c_yz)))
        assert eigh_calls == []
        assert lambda_max[0] == 1.0 + abs(c_yz)
        lo_axis = (-0.0, INV_SQRT2, -INV_SQRT2) if c_yz > 0.0 else (0.0, INV_SQRT2, INV_SQRT2)
        assert hexes(axes[0]) == hexes(lo_axis)
        lam, axis = point._block_axis(0.5, 1.0, c_yz)
        assert (lam.hex(), hexes(axis)) == (lambda_max[0].item().hex(), hexes(axes[0]))
        # top_axes takes what eigh gives
        _, axis = top_axes(block(0.5, 1.0, c_yz))
        assert hexes(axis) == hexes(lo_axis if abs(c_yz) > 1e-16 else (0.0, 1.0, 0.0))

    def test_lo_ties_at_exactly_one_tie_below_top(self):
        # lo = 0.5 - C_yz against top - tie = 0.5 + C_yz - 1e-10
        assert 0.5 - 5e-11 == (0.5 + 5e-11) - 1e-10
        _, axes = block_axes(*entries(block(0.1, 0.5, 5e-11), block(0.1, 0.5, 5.001e-11)))
        assert hexes(axes[0]) == hexes((-0.0, INV_SQRT2, -INV_SQRT2))
        assert hexes(axes[1]) == hexes((0.0, INV_SQRT2, INV_SQRT2))
        for c_yz, axis in zip((5e-11, 5.001e-11), axes):
            assert hexes(point._block_axis(0.1, 0.5, c_yz)[1]) == hexes(axis)

    def test_float_rule_takes_each_block_axis(self):
        # x, then e_y and e_z tied at C_yz = 0, then hi for C_yz < 0 and > 0
        taken = [point._block_axis(*c)[1] for c in
                 [(1.0, 0.5, 0.5), (0.5, 1.0, 0.0), (0.1, 1.0, -0.5), (0.1, 1.0, 0.5)]]
        assert taken == list(point._BLOCK_AXES)
        assert hexes(np.array(point._BLOCK_AXES).ravel()) == hexes(metrology._BLOCK_AXES.ravel())

    def test_closed_form_figures_match_the_eigh_path(self, eigh_calls):
        rng = np.random.default_rng(14)
        r, gamma, g = 10.0 ** rng.uniform(-4.0, 4.0, size=(3, 200_000))
        c_xx, c_yy, c_yz, _ = closed_form_figures(r, gamma, g)
        lambda_max, axes = block_axes(c_xx, c_yy, c_yz)
        assert eigh_calls == []
        c = np.zeros((len(c_xx), 3, 3))
        c[:, 0, 0] = c_xx
        c[:, 1, 1] = c[:, 2, 2] = c_yy
        c[:, 1, 2] = c[:, 2, 1] = c_yz
        eigh_lambda, eigh_axes = stacked_reference(c)
        assert (lambda_max.view(np.int64) == eigh_lambda.view(np.int64)).all()
        assert (axes.view(np.int64) == eigh_axes.view(np.int64)).all()
        # the stacked oracle is the per-matrix rule
        for k in range(0, len(c), 997):
            lam, axis = top_axes(c[k])
            assert lam.hex() == eigh_lambda[k].hex()
            assert hexes(axis) == hexes(eigh_axes[k])
        # x, hi and lo all occur; (0, 1, 0) needs C_yz = 0, so g = 0
        assert {tuple(axis) for axis in axes[:, 1:].tolist()} == {
            (0.0, 0.0), (INV_SQRT2, INV_SQRT2), (INV_SQRT2, -INV_SQRT2)}

    @pytest.mark.parametrize("off", [
        ((1, 0), 1e-17), ((2, 0), -1e-300), ((2, 2), 1.0 + 2.0**-52), ((0, 0), np.nan),
    ], ids=["c_yx", "c_zx", "c_zz", "nan_c_xx"])
    def test_a_mixed_stack_goes_to_eigh(self, off, eigh_calls):
        # a block matrix and one off the block form in a single entry each
        # take one eigh: top_axes does not test a matrix for the block form
        c = block(0.1, 1.0, 0.5)
        mixed = [c, c.copy()]
        mixed[1][off[0]] = off[1]
        results = [top_axes(matrix) for matrix in mixed]
        assert eigh_calls == [(3, 3), (3, 3)]
        for matrix, (lam, axis) in zip(mixed, results):
            ref_lam, ref_axis = reference(matrix)
            assert lam.hex() == ref_lam.hex()
            assert hexes(axis) == hexes(ref_axis)

    def test_reads_the_lower_triangle(self, eigh_calls):
        c = block(0.1, 1.0, 0.5)
        c[0, 1] = c[0, 2] = 7.0
        c[1, 2] = -3.0
        lambda_max, axis = top_axes(c)
        assert eigh_calls == [(3, 3)]
        assert lambda_max == 1.5
        assert hexes(axis) == hexes((0.0, INV_SQRT2, INV_SQRT2))

    def test_top_axes_callers_reach_no_block_axes(self, monkeypatch):
        # only closed-form rows take block_axes; route rows, mean_qfi_max and
        # optimal_direction take top_axes, block-diagonal C included
        def unreachable(*args):
            raise AssertionError("top_axes and its callers call no block_axes")

        monkeypatch.setattr(metrology, "block_axes", unreachable)
        for method in ("nullspace", "integrate"):
            row = evaluate_point(POINT_A, method)
            _, ref_axis = reference(c_matrix(steady_state(POINT_A, method)))
            assert hexes((row.opt_nx, row.opt_ny, row.opt_nz)) == hexes(ref_axis)
        rho = closed_form_steady_state(POINT_A)
        assert hexes(vector(mean_qfi_max(rho).opt_dir)) == hexes(reference(c_matrix(rho))[1])
        for c in (np.diag([1.0, 2.0, 2.0]), block(0.1, 1.0, 0.5)):
            assert hexes(vector(optimal_direction(c))) == hexes(reference(c)[1])


class TestMeanQfiMax:
    def test_reference_values(self):
        for params, expected in ((POINT_A, 1.00226), (POINT_B, 1.02124)):
            result = mean_qfi_max(closed_form_steady_state(params))
            assert abs(result.mean_f - expected) <= 5e-3

    def test_no_reset_loses_all_sensitivity(self):
        result = mean_qfi_max(closed_form_steady_state(ModelParams(r=0.0, gamma=0.5, g=2.5)))
        assert abs(result.mean_f) <= 1e-9

    def test_fields_are_consistent(self):
        result = mean_qfi_max(closed_form_steady_state(POINT_A))
        assert abs(result.mean_f - result.lambda_max / 2.0) <= 1e-15
        eigenvalues = np.linalg.eigvalsh(result.c)
        assert abs(result.lambda_max - eigenvalues[-1]) <= 1e-12
        n = vector(result.opt_dir)
        assert abs(n @ result.c @ n - result.lambda_max) <= 1e-9


class TestRotate:
    def test_zero_angle_is_identity(self):
        rho = closed_form_steady_state(POINT_A)
        rotated = rotate(rho, Y_AXIS, 0.0)
        assert np.abs(rotated.mat - rho.mat).max() <= 1e-12

    def test_preserves_spectrum(self):
        rng = np.random.default_rng(34)
        rho = closed_form_steady_state(POINT_B)
        for _ in range(10):
            phi = rng.uniform(-np.pi, np.pi)
            rotated = rotate(rho, random_direction(rng), phi)
            assert np.abs(np.linalg.eigvalsh(rotated.mat)
                          - np.linalg.eigvalsh(rho.mat)).max() <= 1e-10

    def test_qfi_invariant_under_generated_rotation(self):
        # rotating about n commutes with J_n, so the QFI along n is unchanged
        rho = closed_form_steady_state(POINT_A)
        d = unit([0.0, 1.0, 1.0])
        before = qfi_direction(rho, d)
        for phi in (0.3, 1.2, 2.9):
            after = qfi_direction(rotate(rho, d, phi), d)
            assert abs(after - before) <= 1e-9

    def test_bloch_rotation_moves_plus_to_minus(self):
        # exp(i pi J_z) = -(Z x Z), which takes |++> to -|-->
        rotated = rotate(pure_density(PLUS_PLUS), Z_AXIS, np.pi)
        minus_minus = np.array([1.0, -1.0, -1.0, 1.0]) / 2.0
        overlap = minus_minus @ rotated.mat @ minus_minus
        assert abs(overlap - 1.0) <= 1e-12
