"""The analytic moment matrix and negativity of the closed-form state.

``closed_form_figures`` replaces the eigen stages on the closed-form sweep
path.  These tests hold it to two independent oracles: the eigen pipeline
(``closed_form_steady_state``, ``c_matrix``, ``negativity``, state by
state) on a log-uniform grid, and a 40-digit mpmath spectral sum at a few
points, near-pure ones included.
"""

import numpy as np
import pytest

from resetqfi import (
    CSV_FIELDS,
    DegenerateLimitError,
    DensityMatrix,
    ModelParams,
    SweepSpec,
    c_matrix,
    closed_form_steady_state,
    emit,
    entanglement,
    evaluate_point,
    run_sweep,
    sweep,
)
from resetqfi.dynamics import closed_form_figures
from resetqfi.metrology import DIRECTION_TIE_TOL, collective_spin_ops

SPIN2 = collective_spin_ops(2)
FIGURES = CSV_FIELDS[3:]
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _figures(r, gamma, g):
    return closed_form_figures(np.array([float(r)]), np.array([float(gamma)]),
                               np.array([float(g)]))


# r = 0, gamma = g = 0, g too small to square against r, and huge rates
EDGE_RATES = ((0.0, 0.5, 2.5), (0.0, 0.0, 2.5), (3.0, 0.0, 0.0), (1.0, 0.0, 1e-170),
              (1e200, 3e199, 2e200))


def _bits(row):
    return tuple(float.hex(getattr(row, name)) for name in FIGURES)


@pytest.fixture(scope="module")
def log_uniform_rates():
    rng = np.random.default_rng(2016)
    return 10.0 ** rng.uniform(-6.0, 4.0, size=(3, 2500))


@pytest.fixture(scope="module")
def eigen_figures(log_uniform_rates):
    """C and negativity of each eigendecomposed closed-form state."""
    states = [closed_form_steady_state(ModelParams(*point)) for point in log_uniform_rates.T]
    return (np.array([c_matrix(rho, SPIN2) for rho in states]),
            np.array([entanglement.negativity(rho) for rho in states]))


class TestAgainstEigenPipeline:
    def test_moment_matrix(self, log_uniform_rates, eigen_figures):
        c, _ = closed_form_figures(*log_uniform_rates)
        want, _ = eigen_figures
        assert np.abs(c - want).max() <= 2e-14

    def test_structure(self, log_uniform_rates):
        c, _ = closed_form_figures(*log_uniform_rates)
        assert (c[:, 0, 1] == 0.0).all() and (c[:, 0, 2] == 0.0).all()
        assert (c[:, 1, 1] == c[:, 2, 2]).all()
        assert (c == c.swapaxes(1, 2)).all()
        assert (c[:, 1, 2] >= 0.0).all()

    def test_branches(self, log_uniform_rates, eigen_figures):
        c, _ = closed_form_figures(*log_uniform_rates)
        want, _ = eigen_figures
        for got, expected in zip(sweep._branches(c), sweep._branches(want)):
            assert np.abs(got - expected).max() <= 2e-14

    def test_negativity(self, log_uniform_rates, eigen_figures):
        _, got = closed_form_figures(*log_uniform_rates)
        _, want = eigen_figures
        assert np.abs(got - want).max() <= 1e-15
        assert (got > 0.0).any() and (got == 0.0).any()


def test_each_row_equals_its_point_alone(log_uniform_rates):
    """A stacked row is bit-equal to the same point as a one-element stack,
    so a sweep row does not depend on the chunk it is computed in."""
    rates = np.concatenate((log_uniform_rates, np.array(EDGE_RATES).T), axis=1)
    c, negativity = closed_form_figures(*rates)
    for k, point in enumerate(rates.T):
        c_k, negativity_k = _figures(*point)
        assert c_k.tobytes() == c[k:k + 1].tobytes(), point
        assert negativity_k.tobytes() == negativity[k:k + 1].tobytes(), point


def _mp_state(mp, r, gamma, g):
    r, gamma, g = (mp.mpf(x) for x in (r, gamma, g))
    shifted = r + gamma / 2
    denom = 2 * g**2 + shifted * (r + gamma)
    values = (mp.mpf(1) / 4, r**2 * shifted / (4 * (r + gamma) * denom),
              r * mp.mpc(shifted, -g) / (4 * denom), r * mp.mpc(shifted, g) / (4 * denom))
    layout = ((0, 2, 2, 1), (3, 0, 1, 3), (3, 1, 0, 3), (1, 2, 2, 0))
    return mp.matrix([[values[k] for k in row] for row in layout])


def _mp_reference(mp, r, gamma, g):
    """C, negativity and Wootters concurrence of the closed-form state, by
    spectral sums in mpmath."""
    rho = _mp_state(mp, r, gamma, g)
    eigenvalues, vectors = mp.eigh(rho)
    spin = [mp.matrix(op.tolist()) for op in (SPIN2.jx, SPIN2.jy, SPIN2.jz)]
    elements = [vectors.H * op * vectors for op in spin]
    c = mp.matrix(3, 3)
    for i in range(4):
        for j in range(4):
            total = eigenvalues[i] + eigenvalues[j]
            if total <= mp.mpf(10) ** -35:
                continue
            weight = (eigenvalues[i] - eigenvalues[j]) ** 2 / total
            for k in range(3):
                for m in range(3):
                    c[k, m] += 2 * weight * mp.re(elements[k][i, j] * elements[m][j, i])
    transposed = mp.matrix(4, 4)
    for row in range(4):
        for col in range(4):
            # swap the second qubit's indices
            transposed[row, col] = rho[row - row % 2 + col % 2, col - col % 2 + row % 2]
    negativity = (sum(abs(x) for x in mp.eigh(transposed, eigvals_only=True)) - 1) / 2
    yy = mp.matrix(np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]).tolist())
    conj = mp.matrix([[mp.conj(rho[i, j]) for j in range(4)] for i in range(4)])
    spun = mp.eig(rho * yy * conj * yy, left=False, right=False)
    mu = sorted((mp.sqrt(abs(mp.re(x))) for x in spun), reverse=True)
    concurrence = max(mp.mpf(0), mu[0] - mu[1] - mu[2] - mu[3])
    return c, negativity, concurrence


class TestAgainstMpmath:
    @pytest.mark.parametrize("rates", [
        (14.0, 0.5, 2.5),           # the paper's two reference points
        (1.0, 0.01, 0.05),
        (72.5, 1.2e-3, 3.7e-3),     # near pure: C_yy within 7e-5 of 2
        (1.0, 1e-6, 5e-6),
        (1e4, 1e-6, 3e-6),
        (0.3, 2.0, 7.0),
    ])
    def test_figures_at_40_digits(self, rates):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            c_ref, negativity_ref, concurrence_ref = _mp_reference(mp, *rates)
            c, negativity = _figures(*rates)
            assert max(abs(c[0][k, m] - c_ref[k, m]) for k in range(3) for m in range(3)) <= 4e-15
            assert abs(negativity[0] - negativity_ref) <= 1e-16
            assert abs(2.0 * negativity[0] - concurrence_ref) <= 2e-16
            # the rows report 2 * negativity as the concurrence
            row = evaluate_point(ModelParams(*rates))
            assert row.concurrence == 2.0 * row.negativity


class TestEdgeCases:
    def test_no_reset(self, capsys):
        c, negativity = _figures(0.0, 0.5, 2.5)
        assert (c == 0.0).all() and negativity[0] == 0.0
        c, _ = _figures(0.0, 0.0, 2.5)
        assert (c == 0.0).all()
        row = evaluate_point(ModelParams(r=0.0, gamma=0.5, g=2.5))
        emit([row])
        assert capsys.readouterr().out.split("\n")[1] == "0,0.5,2.5,0,0,0,0,0,0,1,0,0"

    def test_no_dephasing_no_coupling_is_plus_plus(self):
        c, negativity = _figures(3.0, 0.0, 0.0)
        assert (c[0] == np.diag([0.0, 2.0, 2.0])).all() and negativity[0] == 0.0
        row = evaluate_point(ModelParams(r=3.0, gamma=0.0, g=0.0))
        assert ((row.mean_qfi, row.lambda_x, row.lambda_yz_hi, row.lambda_yz_lo)
                == (1.0, 0.0, 2.0, 2.0))
        assert (row.opt_nx, row.opt_ny, row.opt_nz) == (0.0, 1.0, 0.0)

    def test_coupling_too_small_to_square(self):
        c, negativity = _figures(1.0, 0.0, 1e-170)
        assert (c[0] == np.diag([0.0, 2.0, 2.0])).all()
        assert negativity[0] == 5e-171

    def test_no_coupling_tie_goes_to_y(self):
        # C = diag(0, c, c): y and z tie and the largest |ny| wins
        c, negativity = _figures(2.0, 0.5, 0.0)
        assert c[0, 1, 1] == c[0, 2, 2] > 0.0
        assert c[0, 0, 0] == c[0, 1, 2] == 0.0 and negativity[0] == 0.0
        dephasing = run_sweep(SweepSpec(vary="gamma", start=0.0, stop=3.0, steps=31,
                                        fixed_r=1.0, g_ratio=0.0))
        reset = run_sweep(SweepSpec(vary="r", start=0.1, stop=3.0, steps=30,
                                    fixed_gamma=0.5, g=0.0))
        for row in (*dephasing, *reset):
            assert (row.opt_nx, row.opt_ny, row.opt_nz) == (0.0, 1.0, 0.0), row
            assert row.lambda_yz_hi == row.lambda_yz_lo == 2.0 * row.mean_qfi

    def _crossing(self):
        """Adjacent reset rates around lambda_x = lambda_yz_hi at gamma = 0.5, g = 2.5."""
        def gap(r):
            lambda_x, lambda_yz_hi, _ = sweep._branches(_figures(r, 0.5, 2.5)[0])
            return float(lambda_x[0] - lambda_yz_hi[0])

        lo, hi = 1.5, 3.5
        assert gap(lo) > 0.0 > gap(hi)
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return lo, hi, gap
            if gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid

    def test_tie_at_the_crossing_goes_to_x(self):
        lo, hi, gap = self._crossing()
        for r in (lo, hi):
            row = evaluate_point(ModelParams(r=r, gamma=0.5, g=2.5))
            assert abs(gap(r)) <= DIRECTION_TIE_TOL * row.lambda_x
            assert (row.opt_nx, row.opt_ny, row.opt_nz) == (1.0, 0.0, 0.0)
        # just outside the tie tolerance the yz axis wins
        row = evaluate_point(ModelParams(r=hi + 1e-6, gamma=0.5, g=2.5))
        assert row.lambda_yz_hi - row.lambda_x > DIRECTION_TIE_TOL
        assert row.opt_nx == 0.0
        assert abs(row.opt_ny - INV_SQRT2) <= 1e-12 and abs(row.opt_nz - INV_SQRT2) <= 1e-12

    def test_scale_invariance_bit_for_bit(self):
        base = _figures(14.0, 0.5, 2.5)
        for factor in (2.0, 2.0**-30, 2.0**500):
            scaled = _figures(14.0 * factor, 0.5 * factor, 2.5 * factor)
            assert all((a == b).all() for a, b in zip(base, scaled))
        assert (_bits(evaluate_point(ModelParams(r=14.0, gamma=0.5, g=2.5)))
                == _bits(evaluate_point(ModelParams(r=28.0, gamma=1.0, g=5.0))))

    def test_huge_rates_stay_finite(self):
        c, negativity = _figures(1e200, 3e199, 2e200)
        assert np.isfinite(c).all() and np.isfinite(negativity).all()
        want = _figures(1.0, 0.3, 2.0)
        assert np.abs(c - want[0]).max() <= 1e-15
        assert abs(negativity[0] - want[1][0]) <= 1e-16
        row = evaluate_point(ModelParams(r=1e200, gamma=1e200, g=1e200))
        assert all(np.isfinite(getattr(row, name)) for name in FIGURES)

    def test_all_rates_zero(self):
        message = "r = gamma = g = 0 singles out no steady state"
        with pytest.raises(DegenerateLimitError, match=f"^{message}$"):
            _figures(0.0, 0.0, 0.0)
        with pytest.raises(DegenerateLimitError, match=f"^{message}$"):
            evaluate_point(ModelParams(r=0.0, gamma=0.0, g=0.0))

    def test_positivity_check_message(self, monkeypatch):
        # no valid rates give a negative eigenvalue, so raise the threshold
        # above the smallest one, 1/4 + a - 2|e| at this point
        rates = [np.array([14.0]), np.array([0.5]), np.array([2.5])]
        monkeypatch.setattr(DensityMatrix, "PSD_TOL", 0.2)
        with pytest.raises(ValueError) as want:
            closed_form_steady_state(ModelParams(14.0, 0.5, 2.5))
        with pytest.raises(ValueError) as got:
            closed_form_figures(*rates)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "density matrix has negative eigenvalue 7.589e-03"
