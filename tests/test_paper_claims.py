"""The paper's claim about entanglement and shot noise, as checked numbers.

The abstract says that when the concurrence and the negativity are
nonzero, the QFI per particle exceeds 1.  The closed form shows a window
where that fails.  The converse does hold: a two-qubit state whose QFI
per particle exceeds 1 is entangled (Pezze and Smerzi, PRL 102, 100401,
2009).  The state depends on r / gamma and g / gamma only, so gamma = 1.
"""

import numpy as np

from resetqfi.dynamics import closed_form_figures
from resetqfi.metrology import block_axes


def _qfi_per_particle_and_negativity(r, g):
    c_xx, c_yy, c_yz, negativity = closed_form_figures(r, 1.0, g)
    lambda_max, _ = block_axes(c_xx, c_yy, c_yz)
    return lambda_max / 2.0, negativity


def test_beating_shot_noise_implies_entanglement():
    # r / gamma over [1e-2, 1e4], g / gamma over [0.5, 50]
    r, g = np.meshgrid(np.logspace(-2.0, 4.0, 400), np.geomspace(0.5, 50.0, 200))
    qfi, negativity = _qfi_per_particle_and_negativity(r.ravel(), g.ravel())
    beats_shot_noise = qfi > 1.0
    # 21,195 of the 80,000 points with numpy 2.4; the bound keeps the test
    # from passing on a grid with none
    assert beats_shot_noise.sum() > 20000
    assert (negativity[beats_shot_noise] > 0.0).all()
    # the abstract's direction fails: entangled points below shot noise
    assert (negativity[~beats_shot_noise] > 0.0).any()


def test_entangled_below_shot_noise_at_g_five_gamma():
    qfi, negativity = _qfi_per_particle_and_negativity(np.array([10.0, 20.0]), 5.0)
    assert (negativity > 0.0).all()
    assert np.round(qfi, 3).tolist() == [0.703, 0.955]


def _threshold(above, lo, hi):
    """The r / gamma at g = 5 gamma where ``above`` turns from False at lo
    to True at hi, by bisection down to adjacent floats."""
    assert not above(lo) and above(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if above(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_thresholds_at_g_five_gamma():
    # the roots of the ROADMAP's exact threshold polynomials: the
    # entanglement quadratic, 6.25861046, and the shot-noise polynomial
    # on the yz axis, 27.3332559
    def figures(r):
        qfi, negativity = _qfi_per_particle_and_negativity(np.array([r]), 5.0)
        return float(qfi[0]), float(negativity[0])

    entangled = _threshold(lambda r: figures(r)[1] > 0.0, 1.0, 10.0)
    beats_shot_noise = _threshold(lambda r: figures(r)[0] > 1.0, 10.0, 100.0)
    assert "%.9g" % entangled == "6.25861046"
    assert "%.9g" % beats_shot_noise == "27.3332559"
