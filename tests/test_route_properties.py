"""Property tests of the solver routes over their trusted envelopes.

Each rate is drawn log-uniform from the envelope the README states for
the route: [1e-3, 1e2] for ``integrate``; ``nullspace`` holds for every
r > 0 and is drawn from [1e-6, 1e4].
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from resetqfi import (  # noqa: E402
    ModelParams,
    c_matrix,
    evaluate_point,
    liouvillian_apply,
    liouvillian_superoperator,
    steady_state,
    unvectorize,
    vectorize,
)
from resetqfi.point import STEADY_STATE_METHODS  # noqa: E402

# log10 of the smallest and largest rate of each route's envelope
ENVELOPES = {"nullspace": (-6.0, 4.0), "integrate": (-3.0, 2.0)}
UNIT = st.floats(min_value=0.0, max_value=1.0)
POSITION = st.tuples(UNIT, UNIT, UNIT)
# the largest difference seen on 4216 points of each envelope, its corners
# and edges among them, was 3.0e-12
ROUTE_TOL = 1e-9
FIGURES = ("mean_qfi", "lambda_x", "lambda_yz_hi", "lambda_yz_lo", "concurrence", "negativity")
# the two constructions of L rho differ by rounding, which scales with the
# largest rate: at most 1.9e-15 max(r, gamma, g) on 3000 points of
# [1e-6, 1e4]^3 with the entries of rho in [-2, 2]
APPLY_TOL = 1e-13
# n . C n is a sum of non-negative spectral weights times |<i|J_n|j>|^2, so
# C is positive semidefinite; its entries are at most 4, and rounding leaves
# far less than this below zero
PSD_TOL = 1e-13
# the bordered solve's trace row does not scale with the rates, so nullspace
# states are not bit-equal under power-of-two scaling: 706 of 1200 were, on
# 300 log-uniform points of [1e-3, 1e2]^3 with 2^k, k in {-20, -3, 5, 30},
# and the largest entry difference was 8.3e-16
SCALE_TOL = 1e-14


def _rates(method, position):
    low, high = ENVELOPES[method]
    return tuple(10.0 ** (low + x * (high - low)) for x in position)


@pytest.mark.parametrize("method", sorted(ENVELOPES))
@settings(max_examples=100, deadline=None)
@given(position=POSITION)
def test_route_row_matches_the_closed_form(method, position):
    r, gamma, g = _rates(method, position)
    params = ModelParams(r=r, gamma=gamma, g=g)
    want = evaluate_point(params)
    row = evaluate_point(params, method)
    for name in FIGURES:
        assert abs(getattr(row, name) - getattr(want, name)) <= ROUTE_TOL, name
    assert 0.0 <= row.mean_qfi <= 2.0
    # the closed-form states have C = 2 N exactly; a route state, up to rounding
    assert 2.0 * row.negativity <= row.concurrence + 1e-12


@pytest.mark.parametrize("method", sorted(ENVELOPES))
@settings(max_examples=50, deadline=None)
@given(position=POSITION)
def test_route_moment_matrix_is_positive_semidefinite(method, position):
    r, gamma, g = _rates(method, position)
    c = c_matrix(steady_state(ModelParams(r=r, gamma=gamma, g=g), method))
    assert np.linalg.eigvalsh(c)[0] >= -PSD_TOL


@settings(max_examples=100, deadline=None)
@given(position=POSITION,
       entries=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=32, max_size=32))
def test_superoperator_applies_the_master_equation(position, entries):
    # the superoperator is what the nullspace route solves, so its envelope
    r, gamma, g = _rates("nullspace", position)
    p = ModelParams(r=r, gamma=gamma, g=g)
    z = np.reshape(entries[:16], (4, 4)) + 1j * np.reshape(entries[16:], (4, 4))
    rho = z + z.conj().T
    got = unvectorize(liouvillian_superoperator(p) @ vectorize(rho))
    assert np.abs(got - liouvillian_apply(p, rho)).max() <= APPLY_TOL * max(r, gamma, g)


@pytest.mark.parametrize("method", STEADY_STATE_METHODS)
@settings(max_examples=100, deadline=None)
@given(position=POSITION, power=st.sampled_from((-20, -3, 5, 30)))
def test_state_scales_with_the_rates(method, position, power):
    # the steady state depends on the ratios of the rates only; drawn from
    # [1e-3, 1e2]^3, the cube SCALE_TOL was measured on.  The closed form
    # and the RK4 step scale with the rates, so their states are bit-equal
    r, gamma, g = _rates("integrate", position)
    factor = 2.0**power
    base = steady_state(ModelParams(r=r, gamma=gamma, g=g), method).mat
    scaled = steady_state(ModelParams(r=r * factor, gamma=gamma * factor, g=g * factor),
                          method).mat
    if method == "nullspace":
        assert np.abs(scaled - base).max() <= SCALE_TOL
    else:
        assert scaled.tobytes() == base.tobytes()
