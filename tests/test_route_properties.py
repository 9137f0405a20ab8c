"""Property tests of the solver routes over their trusted envelopes.

Each rate is drawn log-uniform from the envelope the README states for
the route: [1e-3, 1e2] for ``integrate``; ``nullspace`` holds for every
r > 0 and is drawn from [1e-6, 1e4].
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from resetqfi import ModelParams, evaluate_point  # noqa: E402

# log10 of the smallest and largest rate of each route's envelope
ENVELOPES = {"nullspace": (-6.0, 4.0), "integrate": (-3.0, 2.0)}
UNIT = st.floats(min_value=0.0, max_value=1.0)
# the largest difference seen on 4216 points of each envelope, its corners
# and edges among them, was 3.0e-12
ROUTE_TOL = 1e-9
FIGURES = ("mean_qfi", "lambda_x", "lambda_yz_hi", "lambda_yz_lo", "concurrence", "negativity")


@pytest.mark.parametrize("method", sorted(ENVELOPES))
@settings(max_examples=100, deadline=None)
@given(position=st.tuples(UNIT, UNIT, UNIT))
def test_route_row_matches_the_closed_form(method, position):
    low, high = ENVELOPES[method]
    r, gamma, g = (10.0 ** (low + x * (high - low)) for x in position)
    params = ModelParams(r=r, gamma=gamma, g=g)
    want = evaluate_point(params)
    row = evaluate_point(params, method)
    for name in FIGURES:
        assert abs(getattr(row, name) - getattr(want, name)) <= ROUTE_TOL, name
    assert 0.0 <= row.mean_qfi <= 2.0
    # the closed-form states have C = 2 N exactly; a route state, up to rounding
    assert 2.0 * row.negativity <= row.concurrence + 1e-12
