"""The scalar branch gap that ``find_critical_point`` bisects on.

``closed_form_gap`` takes lambda_x - lambda_yz_hi of the closed-form state
at one point of Python floats.  It must give the bits of the same gap
taken from the lambda_x and lambda_yz_hi of the closed-form row of
``evaluate_point``, and raise what that raises, with the same message.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from resetqfi import DegenerateLimitError, ModelParams, evaluate_point, point  # noqa: E402
from resetqfi.point import closed_form_gap  # noqa: E402

# log-uniform over [1e-300, 1e300], zero, or subnormal
LOG_UNIFORM = st.floats(min_value=-300.0, max_value=300.0).map(lambda x: 10.0 ** x)
SUBNORMAL = st.floats(min_value=math.ulp(0.0), max_value=2.0**-1022, exclude_max=True)
RATE = st.one_of(LOG_UNIFORM, st.just(0.0), SUBNORMAL)


def _array_gap(r, gamma, g) -> float:
    row = evaluate_point(ModelParams(r, gamma, g))
    return row.lambda_x - row.lambda_yz_hi


def _outcome(gap, rates):
    try:
        return float.hex(gap(*rates))
    except ValueError as err:
        return (type(err), str(err))


@settings(max_examples=500, deadline=None)
@given(rates=st.tuples(RATE, RATE, RATE))
@example(rates=(0.0, 0.5, 2.5))      # r = 0: I/4, C = 0
@example(rates=(3.0, 0.0, 0.0))      # gamma = g = 0: |++>
@example(rates=(1.0, 0.0, 1e-170))   # g too small to square against r: |++>
@example(rates=(0.0, 0.0, 0.0))      # no steady state
@example(rates=(5e-324, 0.0, 5e-324))
@example(rates=(1e300, 1e-300, 5e-324))
def test_equals_the_gap_of_the_array_path(rates):
    want = _outcome(_array_gap, rates)
    assert _outcome(closed_form_gap, rates) == want
    if not any(rates):
        assert want == (DegenerateLimitError, "r = gamma = g = 0 singles out no steady state")


@settings(max_examples=300, deadline=None)
@given(r=RATE, gamma=LOG_UNIFORM, g_ratio=st.floats(min_value=0.0, max_value=12.0))
def test_equals_the_gap_of_the_array_path_at_a_coupling_ratio(r, gamma, g_ratio):
    # the rates of a bisection in gamma, where g = g_ratio * gamma
    rates = (r, gamma, g_ratio * gamma)
    assert float.hex(closed_form_gap(*rates)) == float.hex(_array_gap(*rates))


@settings(max_examples=100, deadline=None)
@given(rates=st.tuples(LOG_UNIFORM, RATE, RATE))
def test_positivity_failure_matches_the_array_path(rates):
    # no valid rates give a negative eigenvalue; above 1/4 the threshold
    # fails every state with r > 0, so both paths must raise, naming the
    # same smallest eigenvalue.  Where r vanishes against the largest rate
    # the state is I/4, whose 1/4 the scalar path does not check.
    assume(rates[0] / max(rates) > 0.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(point, "PSD_TOL", 0.3)
        want = _outcome(_array_gap, rates)
        assert want[0] is ValueError
        assert _outcome(closed_form_gap, rates) == want
