"""The closed-form figures of one point on Python floats.

``point._closed_form_point`` gives C_xx, C_yy, C_yz and the negativity of
the closed-form state at one point, the figures the ``eval`` row and the
``critical`` gap of the closed form are built from.  All four must have
the bits of ``closed_form_figures`` at N = 1, and where either raises,
both must raise the same error with the same message.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from resetqfi import (  # noqa: E402
    DegenerateLimitError,
    ModelParams,
    SweepSpec,
    evaluate_point,
    point,
)
from resetqfi.dynamics import closed_form_figures  # noqa: E402
from resetqfi.point import _closed_form_point  # noqa: E402

# log-uniform over [1e-300, 1e300], zero, or subnormal
LOG_UNIFORM = st.floats(min_value=-300.0, max_value=300.0).map(lambda x: 10.0 ** x)
SUBNORMAL = st.floats(min_value=math.ulp(0.0), max_value=2.0**-1022, exclude_max=True)
RATE = st.one_of(LOG_UNIFORM, st.just(0.0), SUBNORMAL)


def _array_figures(r, gamma, g) -> list:
    return [x[0].item() for x in closed_form_figures(np.array([r]), np.array([gamma]),
                                                     np.array([g]))]


def _outcome(figures, rates):
    try:
        return [float.hex(x) for x in figures(*rates)]
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
def test_equals_closed_form_figures(rates):
    want = _outcome(_array_figures, rates)
    assert _outcome(_closed_form_point, rates) == want
    if not any(rates):
        assert want == (DegenerateLimitError, "r = gamma = g = 0 singles out no steady state")


@settings(max_examples=300, deadline=None)
@given(r=RATE, gamma=LOG_UNIFORM, g_ratio=st.floats(min_value=0.0, max_value=12.0))
def test_gap_equals_the_gap_of_evaluate_point_at_a_coupling_ratio(r, gamma, g_ratio):
    # the rates of a bisection in gamma, where g = g_ratio * gamma
    rates = (r, gamma, g_ratio * gamma)
    assert _outcome(_closed_form_point, rates) == _outcome(_array_figures, rates)
    spec = SweepSpec(vary="gamma", start=0.0, stop=gamma, steps=2, fixed_r=r, g_ratio=g_ratio)
    row = evaluate_point(ModelParams(*rates))
    assert float.hex(point._gap(spec, gamma)) == float.hex(row.lambda_x - row.lambda_yz_hi)


@settings(max_examples=100, deadline=None)
@given(rates=st.tuples(LOG_UNIFORM, RATE, RATE))
@example(rates=(0.0, 0.5, 2.5))      # r = 0: I/4, whose 1/4 is checked too
def test_positivity_failure_matches_closed_form_figures(rates):
    # no valid rates give a negative eigenvalue; above 1/4 the threshold
    # fails every state, I/4 included, so both paths must raise, naming
    # the same smallest eigenvalue
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(point, "PSD_TOL", 0.3)
        want = _outcome(_array_figures, rates)
        assert want[0] is ValueError
        assert _outcome(_closed_form_point, rates) == want
