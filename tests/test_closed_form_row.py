"""The closed-form row of one point on Python floats.

``point.closed_form_row`` builds the row of ``resetqfi eval`` without
numpy.  All 12 of its fields must have the bits of the closed-form row
of ``evaluate_point``, and where either raises, both must raise the
same error with the same message.
"""

import random
from dataclasses import astuple

import pytest

from resetqfi import ModelParams, evaluate_point, point
from resetqfi.point import closed_form_row

POINTS_PER_CUBE = 2000


def _outcome(build, rates):
    try:
        return [float.hex(x) for x in astuple(build(ModelParams(*rates)))]
    except (ArithmeticError, RuntimeError, ValueError) as err:
        return (type(err), str(err))


def _log_uniform(seed, lo, hi):
    """POINTS_PER_CUBE seeded points of [10^lo, 10^hi]^3, log-uniform."""
    rng = random.Random(f"closed-form-row/{seed}")
    return [tuple(10.0 ** rng.uniform(lo, hi) for _ in range(3)) for _ in range(POINTS_PER_CUBE)]


@pytest.mark.parametrize("lo, hi", [(-3, 2), (-300, 300)], ids=["1e-3..1e2", "1e-300..1e300"])
def test_equals_evaluate_point_bit_for_bit(lo, hi):
    differ = [rates for rates in _log_uniform(lo, lo, hi)
              if _outcome(closed_form_row, rates) != _outcome(evaluate_point, rates)]
    assert differ == []


@pytest.mark.parametrize("rates", [
    (0.0, 0.5, 2.5),        # r = 0: I/4, C = 0
    (0.0, 0.0, 2.5),
    (0.0, 0.5, 0.0),
    (0.0, 0.0, 0.0),        # no steady state: both raise DegenerateLimitError
    (14.0, 0.0, 2.5),       # gamma = 0
    (14.0, 0.5, 0.0),       # g = 0: C_yz = 0, the axis (0, 1, 0) where it wins
    (3.0, 0.0, 0.0),        # gamma = g = 0: |++>, K P = 0
    (1.0, 0.0, 1e-170),     # g too small to square against r: |++>
    (1e-300, 1.0, 0.0),     # r vanishes against gamma after scaling
    (5e-324, 0.0, 5e-324),
    (1e300, 1e-300, 5e-324),
    (1.7e308, 0.5, 2.5),
    (-0.0, 0.5, 2.5),       # a signed zero rate is printed as -0
    (2.3257822, 0.5, 2.5),  # below, at and above the axis flip at r = 2.32578230
    (2.3257823, 0.5, 2.5),
    (2.3257824, 0.5, 2.5),
    (14.0, 0.5, 2.5),       # the paper's point
])
def test_equals_evaluate_point_at_the_branches(rates):
    assert _outcome(closed_form_row, rates) == _outcome(evaluate_point, rates)


def test_axis_flips_where_evaluate_point_flips():
    below, above = (closed_form_row(ModelParams(r, 0.5, 2.5)) for r in (2.3257822, 2.3257824))
    assert (below.opt_nx, below.opt_ny, above.opt_nx) == (1.0, 0.0, 0.0)
    assert above.opt_ny == above.opt_nz > 0.0


def test_positivity_failure_matches_evaluate_point(monkeypatch):
    # no valid rates give a negative eigenvalue; above 1/4 the threshold
    # fails every state, I/4 where r vanishes against the largest rate
    # included, so both sides must raise, naming the same smallest
    # eigenvalue
    monkeypatch.setattr(point, "PSD_TOL", 0.3)
    for rates in _log_uniform("positivity", -300, 300)[:200] + [(0.0, 0.5, 2.5)]:
        want = _outcome(evaluate_point, rates)
        assert want[0] is ValueError
        assert _outcome(closed_form_row, rates) == want
