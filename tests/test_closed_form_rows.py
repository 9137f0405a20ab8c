"""The closed-form rows of a sweep of one pass on Python floats.

``SweepSpec.values`` must give the grid of ``SweepSpec.grid`` bit for
bit, and ``point.closed_form_rows`` the rows of ``run_sweep``, with the
same error and message where either raises: ``resetqfi sweep`` of at most
SWEEP_CHUNK closed-form points prints them without loading numpy.
"""

import math
import random
from dataclasses import astuple

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from resetqfi import DegenerateLimitError, SweepSpec, run_sweep  # noqa: E402
from resetqfi.point import SWEEP_CHUNK, closed_form_rows  # noqa: E402

LARGEST = 1.7e308
ENDS = st.floats(min_value=0.0, max_value=LARGEST)


def _hex(values) -> list:
    return [float.hex(x) for x in values]


@settings(max_examples=300, deadline=None)
@given(ends=st.tuples(ENDS, ENDS), steps=st.integers(2, SWEEP_CHUNK))
@example(ends=(0.0, 5e-324), steps=3)                             # a step of 0
@example(ends=(1.0, math.nextafter(1.0, 2.0)), steps=5)           # adjacent floats
@example(ends=(5e-324, 1e-323), steps=SWEEP_CHUNK)
@example(ends=(0.0, LARGEST), steps=SWEEP_CHUNK)
@example(ends=(math.nextafter(LARGEST, 0.0), LARGEST), steps=7)
@example(ends=(1e308, LARGEST), steps=2)
def test_values_equal_the_grid(ends, steps):
    start, stop = sorted(ends)
    if start == stop:
        stop = math.nextafter(stop, math.inf)
    spec = SweepSpec(vary="r", start=start, stop=stop, steps=steps, fixed_gamma=0.5, g=2.5)
    assert _hex(spec.values()) == _hex(spec.grid().tolist())


def _specs(seed, count) -> list:
    """Seeded sweeps around the paper's points, g_ratio near 5 or g fixed,
    with 2 to SWEEP_CHUNK steps, alternately varying r and gamma."""
    rng = random.Random(f"closed-form-rows/{seed}")
    specs = []
    for k in range(count):
        steps = rng.choice([2, SWEEP_CHUNK, rng.randint(2, SWEEP_CHUNK)])
        coupling = ({"g_ratio": rng.uniform(3.0, 7.0)} if k % 4 < 2
                    else {"g": 10.0 ** rng.uniform(-2.0, 1.0)})
        if k % 2 == 0:
            specs.append(SweepSpec(vary="r", start=10.0 ** rng.uniform(-2.0, -1.0),
                                   stop=rng.uniform(10.0, 20.0), steps=steps,
                                   fixed_gamma=10.0 ** rng.uniform(-0.7, 0.0), **coupling))
        else:
            specs.append(SweepSpec(vary="gamma", start=10.0 ** rng.uniform(-2.3, -1.7),
                                   stop=rng.uniform(2.0, 4.0), steps=steps,
                                   fixed_r=rng.choice([1.0, 14.0]) * 10.0 ** rng.uniform(-0.3, 0.3),
                                   **coupling))
    return specs


def _rows(build, spec):
    try:
        return [_hex(astuple(row)) for row in build(spec)]
    except (ArithmeticError, RuntimeError, ValueError) as err:
        return (type(err), str(err))


@pytest.mark.parametrize("spec", [
    *_specs(1, 24),
    SweepSpec(vary="r", start=0.0, stop=20.0, steps=201, fixed_gamma=0.5, g_ratio=5.0),
    SweepSpec(vary="gamma", start=0.01, stop=3.0, steps=300, fixed_r=1.0, g_ratio=5.0),
    # from gamma = g = 0, the |++> state, and on r = 0 throughout
    SweepSpec(vary="gamma", start=0.0, stop=3.0, steps=7, fixed_r=1.0, g_ratio=5.0),
    SweepSpec(vary="gamma", start=0.0, stop=3.0, steps=7, fixed_r=0.0, g=2.5),
    # a step of 0, adjacent floats, and rates near the largest float
    SweepSpec(vary="r", start=0.0, stop=5e-324, steps=3, fixed_gamma=0.5, g_ratio=5.0),
    SweepSpec(vary="r", start=1.0, stop=math.nextafter(1.0, 2.0), steps=5, fixed_gamma=0.5, g=2.5),
    SweepSpec(vary="r", start=1.0, stop=LARGEST, steps=SWEEP_CHUNK, fixed_gamma=0.5, g=2.5),
])
def test_rows_equal_run_sweep(spec):
    assert _rows(closed_form_rows, spec) == _rows(run_sweep, spec)


@pytest.mark.parametrize("spec", [
    SweepSpec(vary="r", start=0.0, stop=1.0, steps=3, fixed_gamma=0.0, g=0.0),
    SweepSpec(vary="gamma", start=0.0, stop=1.0, steps=SWEEP_CHUNK, fixed_r=0.0, g_ratio=5.0),
], ids=["vary-r", "vary-gamma"])
def test_all_rates_zero_raises_as_run_sweep(spec):
    want = (DegenerateLimitError,
            f"r = gamma = g = 0 singles out no steady state [at {spec.vary} = 0]")
    assert _rows(run_sweep, spec) == want
    assert _rows(closed_form_rows, spec) == want

