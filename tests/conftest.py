import numpy as np
import pytest

from resetqfi import ModelParams, point
from resetqfi.point import _closed_form_point


def model_grid():
    """5 x 5 x 3 parameter grid shared by fixed-point and route-agreement checks."""
    points = []
    for r in np.linspace(0.1, 20.0, 5):
        for gamma in np.linspace(0.01, 3.0, 5):
            for g in (gamma, 2.5, 5.0 * gamma):
                points.append(ModelParams(r=float(r), gamma=float(gamma), g=float(g)))
    return points


@pytest.fixture(scope="session")
def grid():
    return model_grid()


@pytest.fixture
def closed_form_gaps(monkeypatch):
    """The rates (r, gamma, g) of each ``_closed_form_point`` call, one per
    closed-form gap that ``find_critical_point`` takes.  The 257th call
    fails, far more than the searches of one test make here (at most 104),
    so a search that would not end fails instead of hanging."""
    calls = []

    def counting(r, gamma, g):
        calls.append((r, gamma, g))
        if len(calls) > 256:
            raise AssertionError("more than 256 closed-form gap evaluations")
        return _closed_form_point(r, gamma, g)

    monkeypatch.setattr(point, "_closed_form_point", counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shape of the argument of each ``np.linalg.eigh`` call made while
    the test runs."""
    shapes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return shapes
