import numpy as np
import pytest

from minkcenters import Hyperplane, Line


def test_line_zero_direction_rejected():
    with pytest.raises(ValueError):
        Line((1, 1), (0, 0))


def test_point_on_line():
    line = Line((0, 0, 0), (2, 2, 2))
    assert line.distance((1, 1, 1)) <= 1e-15
    diag = Line((0, 0), (1, 1))
    assert diag.distance((2, 2.000000001)) <= 1e-9
    assert diag.distance((2, 3)) == pytest.approx(np.sqrt(0.5))
    assert Line((5, -1), (0, 3)).distance((2, 7)) == pytest.approx(3.0)


def test_hyperplane_contains():
    h = Hyperplane((1, 0, 0), [(0, 1, 0), (0, 0, 1)])
    assert abs((np.array([1, 5, -3]) - h.base) @ h.normal()) <= 1e-12
    assert abs((np.array([1.1, 0, 0]) - h.base) @ h.normal()) == pytest.approx(0.1)
