import numpy as np
import pytest

from minkcenters import Hyperplane, Line, lines_concurrent, point_on_line


def test_line_zero_direction_rejected():
    with pytest.raises(ValueError):
        Line((1, 1), (0, 0))


def test_point_on_line():
    line = Line((0, 0, 0), (2, 2, 2))
    assert point_on_line(line, (1, 1, 1))
    diag = Line((0, 0), (1, 1))
    assert point_on_line(diag, (2, 2.000000001))
    assert not point_on_line(diag, (2, 3))


def test_medians_concurrent_at_centroid():
    V = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    medians = [Line(V[i], (V[(i + 1) % 3] + V[(i + 2) % 3]) / 2 - V[i])
               for i in range(3)]
    p = lines_concurrent(medians)
    assert np.allclose(p, [1 / 3, 1 / 3])


def test_parallel_distinct_lines():
    l1 = Line((0, 0), (1, 0))
    l2 = Line((0, 1), (1, 0))
    assert lines_concurrent([l1, l2]) is None


def test_all_parallel_coincident_raises():
    l1 = Line((0, 0), (1, 0))
    l2 = Line((1, 0), (2, 0))
    with pytest.raises(ValueError):
        lines_concurrent([l1, l2])


def test_concurrency_translation_equivariant_and_permutation_invariant():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = rng.normal(size=2)
        dirs = rng.normal(size=(4, 2))
        lines = [Line(p + rng.normal() * u, u) for u in dirs]
        q = lines_concurrent(lines)
        assert q is not None and np.allclose(q, p, atol=1e-8)
        perm = rng.permutation(4)
        assert np.allclose(lines_concurrent([lines[i] for i in perm]), q, atol=1e-9)
        v = rng.normal(size=2)
        shifted = [Line(l.base + v, l.direction) for l in lines]
        assert np.allclose(lines_concurrent(shifted), q + v, atol=1e-8)


def test_hyperplane_contains():
    h = Hyperplane((1, 0, 0), [(0, 1, 0), (0, 0, 1)])
    assert abs((np.array([1, 5, -3]) - h.base) @ h.normal()) <= 1e-12
    assert abs((np.array([1.1, 0, 0]) - h.base) @ h.normal()) == pytest.approx(0.1)
