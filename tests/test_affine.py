import numpy as np
import pytest

from minkcenters import Hyperplane, Line


def test_line_zero_direction_rejected():
    with pytest.raises(ValueError):
        Line((1, 1), (0, 0))


def test_line_shape_mismatch_rejected():
    # as Hyperplane does, at construction rather than in distance
    with pytest.raises(ValueError, match="one shape"):
        Line((0, 0), (1, 1, 1))
    with pytest.raises(ValueError, match="one shape"):
        Line(np.zeros((4, 3)), np.ones(3))
    with pytest.raises(ValueError, match="one shape"):
        Line(0.0, 1.0)


def test_point_on_line():
    line = Line((0, 0, 0), (2, 2, 2))
    assert line.distance((1, 1, 1)) <= 1e-15
    diag = Line((0, 0), (1, 1))
    assert diag.distance((2, 2.000000001)) <= 1e-9
    assert diag.distance((2, 3)) == pytest.approx(np.sqrt(0.5))
    assert Line((5, -1), (0, 3)).distance((2, 7)) == pytest.approx(3.0)


def test_hyperplane_contains():
    h = Hyperplane((1, 0, 0), (1, 0, 0))
    assert abs((np.array([1, 5, -3]) - h.base) @ h.normal()) <= 1e-12
    assert abs((np.array([1.1, 0, 0]) - h.base) @ h.normal()) == pytest.approx(0.1)


def test_batched_line_distance_matches_each_line():
    rng = np.random.default_rng(0)
    bases, directions, points = rng.normal(size=(3, 6, 4))
    lines = [Line(b, u) for b, u in zip(bases, directions)]
    batch = Line(bases, directions)
    # many lines, one point
    assert batch.distance(points[0]) == pytest.approx([l.distance(points[0]) for l in lines],
                                                      rel=1e-12)
    # one line, many points
    assert lines[0].distance(points) == pytest.approx([lines[0].distance(p) for p in points],
                                                      rel=1e-12)
    # one line and one point give a float
    assert isinstance(lines[0].distance(points[0]), float)


def test_batched_line_zero_direction_rejected():
    directions = np.ones((4, 3))
    Line(np.zeros((4, 3)), directions)
    directions[2] = 0.0
    with pytest.raises(ValueError):
        Line(np.zeros((4, 3)), directions)


def test_hyperplane_unit_normal():
    h = Hyperplane((0, 1), (3, -4))
    assert np.allclose(h.normal(), (0.6, -0.8), rtol=0, atol=1e-15)
    assert np.array_equal(h.base, (0.0, 1.0))
    with pytest.raises(ValueError):
        Hyperplane((0, 1), (0, 0))
    with pytest.raises(ValueError):
        Hyperplane((0, 1), (1, 0, 0))


def test_batched_hyperplane_zero_normal_rejected():
    bases, normals = np.zeros((2, 4, 3)), np.ones((2, 4, 3))
    assert Hyperplane(bases, normals).normal().shape == (2, 4, 3)
    for i in np.ndindex(2, 4):
        zero = normals.copy()
        zero[i] = 0.0
        with pytest.raises(ValueError, match="normal must be nonzero"):
            Hyperplane(bases, zero)


def test_rows_check_the_whole_batch():
    bases, normals = np.zeros((4, 3)), np.ones((4, 3))
    assert len(Line(bases, normals).rows()) == len(Hyperplane(bases, normals).rows()) == 4
    for i in range(4):
        zero = normals.copy()
        zero[i] = 0.0
        with pytest.raises(ValueError, match="direction must be nonzero"):
            Line(bases, zero).rows()
        with pytest.raises(ValueError, match="normal must be nonzero"):
            Hyperplane(bases, zero).rows()
    for cls in (Line, Hyperplane):
        with pytest.raises(ValueError, match="one shape"):
            cls(bases, normals[:3]).rows()
        with pytest.raises(ValueError, match="one shape"):
            cls(bases[0], normals[0]).rows()
        with pytest.raises(ValueError, match="one shape"):
            cls(bases[None], normals[None]).rows()


def test_hyperplane_rows_match_single_hyperplanes():
    rng = np.random.default_rng(1)
    bases, normals = rng.normal(size=(2, 7, 5))
    for h, b, n in zip(Hyperplane(bases, normals).rows(), bases, normals):
        one = Hyperplane(b, n)
        assert type(h) is Hyperplane
        assert np.array_equal(h.base, b) and np.array_equal(one.base, b)
        # each row divided by its vector norm, as a single hyperplane's normal is
        assert np.array_equal(h.normal(), n / np.linalg.norm(n))
        assert np.array_equal(one.normal(), n / np.linalg.norm(n))
    for line, b, u in zip(Line(bases, normals).rows(), bases, normals):
        one = Line(b, u)
        assert type(line) is Line
        assert line.base.tobytes() == one.base.tobytes() == b.tobytes()
        assert line.direction.tobytes() == one.direction.tobytes() == u.tobytes()
