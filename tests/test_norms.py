import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkcenters import Norm, Tolerances, is_birkhoff_orthogonal, is_isosceles_orthogonal
from minkcenters.verify import random_polyhedral_norm

TOL = Tolerances()


def vectors(d, lo=-10, hi=10):
    return st.lists(st.floats(lo, hi), min_size=d, max_size=d).map(np.array)


class TestEval:
    def test_l1(self):
        assert Norm.lp(1)((3, -4)) == pytest.approx(7)

    def test_euclidean(self):
        assert Norm.euclidean()((3, 4)) == pytest.approx(5)

    def test_cross_polytope_matches_l1(self):
        cross = Norm.polyhedral([(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert cross((3, -4)) == pytest.approx(7)

    def test_cube_matches_linf(self):
        cube = Norm.polyhedral([(1, 1), (1, -1), (-1, 1), (-1, -1)])
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=2) * 5
            assert cube(v) == pytest.approx(np.abs(v).max(), abs=1e-12)

    def test_dimension_mismatch(self):
        cross = Norm.polyhedral([(1, 0), (-1, 0), (0, 1), (0, -1)])
        with pytest.raises(ValueError):
            cross((1, 2, 3))

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            Norm.lp(0.5)

    def test_asymmetric_ball_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Norm.polyhedral([(1, 0), (-2, 0), (0, 1), (0, -1)])

    def test_flat_ball_rejected(self):
        with pytest.raises(ValueError):
            Norm.polyhedral([(1, 0), (-1, 0)])

    def test_json_roundtrip(self):
        for norm in (Norm.euclidean(), Norm.lp(3), Norm.lp(math.inf),
                     Norm.polyhedral([(1, 0), (-1, 0), (0, 1), (0, -1)])):
            again = Norm.from_json(norm.to_json())
            v = np.array([0.3, -1.7])
            assert again(v) == pytest.approx(norm(v))

    def test_unknown_norm_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            Norm.from_json({"kind": "lp", "p": 2, "bogus": 1})


class TestFacets:
    @pytest.mark.parametrize("norm, d, count", [
        (Norm.lp(math.inf), 3, 6), (Norm.lp(1), 3, 8), (Norm.lp(1), 7, 128),
        (Norm.polyhedral([(1, 1), (1, -1), (-1, 1), (-1, -1)]), 2, 4),
        # one row per facet, not per triangle of the hull's triangulation
        (Norm.polyhedral(list(itertools.product((1, -1), repeat=3))), 3, 6),
        (Norm.polyhedral(list(itertools.product((1, -1), repeat=4))), 4, 8),
        (random_polyhedral_norm(2, 0), 2, 16), (random_polyhedral_norm(3, 0), 3, 44)])
    def test_max_of_facets_is_the_norm(self, norm, d, count):
        F = norm.facets(d)
        assert F.shape == (count, d)
        X = np.random.default_rng(0).normal(size=(50, d))
        assert np.allclose((X @ F.T).max(axis=1), norm(X), atol=1e-12)

    @pytest.mark.parametrize("norm", [Norm.euclidean(), Norm.lp(3)])
    def test_smooth_norm_has_none(self, norm):
        with pytest.raises(ValueError, match="smooth"):
            norm.facets(2)

    def test_polytope_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            Norm.polyhedral([(1, 0), (-1, 0), (0, 1), (0, -1)]).facets(3)


class TestIsosceles:
    def test_l1_axes(self):
        assert is_isosceles_orthogonal(Norm.lp(1), (1, 0), (0, 1))

    def test_self_not_orthogonal(self):
        assert not is_isosceles_orthogonal(Norm.euclidean(), (1, 0), (1, 0))

    def test_linf_example(self):
        # ||(1.5, 1)||_inf = 1.5 vs ||(0.5, -1)||_inf = 1
        assert not is_isosceles_orthogonal(Norm.lp(math.inf), (1, 0), (0.5, 1))

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
    def test_homogeneous(self, scale):
        # a 45 degree pair is rejected at every scale, as Birkhoff rejects it
        x, y = scale * np.array([1.0, 0.0]), scale * np.array([1.0, 1.0])
        assert not is_isosceles_orthogonal(Norm.euclidean(), x, y)
        assert not is_birkhoff_orthogonal(Norm.euclidean(), x, y)

    @settings(max_examples=50, deadline=None)
    @given(vectors(3), vectors(3))
    def test_symmetric(self, x, y):
        norm = Norm.lp(1)
        assert (is_isosceles_orthogonal(norm, x, y)
                == is_isosceles_orthogonal(norm, y, x))


class TestBirkhoff:
    def test_linf_axes(self):
        assert is_birkhoff_orthogonal(Norm.lp(math.inf), (1, 0), (0, 1))

    def test_self_not_orthogonal(self):
        assert not is_birkhoff_orthogonal(Norm.euclidean(), (1, 0), (1, 0))

    def test_l1_diagonals(self):
        norm = Norm.lp(1)
        assert is_birkhoff_orthogonal(norm, (1, 1), (1, -1))
        # independent oracle: dense scan of ||x + a y||
        alphas = np.linspace(-4, 4, 4001)
        vals = [norm(np.array([1, 1]) + a * np.array([1, -1])) for a in alphas]
        assert min(vals) >= norm((1, 1)) - 1e-12

    def test_zero_y_rejected(self):
        with pytest.raises(ValueError):
            is_birkhoff_orthogonal(Norm.euclidean(), (1, 0), (0, 0))

    @settings(max_examples=30, deadline=None)
    @given(vectors(2, -5, 5), vectors(2, -5, 5),
           st.floats(0.1, 4), st.floats(0.1, 4))
    def test_homogeneous(self, x, y, lam, mu):
        norm = Norm.lp(math.inf)
        if norm(y) < 1e-6 or norm(x) < 1e-6:
            return
        assert (is_birkhoff_orthogonal(norm, x, y)
                == is_birkhoff_orthogonal(norm, lam * x, -mu * y))


class TestEuclideanAgreement:
    @settings(max_examples=50, deadline=None)
    @given(vectors(3, -5, 5), vectors(3, -5, 5))
    @example(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 1e-5]))  # x.y = 1e-5
    def test_predicates_match_dot_product(self, x, y):
        eucl = Norm.euclidean()
        if eucl(x) < 1e-3 or eucl(y) < 1e-3:
            return
        dot_zero = abs(x @ y) <= TOL.eps_geom * max(1.0, eucl(x) * eucl(y))
        # avoid the tolerance boundary where both answers are legitimate
        if 0 < abs(x @ y) < 1e-6:
            return
        assert is_birkhoff_orthogonal(eucl, x, y) == dot_zero
        assert is_isosceles_orthogonal(eucl, x, y) == dot_zero


class TestNormAxioms:
    @settings(max_examples=40, deadline=None)
    @given(vectors(3, -8, 8), vectors(3, -8, 8), st.floats(-3, 3))
    def test_axioms_hold(self, x, y, lam):
        for norm in (Norm.euclidean(), Norm.lp(1), Norm.lp(2.5), Norm.lp(math.inf)):
            nx, ny = norm(x), norm(y)
            assert nx >= 0
            assert abs(norm(lam * x) - abs(lam) * nx) <= 1e-12 * max(1.0, abs(lam) * nx)
            assert norm(x + y) <= nx + ny + 1e-12 * max(1.0, nx + ny)

    @settings(max_examples=40, deadline=None)
    @given(vectors(4, -8, 8))
    def test_l2_equals_euclidean(self, x):
        assert abs(Norm.lp(2)(x) - Norm.euclidean()(x)) <= 1e-12 * max(1.0, Norm.euclidean()(x))

    @settings(max_examples=40, deadline=None)
    @given(vectors(2, -8, 8))
    def test_polyhedral_crosschecks(self, x):
        cross = Norm.polyhedral([(1, 0), (-1, 0), (0, 1), (0, -1)])
        cube = Norm.polyhedral([(1, 1), (1, -1), (-1, 1), (-1, -1)])
        assert cross(x) == pytest.approx(Norm.lp(1)(x), abs=TOL.eps_geom * 10)
        assert cube(x) == pytest.approx(Norm.lp(math.inf)(x), abs=TOL.eps_geom * 10)


class TestTolerances:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            Tolerances(eps_geom=0)
