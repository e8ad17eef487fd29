import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkcenters import (Norm, Tolerances, is_birkhoff_orthogonal,
                         is_isosceles_orthogonal, is_normal_to_hyperplane)
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


class TestNormality:
    def test_euclidean_coordinate_hyperplane(self):
        assert is_normal_to_hyperplane(Norm.euclidean(), (0, 0, 1),
                                       [(1, 0, 0), (0, 1, 0)])

    def test_euclidean_tilted_not_normal(self):
        assert not is_normal_to_hyperplane(Norm.euclidean(), (0, 1, 1),
                                           [(1, 0, 0), (0, 1, 0)])

    def test_linf_diagonal(self):
        # grid oracle: ||(1,1) + a (1,-1)||_inf = max(|1+a|, |1-a|) >= 1
        linf = Norm.lp(math.inf)
        alphas = np.linspace(-4, 4, 4001)
        assert min(linf(np.array([1, 1]) + a * np.array([1, -1])) for a in alphas) >= 1
        assert is_normal_to_hyperplane(linf, (1, 1), [(1, -1)])

    def test_linf_not_normal_at_edge(self):
        # w = -0.4 (1,-1,-1) - (0,0,1) gives ||v + w||_inf = 0.6 < ||v||_inf = 1
        linf = Norm.lp(math.inf)
        v = np.array([1.0, 0.0, 1.0])
        w = -0.4 * np.array([1.0, -1.0, -1.0]) - np.array([0.0, 0.0, 1.0])
        assert linf(v + w) == pytest.approx(0.6)
        assert not is_normal_to_hyperplane(linf, v, [(1, -1, -1), (0, 0, 1)])

    def test_matches_lp_oracle_on_small_integer_inputs(self):
        """Independent oracle: v is normal to H iff min_{w in H} ||v + w|| = ||v||,
        with the minimum computed by a linear program over the norm's facets."""
        from scipy.optimize import linprog

        octahedron = np.vstack([np.eye(3), -np.eye(3)])
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        # (facet functionals, norms whose unit ball has exactly those facets)
        families = [(signs, [Norm.lp(1), Norm.polyhedral(octahedron)]),
                    (octahedron, [Norm.lp(math.inf)])]
        # one representative of each +-pair of nonzero {-1,0,1}^3 vectors
        half = [np.array(p, dtype=float) for p in itertools.product((-1, 0, 1), repeat=3)
                if p > (0, 0, 0)]
        planes = {}
        for a, b in itertools.combinations(half, 2):
            n = np.cross(a, b)
            if n.any():
                planes.setdefault(tuple(n / n[np.flatnonzero(n)[0]]), np.array([a, b]))

        checked = 0
        for F, norms in families:
            for B in planes.values():
                for v in half:
                    if abs(np.linalg.det(np.vstack([B, v]))) < 0.5:
                        continue  # v lies in H
                    # min t subject to F (v + c B) <= t, variables (c1, c2, t)
                    A = np.hstack([F @ B.T, -np.ones((len(F), 1))])
                    lp = linprog([0, 0, 1], A_ub=A, b_ub=-F @ v,
                                 bounds=[(None, None)] * 3, method="highs")
                    for norm in norms:
                        expected = lp.fun >= norm(v) - 1e-9
                        assert is_normal_to_hyperplane(norm, v, B) == expected, (norm, v, B)
                        checked += 1
        assert checked == 759

    def test_v_in_span_rejected(self):
        with pytest.raises(ValueError):
            is_normal_to_hyperplane(Norm.euclidean(), (1, 1, 0),
                                    [(1, 0, 0), (0, 1, 0)])

    def test_degenerate_basis_rejected(self):
        with pytest.raises(ValueError):
            is_normal_to_hyperplane(Norm.euclidean(), (0, 0, 1),
                                    [(1, 0, 0), (2, 0, 0)])


class TestTolerances:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            Tolerances(eps_geom=0)
