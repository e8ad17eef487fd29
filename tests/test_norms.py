import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkcenters import (Norm, Tolerances, is_birkhoff_orthogonal, is_isosceles_orthogonal,
                         solve_circumcenter)
from minkcenters.verify import random_polyhedral_norm, random_simplex

TOL = Tolerances()


def vectors(d, lo=-10, hi=10):
    return st.lists(st.floats(lo, hi), min_size=d, max_size=d).map(np.array)


class TestEval:
    def test_l1(self):
        assert Norm.lp(1)((3, -4)) == pytest.approx(7)

    def test_euclidean(self):
        assert Norm.euclidean()((3, 4)) == pytest.approx(5)

    def test_cross_polytope_matches_l1(self):
        for scale in (1e-12, 1.0, 1e12):  # the polytope checks are scale-free
            cross = Norm.polyhedral(scale * np.array([(1, 0), (-1, 0), (0, 1), (0, -1)]))
            assert cross((3, -4)) == pytest.approx(7 / scale, rel=1e-12)

    def test_cube_matches_linf(self):
        cube = Norm.polyhedral([(1, 1), (1, -1), (-1, 1), (-1, -1)])
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=2) * 5
            assert cube(v) == pytest.approx(np.abs(v).max(), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_polytope_rows_in_any_layout(self, d):
        # the same rows give the same values one by one, in an (n, m, d)
        # stack and in an F-ordered (n, d) view, as the grid oracle passes
        rng = np.random.default_rng(d)
        norm = random_polyhedral_norm(d, rng)
        S = rng.normal(size=(30, 4, d))
        rows = np.array([norm(v) for v in S.reshape(-1, d)]).reshape(30, 4)
        assert isinstance(norm(S[0, 0]), float)
        X = np.asfortranarray(S[:, 1])
        assert not X.flags.c_contiguous
        np.testing.assert_allclose(norm(S), rows, rtol=1e-15, atol=0)
        np.testing.assert_allclose(norm(X), rows[:, 1], rtol=1e-15, atol=0)

    def test_dimension_mismatch(self):
        cross = Norm.polyhedral([(1, 0), (-1, 0), (0, 1), (0, -1)])
        with pytest.raises(ValueError):
            cross((1, 2, 3))

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            Norm.lp(0.5)

    def test_asymmetric_ball_rejected(self):
        # the second would give ||(0, 1)|| = 1e10 and ||(0, -1)|| = 3.3e9
        for ball in ([(1, 0), (-2, 0), (0, 1), (0, -1)],
                     [(1e-10, 0), (0, 1e-10), (-1e-10, 0), (0, -3e-10)]):
            with pytest.raises(ValueError, match="symmetric"):
                Norm.polyhedral(ball)

    def test_flat_ball_rejected(self):
        with pytest.raises(ValueError):
            Norm.polyhedral([(1, 0), (-1, 0)])

    def test_json_roundtrip(self):
        for norm in (Norm.euclidean(), Norm.lp(3), Norm.lp(math.inf),
                     Norm.polyhedral([(1, 0), (-1, 0), (0, 1), (0, -1)])):
            again = Norm.from_json(norm.to_json())
            v = np.array([0.3, -1.7])
            assert again(v) == pytest.approx(norm(v))

    def test_infinite_exponent_only_by_name(self):
        # json reads Infinity and 1e999 as the float inf: no exponent
        for norm in (Norm.lp(math.inf), Norm.from_json({"kind": "lp", "p": "inf"})):
            assert norm((3, -4)) == 4
        for p in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="lp exponent must be finite"):
                Norm.from_json({"kind": "lp", "p": p})

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


class TestGradient:
    @pytest.mark.parametrize("norm", [Norm.lp(1.5), Norm.lp(3), Norm.lp(4), Norm.euclidean()])
    def test_matches_central_differences(self, norm):
        X = np.random.default_rng(1).normal(size=(20, 4))
        h = 1e-6
        E = np.eye(4)
        fd = np.stack([(norm(X + h * e) - norm(X - h * e)) / (2 * h) for e in E], axis=1)
        assert np.allclose(norm.gradient(X), fd, atol=1e-8)

    @pytest.mark.parametrize("norm", [Norm.lp(1.5), Norm.lp(3), Norm.euclidean()])
    def test_zero_row_gets_zero_gradient(self, norm):
        G = norm.gradient([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])
        assert np.array_equal(G[0], np.zeros(3))
        assert np.all(np.isfinite(G))

    @pytest.mark.parametrize("norm", [Norm.lp(1.2), Norm.lp(1.5), Norm.lp(2), Norm.euclidean(),
                                      Norm.lp(3), Norm.lp(4)])
    def test_supplied_norms_give_the_same_gradient(self, norm):
        # Newton passes the norms it has just evaluated at the same rows
        X = np.random.default_rng(2).normal(size=(9, 4))
        X[[0, 5]] = 0.0
        assert np.array_equal(norm.gradient(X, norm(X)), norm.gradient(X))

    def test_subgradients_read_the_gradient(self):
        x = np.array([0.3, -1.2, 2.0])
        for norm in (Norm.lp(1.5), Norm.lp(3), Norm.euclidean()):
            assert np.array_equal(norm.subgradients(x, TOL.eps_geom), norm.gradient(x[None]))

    @pytest.mark.parametrize("norm", [Norm.lp(1), Norm.lp(math.inf),
                                      Norm.polyhedral([(1, 0), (-1, 0), (0, 1), (0, -1)])])
    def test_non_smooth_norm_has_none(self, norm):
        with pytest.raises(ValueError, match="not smooth"):
            norm.gradient([[1.0, 2.0]])


CROSS = Norm.polyhedral([(1, 0), (-1, 0), (0, 1), (0, -1)])
SQUARE = Norm.polyhedral([(1, 1), (1, -1), (-1, 1), (-1, -1)])


def row_set(G):
    return G[np.lexsort(G.T[::-1])]


class TestTwoShapes:
    """l_1 and l_inf read their subgradients from facet rows as polytope
    norms do, and the Euclidean norm is l_2."""

    # x within a few eps_geom of a kink of the unit ball, where the active
    # rows depend on the tolerance
    BAND = [((1, 7.5e-10), (0, 1)), ((1, 4e-10), (0, 1)), ((-3, 2.9e-9), (0.2, -1)),
            ((1, 0), (0, 1)), ((2, 2 + 3e-9), (1, -1)), ((2, -2 + 1e-9), (1, 1)),
            ((1, 1 + 2.5e-9), (1, -1)), ((5, 1e-12), (1e-10, 1))]

    @pytest.mark.parametrize("x, y", BAND)
    @pytest.mark.parametrize("norm, polytope", [(Norm.lp(1), CROSS), (Norm.lp(math.inf), SQUARE)],
                             ids=["l1", "linf"])
    def test_lp_matches_its_polytope(self, norm, polytope, x, y):
        G, H = norm.subgradients(x, TOL.eps_geom), polytope.subgradients(x, TOL.eps_geom)
        assert G.shape == H.shape
        assert np.allclose(row_set(G), row_set(H), atol=1e-12)
        assert is_birkhoff_orthogonal(norm, x, y) == is_birkhoff_orthogonal(polytope, x, y)

    def test_euclidean_is_l2(self):
        eucl, l2 = Norm.euclidean(), Norm.lp(2)
        # np.linalg.norm of a single vector rounds differently from the power
        # sum for 2 of these 1000, e.g. (-3.77227516, 0.26062975, -0.02544532)
        X = np.random.default_rng(0).normal(size=(1000, 3))
        assert np.array_equal(eucl(X), l2(X))
        assert all(eucl(x) == l2(x) for x in X)
        assert np.array_equal(eucl.gradient(X), l2.gradient(X))
        eps = TOL.eps_geom
        assert all(np.array_equal(eucl.subgradients(x, eps), l2.subgradients(x, eps))
                   for x in X[:20])
        T = random_simplex(4, np.random.default_rng(4))
        assert np.array_equal(solve_circumcenter(eucl, T).center, solve_circumcenter(l2, T).center)

    def test_records_keep_their_kind(self):
        assert Norm.euclidean().to_json() == {"kind": "euclidean"}
        assert Norm.lp(2).to_json() == {"kind": "lp", "p": 2.0}

    def test_l1_subgradients_beyond_facet_cap(self):
        # facets(d) stops at d = 7, but only the 2^9 sign choices on the nine
        # near-zero coordinates can be active
        x = np.array([1.0] + [3e-11] * 9)
        G = Norm.lp(1).subgradients(x, TOL.eps_geom)
        assert G.shape == (512, 10)
        assert np.all(G[:, 0] == 1.0)
        assert len(np.unique(G, axis=0)) == 512


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

    @pytest.mark.parametrize("d", range(2, 9))
    def test_l1_closed_form_matches_enumerated_rows(self, d):
        # x has zeros and coordinates near eps ||x|| / 2, whose flips may
        # not fit into the slack together; both answers occur
        rng = np.random.default_rng(d)
        l1, eps = Norm.lp(1), TOL.eps_geom
        answers = set()
        for _ in range(200):
            x, y = rng.normal(size=(2, d))
            k = rng.choice(d, size=rng.integers(1, d), replace=False)
            x[k] = rng.choice([0.0, 0.1, 0.3, 0.45, 0.55], size=len(k)) * eps * l1(x)
            x[k] *= rng.choice([-1.0, 1.0], size=len(k))
            G = l1.subgradients(x, eps)
            assert (G @ x >= (1 - eps) * l1(x)).all()
            gy = G @ y
            expected = bool(gy.min() <= eps * l1(y) and gy.max() >= -eps * l1(y))
            assert is_birkhoff_orthogonal(l1, x, y) == expected
            answers.add(expected)
        assert answers == {True, False}

    def test_l1_builds_no_rows(self, monkeypatch):
        # e_1 at d = 18 has 17 free coordinates, 2^17 sign rows
        x, y = np.eye(18)[0], np.random.default_rng(0).normal(size=18)
        monkeypatch.setattr(Norm, "subgradients", None)
        start = time.perf_counter()
        assert is_birkhoff_orthogonal(Norm.lp(1), x, y)
        assert not is_birkhoff_orthogonal(Norm.lp(1), x, x + 0.01 * y)
        assert time.perf_counter() - start < 0.05

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
