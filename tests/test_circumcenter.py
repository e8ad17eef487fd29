import itertools
import math
import time

import numpy as np
import pytest

from minkcenters import (Norm, Simplex, grid_oracle_circumcenters, is_circumcenter,
                         solve_circumcenter)
from minkcenters.verify import random_polyhedral_norm, random_simplex

EUCL = Norm.euclidean()
L1 = Norm.lp(1)
LINF = Norm.lp(math.inf)

UNIT_TRIANGLE = Simplex([[1, 0], [0, 1], [-1, 0]])
TRIRECT = Simplex([[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]])


class TestIsCircumcenter:
    def test_euclidean_unit_triangle(self):
        assert is_circumcenter(EUCL, UNIT_TRIANGLE, (0, 0)) == pytest.approx(1.0)

    def test_l1_unit_triangle(self):
        assert is_circumcenter(L1, UNIT_TRIANGLE, (0, 0)) == pytest.approx(1.0)

    def test_off_center_rejected(self):
        # distances sqrt(1.25), 0.5, sqrt(1.25)
        assert is_circumcenter(EUCL, UNIT_TRIANGLE, (0, 0.5)) is None


class TestSolver:
    def test_trirectangular(self):
        res = solve_circumcenter(EUCL, TRIRECT)
        assert res.found
        assert np.allclose(res.center, (1, 1, 1), atol=1e-10)
        assert res.radius == pytest.approx(math.sqrt(3), abs=1e-10)

    def test_lp4_triangle_matches_grid_oracle(self):
        norm = Norm.lp(4)
        rng = np.random.default_rng(5)
        T = random_simplex(2, rng)
        res = solve_circumcenter(norm, T)
        assert res.found and res.residual <= 1e-9 * T.diameter
        clusters = grid_oracle_circumcenters(norm, T, 0.02)
        assert any(np.linalg.norm(p - res.center) <= 0.05 for p, _ in clusters)

    def test_linf_unit_triangle(self):
        res = solve_circumcenter(LINF, UNIT_TRIANGLE)
        assert res.found
        assert res.radius == pytest.approx(1.0, abs=1e-8)
        assert is_circumcenter(LINF, UNIT_TRIANGLE, (0, 0)) == pytest.approx(1.0)

    def test_self_consistency_random(self):
        rng = np.random.default_rng(6)
        for i in range(20):
            d = int(rng.integers(2, 5))
            T = random_simplex(d, rng)
            norm = [EUCL, Norm.lp(1.5), Norm.lp(3), LINF][i % 4]
            res = solve_circumcenter(norm, T)
            if res.found:
                assert is_circumcenter(norm, T, res.center) is not None

    def test_euclidean_fast_path_matches_optimizer(self):
        # Norm.lp(2) takes the optimization path, Norm.euclidean() the linear solve
        rng = np.random.default_rng(12)
        for d in range(2, 6):
            T = random_simplex(d, rng)
            fast = solve_circumcenter(EUCL, T)
            slow = solve_circumcenter(Norm.lp(2), T)
            assert np.allclose(fast.center, slow.center, atol=1e-8 * T.diameter)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(13)
        found = 0
        for i in range(40):
            d = int(rng.integers(2, 4))
            T = random_simplex(d, rng)
            norm = [Norm.lp(1.5), Norm.lp(3), LINF, random_polyhedral_norm(d, rng)][i % 4]
            v = rng.normal(size=d)
            res = solve_circumcenter(norm, T)
            shifted = solve_circumcenter(norm, Simplex(T.vertices + v))
            assert shifted.status == res.status
            if res.found:
                found += 1
                assert np.allclose(shifted.center, res.center + v, atol=1e-8 * T.diameter)
        assert found >= 30

    def test_smooth_success_rate(self):
        rng = np.random.default_rng(14)
        for i in range(60):
            d = int(rng.integers(2, 4))
            T = random_simplex(d, rng)
            norm = Norm.lp([1.5, 3, 4][i % 3])
            assert solve_circumcenter(norm, T).found


class TestGridOracle:
    def test_single_cluster_for_euclidean_triangle(self):
        clusters = grid_oracle_circumcenters(EUCL, UNIT_TRIANGLE, 0.01)
        assert len(clusters) == 1
        p, r = clusters[0]
        assert np.linalg.norm(p) <= 0.02 and r == pytest.approx(1.0, abs=0.03)

    def test_linf_flat_center_set(self):
        # obtuse isosceles triangle whose linf circumcenters form a segment
        T = Simplex([[2, 0], [-2, 0.5], [-2, -0.5]])
        step = 0.05
        V = T.vertices
        lo = V.min(axis=0) - T.diameter
        hi = V.max(axis=0) + T.diameter
        xs = np.arange(lo[0], hi[0] + step, step)
        ys = np.arange(lo[1], hi[1] + step, step)
        pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), -1).reshape(-1, 2)
        dd = np.max(np.abs(pts[:, None, :] - V[None]), axis=-1)
        r = dd.mean(axis=1)
        mask = np.abs(dd - r[:, None]).max(axis=1) <= 2 * step
        assert mask.sum() > 20  # a whole stretch of centers, not a point
        assert np.ptp(pts[mask][:, 1]) > 2.0
        clusters = grid_oracle_circumcenters(LINF, T, step)
        assert len(clusters) == 1  # one connected flat cluster
        res = solve_circumcenter(LINF, T)
        assert res.found and res.radius == pytest.approx(2.0, abs=1e-6)

    def test_empty_when_no_center_exists(self):
        # frozen l1 instance without a circumcenter
        T = Simplex([[0.13, -0.13], [0.64, 0.1], [-0.54, 0.36]])
        res = solve_circumcenter(L1, T)
        assert res.status == "none" and not res.found
        assert math.isfinite(res.residual)
        assert grid_oracle_circumcenters(L1, T, 0.02) == []

    def test_grid_cap(self):
        with pytest.raises(ValueError, match="grid too large"):
            grid_oracle_circumcenters(EUCL, TRIRECT, 1e-4)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            grid_oracle_circumcenters(EUCL, UNIT_TRIANGLE, 0)


def oracle_radius(norm, T, eps=1e-9):
    """Least circumradius by brute force, or None when no center exists.

    Tries every (d+1)-subset of facet rows (F_f, 1) as the tight set of a
    vertex (M, R) of {F_f.M + R >= h_f}, h_f = max_i F_f.A_i, and keeps the
    vertices where every simplex vertex attains (owns) some tight facet.
    """
    V, d = T.vertices, T.dim
    F = norm.facets(d)
    FA = F @ V.T
    h = FA.max(axis=1)
    owns = FA >= h[:, None] - eps
    Ft = np.hstack([F, np.ones((len(F), 1))])
    S = np.array(list(itertools.combinations(range(len(F)), d + 1)))
    A = Ft[S]
    regular = np.abs(np.linalg.det(A)) > 1e-9
    Z = np.linalg.solve(A[regular], h[S[regular]][..., None])[..., 0]
    slack = Z @ Ft.T - h
    tight = np.abs(slack) <= eps
    centers = (slack >= -eps).all(axis=1) & (tight @ owns).all(axis=1)
    return Z[centers, -1].min() if centers.any() else None


def integer_simplex(d, rng):
    while True:
        try:
            return Simplex(rng.integers(-2, 3, size=(d + 1, d)))
        except ValueError:
            continue


class TestPolyhedralExact:
    def test_matches_brute_force_oracle(self):
        # tie-heavy integer simplices: many vertices own several facets and
        # many polyhedron vertices are degenerate
        rng = np.random.default_rng(21)
        checked = found = 0
        for d, n in ((2, 60), (3, 60), (4, 40)):
            for norm in (LINF, L1):
                for _ in range(n):
                    T = integer_simplex(d, rng)
                    R = oracle_radius(norm, T)
                    res = solve_circumcenter(norm, T)
                    assert res.found == (R is not None), T.vertices
                    assert res.status in ("found", "none")
                    if res.found:
                        found += 1
                        assert abs(res.radius - R) <= 1e-9 * T.diameter, T.vertices
                        assert is_circumcenter(norm, T, res.center) is not None
                    checked += 1
        assert checked >= 300
        assert 0.2 * checked < found < 0.9 * checked  # both answers are exercised

    def test_merged_polytope_facets(self):
        # the cube and 4-cube unit balls are l_inf's: their merged facet rows
        # give l_inf's centers; a random polytope norm keeps every hull row
        rng = np.random.default_rng(22)
        for d in (3, 4):
            cube = Norm.polyhedral(list(itertools.product((1, -1), repeat=d)))
            for _ in range(20):
                T = integer_simplex(d, rng)
                res, ref = solve_circumcenter(cube, T), solve_circumcenter(LINF, T)
                assert res.status == ref.status, T.vertices
                if ref.found:
                    assert np.allclose(res.center, ref.center, atol=1e-12), T.vertices
        norm = random_polyhedral_norm(2, 0)
        for _ in range(20):
            T = random_simplex(2, rng)
            R, res = oracle_radius(norm, T), solve_circumcenter(norm, T)
            assert res.found == (R is not None)
            if res.found:
                assert abs(res.radius - R) <= 1e-9 * T.diameter

    def test_linf_centers_exactly_equidistant(self):
        # an earlier penalty-wall polish left every center 0.5 eps_geom off
        rng = np.random.default_rng(3)
        found = 0
        for _ in range(20):
            T = random_simplex(2, rng)
            res = solve_circumcenter(LINF, T)
            if res.found:
                found += 1
                assert res.residual <= 1e-12 * T.diameter
        assert found >= 10

    @pytest.mark.parametrize("d, norm", [
        (4, random_polyhedral_norm(4, np.random.default_rng(4))), (5, L1)])
    def test_higher_dimensions(self, d, norm):
        # vertices on one sphere of the norm, so a circumcenter exists
        rng = np.random.default_rng(d)
        U = rng.normal(size=(d + 1, d))
        T = Simplex(rng.normal(size=d) + 2.0 * U / norm(U)[:, None])
        res = solve_circumcenter(norm, T)
        assert res.found and res.starts_used == 1
        assert is_circumcenter(norm, T, res.center) == pytest.approx(res.radius)
        assert res.radius <= 2.0 + 1e-9 * T.diameter  # least radius

    def test_l1_dimension_cap(self):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="d <= 7"):
            solve_circumcenter(L1, random_simplex(8, np.random.default_rng(0)))
        assert time.perf_counter() - t0 < 1.0
