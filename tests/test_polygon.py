import math

import numpy as np
import pytest

from minkcenters import (CyclicPolygon, Norm, Tolerances, parallelepiped_lift,
                         sample_cyclic_polygon, subpolygon_family,
                         verify_polygon_theorems)
from minkcenters import verify

EUCL = Norm.euclidean()
L1 = Norm.lp(1)


def euclidean_polygon(angles_deg, M=(0, 0), R=1.0):
    th = np.deg2rad(angles_deg)
    V = np.asarray(M, float) + R * np.stack([np.cos(th), np.sin(th)], axis=1)
    return CyclicPolygon(V, M, R, EUCL)


PENTAGON = euclidean_polygon([0, 50, 130, 200, 280])


def polygon_centers(P):
    rep = subpolygon_family(P)
    return rep.G, rep.F_M, rep.N_M, rep.P_M, rep.C_M


def test_square_all_centers_coincide():
    sq = CyclicPolygon([[1, 0], [0, 1], [-1, 0], [0, -1]], (0, 0), 1.0, L1)
    for c in polygon_centers(sq):
        assert np.allclose(c, (0, 0), atol=1e-12)


def test_pentagon_center_formulas():
    s = np.sum(PENTAGON.vertices - PENTAGON.M, axis=0)
    G, F, N, P, C = polygon_centers(PENTAGON)
    M = PENTAGON.M
    assert np.allclose(G, M + s / 5)
    assert np.allclose(F, M + s / 4)
    assert np.allclose(N, M + s / 3)
    assert np.allclose(P, M + s)
    assert np.allclose(C, M + s / 2)
    rep = subpolygon_family(PENTAGON)
    for i, v in enumerate(PENTAGON.vertices):
        r = v - M
        assert np.allclose(rep.sub_complementary[i], P - r)
        assert np.allclose(rep.sub_spatial[i], C - r / 2)
        assert np.allclose(rep.sub_monge[i], M + (s - r) / 2)
        assert np.allclose(rep.sub_centroids[i], (PENTAGON.vertices.sum(axis=0) - v) / 4)
    assert np.allclose(rep.circles["sub_monge"][0], M + s / 2)


def test_cm_is_midpoint_of_mp():
    rep = subpolygon_family(PENTAGON)
    assert np.allclose(rep.C_M, 0.5 * (PENTAGON.M + rep.P_M), atol=1e-12)


def test_subpolygon_identities_l1():
    P = sample_cyclic_polygon(L1, (0, 0), 1.0, 5, rng=3)
    rep = subpolygon_family(P)
    for i, (v, sub) in enumerate(zip(P.vertices, rep.sub_complementary)):
        # P_M = P_M^i + (A_i - M)
        assert np.allclose(rep.P_M, sub + (v - P.M), atol=1e-12)
        assert L1(rep.P_M - sub) == pytest.approx(P.R, abs=1e-9)


def test_monge_concurrency_ratio():
    rep = subpolygon_family(PENTAGON)
    d = PENTAGON.d
    for a, q in zip(PENTAGON.vertices, rep.sub_monge):
        assert np.allclose(rep.N_M, a + (d - 2) / (d - 1) * (q - a), atol=1e-10)


def test_midpoints_on_half_radius_circle():
    rep = subpolygon_family(PENTAGON)
    for e in rep.midpoints:
        assert np.linalg.norm(e - rep.C_M) == pytest.approx(PENTAGON.R / 2, abs=1e-10)


def test_euclidean_pentagon_theorems():
    checks = verify_polygon_theorems(PENTAGON)
    assert len(checks) == 7
    for claim, (ok, residual) in checks.items():
        assert ok and residual <= 1e-9, claim


def test_l1_pentagon_theorems():
    P = sample_cyclic_polygon(L1, (0.2, -0.1), 1.3, 5, rng=11)
    for claim, (ok, residual) in verify_polygon_theorems(P).items():
        assert ok and residual <= 1e-9 * P.R, claim


def test_square_theorems_trivially_concentric():
    sq = CyclicPolygon([[1, 0], [0, 1], [-1, 0], [0, -1]], (0, 0), 1.0, L1)
    for claim, (ok, residual) in verify_polygon_theorems(sq).items():
        assert ok, claim


def test_vertices_off_circle_rejected():
    with pytest.raises(ValueError, match="circle"):
        CyclicPolygon([[1, 0], [0, 1], [-1, 0], [0, -0.8]], (0, 0), 1.0, L1)


def test_nonconvex_rejected():
    # loose tolerance lets a vertex sit noticeably inside the hull
    linf = Norm.lp(math.inf)
    tol = Tolerances(eps_geom=1e-2)
    V = [[1, -1], [0.992, 0.0], [1, 1], [-1, 0.0]]
    with pytest.raises(ValueError, match="convex"):
        CyclicPolygon(V, (0, 0), 1.0, linf, tol)


def test_too_few_vertices_rejected():
    with pytest.raises(ValueError):
        CyclicPolygon([[1, 0], [0, 1], [-1, 0]], (0, 0), 1.0, EUCL)


class TestLift:
    def test_special_subsets(self):
        lift = dict((tuple(S), p) for S, p in parallelepiped_lift(PENTAGON))
        n = PENTAGON.d + 1
        rep = subpolygon_family(PENTAGON)
        assert np.allclose(lift[()], PENTAGON.M)
        assert np.allclose(lift[tuple(range(n))], rep.P_M)
        for i in range(n):
            assert np.allclose(lift[(i,)], PENTAGON.vertices[i])

    def test_main_diagonal_division_points(self):
        G, F, N, P, C = polygon_centers(PENTAGON)
        M = PENTAGON.M
        d = PENTAGON.d
        diag = P - M
        assert np.allclose(M + diag / (d + 1), G)
        assert np.allclose(M + diag / d, F)
        assert np.allclose(M + diag / (d - 1), N)
        assert np.allclose(M + diag / 2, C)

    def test_complement_symmetry(self):
        lift = dict((tuple(S), p) for S, p in parallelepiped_lift(PENTAGON))
        rep = subpolygon_family(PENTAGON)
        n = PENTAGON.d + 1
        full = tuple(range(n))
        for S, p in lift.items():
            comp = tuple(i for i in full if i not in S)
            assert np.allclose(lift[comp], rep.P_M - (p - PENTAGON.M), atol=1e-12)

    def test_subpolygon_consistency(self):
        lift = dict((tuple(S), p) for S, p in parallelepiped_lift(PENTAGON))
        rep = subpolygon_family(PENTAGON)
        n = PENTAGON.d + 1
        for i in range(n):
            S = tuple(j for j in range(n) if j != i)
            assert np.allclose(rep.sub_complementary[i], lift[S], atol=1e-12)
            assert np.allclose(rep.sub_spatial[i], 0.5 * (PENTAGON.M + lift[S]),
                               atol=1e-12)

    def test_blowup_cap(self):
        th = np.linspace(0, 2 * np.pi, 22, endpoint=False)
        V = np.stack([np.cos(th), np.sin(th)], axis=1)
        big = CyclicPolygon(V, (0, 0), 1.0, EUCL)
        with pytest.raises(ValueError, match="capped"):
            parallelepiped_lift(big)


def test_random_polygons_all_norms():
    rng = np.random.default_rng(17)
    norms = [EUCL, L1, Norm.lp(math.inf), Norm.lp(3)]
    for i in range(12):
        d = 3 + i % 6
        norm = norms[i % 4]
        P = sample_cyclic_polygon(norm, rng.normal(size=2), rng.uniform(0.5, 2), d + 1, rng)
        for claim, (ok, residual) in verify_polygon_theorems(P).items():
            assert residual <= 1e-8 * P.R, (claim, residual)


def test_sampler_rejects_too_few_vertices():
    with pytest.raises(ValueError, match="at least 4 vertices"):
        sample_cyclic_polygon(EUCL, (0, 0), 1.0, 3, rng=0)


def test_sampler_gives_up_with_a_value_error():
    # 2 pi / 0.15 < 42, so 42 angles always leave a gap below 0.15 rad
    with pytest.raises(ValueError, match="42-vertex .* 0.15 rad in 200 draws"):
        sample_cyclic_polygon(EUCL, (0, 0), 1.0, 42, rng=0)


def test_suite_polygon_fails_exactly_the_flagged_claims(monkeypatch):
    # the ok flag is the one verdict: a residual never overrules it
    flags = {"flagged": (False, 0.0), "clean": (True, 5e-8)}
    monkeypatch.setattr(verify, "verify_polygon_theorems", lambda P, tol: flags)
    stats = verify.suite_polygon(3, seed=0)
    assert stats["flagged"].failures == 3 and stats["clean"].failures == 0
    assert stats["clean"].max_residual > 0
