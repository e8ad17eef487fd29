import itertools
import math

import numpy as np
import pytest

from minkcenters import (Hyperplane, Line, Norm, Simplex, euler_point, full_report,
                         m_hyperplanes, monge_lines, monge_point, solve_circumcenter)
from minkcenters.centers import _monge_pairs
from minkcenters.norms import DEFAULT_TOL
from minkcenters.simplex import _indices, euclid_orthocenter
from minkcenters.verify import (REL_TOL, random_orthocentric_simplex, random_simplex,
                                simplex_claims)

EUCL = Norm.euclidean()
L1 = Norm.lp(1)

TRIRECT = Simplex([[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]])
M_TRIRECT = np.array([1.0, 1.0, 1.0])
UNIT_TRIANGLE = Simplex([[1, 0], [0, 1], [-1, 0]])
REGULAR = Simplex([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])


def centroid(T):
    return T.vertices.mean(axis=0)


def face_centroid(T, face):
    return T.vertices[list(face)].mean(axis=0)


def contains(h, p):
    return abs((p - h.base) @ h.normal()) <= 1e-9 * max(1.0, np.linalg.norm(p - h.base))


class TestEulerPoint:
    def test_family_on_trirectangular(self):
        V = TRIRECT.vertices
        for k, expected in ((4, (0.5, 0.5, 0.5)), (3, (1 / 3, 1 / 3, 1 / 3)),
                            (2, (0, 0, 0)), (1, (-1, -1, -1))):
            assert np.allclose(euler_point(V, M_TRIRECT, k), expected), k

    def test_centroid_independent_of_reference_point(self):
        rng = np.random.default_rng(1)
        V = rng.normal(size=(5, 4))
        for _ in range(5):
            assert np.allclose(euler_point(V, rng.normal(size=4), 5), V.mean(axis=0))


class TestMongePoint:
    def test_trirectangular(self):
        N = monge_point(TRIRECT, M_TRIRECT)
        assert np.allclose(N, (0, 0, 0))
        assert np.allclose(N, euclid_orthocenter(TRIRECT), atol=1e-9)

    def test_triangle_equals_complementary_point(self):
        rng = np.random.default_rng(0)
        T = random_simplex(2, rng)
        M = rng.normal(size=2)
        assert np.allclose(monge_point(T, M), euler_point(T.vertices, M, 1))

    def test_fixed_at_centroid(self):
        G = centroid(TRIRECT)
        assert np.allclose(monge_point(TRIRECT, G), G)


class TestComplementaryPoint:
    def test_trirectangular(self):
        P = euler_point(TRIRECT.vertices, M_TRIRECT, 1)
        assert np.allclose(P, (-1, -1, -1))
        # P_M = A_j + d (G_j - M) for every j
        for j in range(4):
            Gj = face_centroid(TRIRECT, [i for i in range(4) if i != j])
            assert np.allclose(P, TRIRECT.vertices[j] + 3 * (Gj - M_TRIRECT))

    def test_fixed_at_centroid(self):
        G = centroid(TRIRECT)
        assert np.allclose(euler_point(TRIRECT.vertices, G, 1), G)

    def test_right_triangle_orthocenter(self):
        T = Simplex([[0, 0], [1, 0], [0, 1]])
        assert np.allclose(euler_point(T.vertices, (0.5, 0.5), 1), (0, 0))


class TestFeuerbach:
    def test_trirectangular(self):
        rep = full_report(EUCL, TRIRECT, M_TRIRECT)
        F, r = rep.F_M, rep.feuerbach_radius
        assert np.allclose(F, (1 / 3, 1 / 3, 1 / 3))
        assert r == pytest.approx(math.sqrt(3) / 3)
        G0 = rep.facet_centroids[0]
        assert np.allclose(G0, face_centroid(TRIRECT, [1, 2, 3]))
        assert np.allclose(G0, (2 / 3, 2 / 3, 2 / 3))
        assert np.linalg.norm(G0 - F) == pytest.approx(math.sqrt(3) / 3)
        assert len(rep.facet_centroids + rep.division_points) == 2 * (TRIRECT.dim + 1)

    def test_non_circumcenter_rejected(self):
        with pytest.raises(ValueError, match="circumcenter"):
            full_report(EUCL, TRIRECT, (0, 0, 0))

    def test_l1_unit_triangle(self):
        rep = full_report(L1, UNIT_TRIANGLE, (0, 0))
        F, r = rep.F_M, rep.feuerbach_radius
        assert np.allclose(F, (0, 0.5))
        assert r == pytest.approx(0.5)
        assert L1(np.array([-0.5, 0.5]) - F) == pytest.approx(0.5)
        for p in rep.facet_centroids + rep.division_points:
            assert L1(np.asarray(p) - F) == pytest.approx(0.5, abs=1e-12)

    def test_division_points_at_centroid_center(self):
        # M = G makes L^M_i = G + (A_i - G)/d
        G = centroid(REGULAR)
        division_points = full_report(EUCL, REGULAR, G).division_points
        for i, L in enumerate(division_points):
            assert np.allclose(L, G + (REGULAR.vertices[i] - G) / 3)

    def test_division_points_divide_monge_to_vertex(self):
        # L^M_i divides [N_M, A_i] internally in the ratio 1:(d-1)
        rng = np.random.default_rng(2)
        for d in (2, 3, 4):
            T = random_simplex(d, rng)
            rep = full_report(Norm.lp(3), T)
            for A, L in zip(T.vertices, rep.division_points):
                assert np.allclose(L, rep.N_M + (A - rep.N_M) / d, atol=1e-12)


class TestMongeLines:
    def test_count_and_concurrency(self):
        lines = monge_lines(TRIRECT, M_TRIRECT)
        assert len(lines) == 6  # C(4,2) ridge/edge pairs, none skipped
        N = monge_point(TRIRECT, M_TRIRECT)
        assert all(l.distance(N) <= 1e-9 for l in lines)

    def test_skip_when_m_at_edge_midpoint(self):
        mid = face_centroid(TRIRECT, [0, 1])
        assert len(monge_lines(TRIRECT, mid)) == 5

    def test_centroid_reference(self):
        G = centroid(TRIRECT)
        for l in monge_lines(TRIRECT, G):
            assert l.distance(G) <= 1e-9


class TestRowsMatchPerRowReference:
    """monge_lines and m_hyperplanes split batch arrays into rows checked once
    per batch; a per-row construction with the checked constructors, one
    edge at a time, gives the same objects."""

    @staticmethod
    def reference(T, M):
        V, d = T.vertices, T.dim
        lines, planes = [], []
        for edge in itertools.combinations(range(d + 1), 2):
            direction = euler_point(V[list(edge)], M, 2) - M
            if not np.linalg.norm(direction) > DEFAULT_TOL.eps_geom * T.diameter:
                continue
            ridge = V[[i for i in range(d + 1) if i not in edge]]
            base = euler_point(ridge, M, d - 1)
            lines.append(Line(base, direction))
            _, sv, vh = np.linalg.svd(np.vstack([ridge[1:] - ridge[0], direction]))
            if sv[-1] > 1e-10 * T.diameter:
                planes.append(Hyperplane(base, vh[-1]))
        return lines, planes

    @pytest.mark.parametrize("norm", [EUCL, Norm.lp(3)], ids=["euclidean", "l3"])
    def test_same_rows_in_the_same_order(self, norm):
        rng = np.random.default_rng(20)
        for d in range(2, 9):
            for _ in range(5):
                T = random_simplex(d, rng)
                M = solve_circumcenter(norm, T).center
                ref_lines, ref_planes = self.reference(T, M)
                lines, planes = monge_lines(T, M), m_hyperplanes(T, M)
                assert type(lines) is list and type(planes) is list
                assert len(lines) == len(ref_lines) and len(planes) == len(ref_planes) >= d
                for line, ref in zip(lines, ref_lines):
                    assert type(line) is Line
                    assert line.base.tobytes() == ref.base.tobytes()
                    assert line.direction.tobytes() == ref.direction.tobytes()
                for plane, ref in zip(planes, ref_planes):
                    assert type(plane) is Hyperplane
                    assert plane.base.tobytes() == ref.base.tobytes()
                    assert np.abs(plane.normal() - ref.normal()).max() <= 1e-15

    def test_index_table_is_read_only(self):
        table = _indices(5)
        assert _indices(5) is table
        for rows in (table.edges, table.ridges, table.facets):
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1
        assert table.edges.tolist() == list(map(list, itertools.combinations(range(5), 2)))
        assert all(set(ridge) | set(edge) == set(range(5))
                   for ridge, edge in zip(table.ridges.tolist(), table.edges.tolist()))
        assert table.facets.tolist() == [[j for j in range(5) if j != i] for i in range(5)]


class TestMHyperplanes:
    def test_all_contain_monge_point(self):
        planes = m_hyperplanes(TRIRECT, M_TRIRECT)
        N = monge_point(TRIRECT, M_TRIRECT)
        assert len(planes) >= 3
        assert all(contains(h, N) for h in planes)

    def test_d2_degenerate_lines(self):
        M = np.array([0.0, 0.0])
        planes = m_hyperplanes(UNIT_TRIANGLE, M)
        N = monge_point(UNIT_TRIANGLE, M)
        assert len(planes) >= 2
        assert all(contains(h, N) for h in planes)

    def test_skip_at_midpoint(self):
        mid = face_centroid(TRIRECT, [0, 1])
        assert len(m_hyperplanes(TRIRECT, mid)) < 6

    def test_skip_when_direction_parallel_to_ridge(self):
        # M - (A_0 + A_1)/2 = A_3 - A_2 lies along ridge (2, 3): its Monge line
        # stays, its M-hyperplane goes
        V = TRIRECT.vertices
        M = (V[0] + V[1]) / 2 + (V[3] - V[2])
        N = monge_point(TRIRECT, M)
        lines = monge_lines(TRIRECT, M)
        planes = m_hyperplanes(TRIRECT, M)
        assert len(lines) == 6 and len(planes) == 5
        assert all(l.distance(N) <= 1e-9 for l in lines)
        assert all(contains(h, N) for h in planes)

    @staticmethod
    def assert_normals_orthogonal(T, M):
        """Each plane's normal is orthogonal to its ridge edges and direction,
        to 1e-12 relative; returns the planes."""
        ridges, bases, directions = _monge_pairs(T, M, DEFAULT_TOL)
        planes = m_hyperplanes(T, M)
        for h in planes:
            (j,) = np.flatnonzero(np.all(bases == h.base, axis=1))
            span = np.vstack([ridges[j, 1:] - ridges[j, 0], directions[j]])
            assert np.all(np.abs(span @ h.normal()) <= 1e-12 * np.linalg.norm(span, axis=1))
        return planes

    def test_normals_orthogonal_to_span(self):
        rng = np.random.default_rng(4)
        for d in range(2, 9):
            T = random_simplex(d, rng)
            assert len(self.assert_normals_orthogonal(T, rng.normal(size=d))) >= d
        # test_skip_when_direction_parallel_to_ridge's M: 5 planes
        V = TRIRECT.vertices
        M = (V[0] + V[1]) / 2 + (V[3] - V[2])
        assert len(self.assert_normals_orthogonal(TRIRECT, M)) == 5

    @pytest.mark.parametrize("norm", [EUCL, Norm.lp(3)], ids=["euclidean", "l3"])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_scaled_simplex_keeps_its_planes(self, norm, d):
        # the rank test reads the least singular value against the diameter
        # alone: at every scale at least d planes remain, and every claim holds
        V = random_simplex(d, np.random.default_rng(1)).vertices
        limits = {"circumcenter_selfconsistent": DEFAULT_TOL.eps_geom,
                  "m_hyperplane_count": 0.0, "euler_ratios": 1e-10}
        for scale in 10.0 ** np.arange(-12, 13):
            T = Simplex(scale * V)
            M = solve_circumcenter(norm, T).center
            assert len(m_hyperplanes(T, M)) >= d, scale
            for claim, residual in simplex_claims(norm, T, M).items():
                assert residual <= limits.get(claim, REL_TOL), (scale, claim)


class TestFullReport:
    def test_trirectangular_worked_instance(self):
        rep = full_report(EUCL, TRIRECT)
        assert np.allclose(rep.M, (1, 1, 1), atol=1e-10)
        assert np.allclose(rep.G, (0.5, 0.5, 0.5))
        assert np.allclose(rep.N_M, (0, 0, 0), atol=1e-10)
        assert np.allclose(rep.P_M, (-1, -1, -1), atol=1e-10)
        assert np.allclose(rep.F_M, (1 / 3, 1 / 3, 1 / 3), atol=1e-10)
        assert not rep.collapsed
        for key, value in rep.ratio_residuals.items():
            assert value == pytest.approx(0, abs=1e-10), key

    def test_regular_simplex_collapses(self):
        rep = full_report(EUCL, REGULAR)
        assert rep.collapsed
        assert rep.euler_line is None
        for p in (rep.G, rep.N_M, rep.P_M, rep.F_M):
            assert np.allclose(p, rep.M, atol=1e-10)

    def test_homothety_corollary(self):
        # points of the circumsphere map to the Feuerbach sphere at ratio -1/d
        rng = np.random.default_rng(3)
        rep = full_report(EUCL, TRIRECT)
        d = TRIRECT.dim
        for _ in range(20):
            u = rng.normal(size=3)
            Q = rep.M + rep.R * u / np.linalg.norm(u)
            image = rep.G - (Q - rep.G) / d
            assert np.linalg.norm(image - rep.F_M) == pytest.approx(rep.R / d, abs=1e-9)
            # equivalently: the 1:(d-1) division point of [N_M, Q]
            P = rep.N_M + (Q - rep.N_M) / d
            assert np.linalg.norm(P - rep.F_M) == pytest.approx(rep.R / d, abs=1e-9)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 4):
            T = random_simplex(d, rng)
            M = rng.normal(size=d)
            A = rng.normal(size=(d, d)) + 2 * np.eye(d)
            b = rng.normal(size=d)
            phiT = Simplex(T.vertices @ A.T + b)
            phiM = A @ M + b
            assert np.allclose(monge_point(phiT, phiM),
                               A @ monge_point(T, M) + b, atol=1e-9)
            assert np.allclose(euler_point(phiT.vertices, phiM, 1),
                               A @ euler_point(T.vertices, M, 1) + b, atol=1e-9)

    def test_orthocentric_crosscheck(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            T = random_orthocentric_simplex(rng)
            M = solve_circumcenter(EUCL, T).center
            H = euclid_orthocenter(T)
            assert np.allclose(monge_point(T, M), H, atol=1e-8 * T.diameter)


class TestSimplexClaims:
    def test_trirectangular_claims_hold(self):
        claims = simplex_claims(EUCL, TRIRECT, M_TRIRECT)
        assert set(claims) == {
            "circumcenter_selfconsistent", "monge_concurrency", "m_hyperplane_incidence",
            "m_hyperplane_count", "euler_ratios", "euler_collinear", "feuerbach_incidence"}
        assert claims["m_hyperplane_count"] <= 0
        for claim in set(claims) - {"m_hyperplane_count"}:
            assert 0 <= claims[claim] <= 1e-10, claim

    def test_non_circumcenter_checks_only_self_consistency(self):
        claims = simplex_claims(EUCL, TRIRECT, (0, 0, 0))
        assert list(claims) == ["circumcenter_selfconsistent"]
        assert claims["circumcenter_selfconsistent"] > 1e-9

    def test_unresolved_center_fails_self_consistency(self):
        # every distance from (1e17, 1e17) rounds to one float: the defect
        # reads 0 there, and the claim must fail instead
        T = Simplex([[0, 0], [1, 0], [0, 1]])
        claims = simplex_claims(Norm.lp(3), T, (1e17, 1e17))
        assert claims == {"circumcenter_selfconsistent": math.inf}

    def test_collapsed_euler_line_skips_euler_claims(self):
        claims = simplex_claims(EUCL, REGULAR, centroid(REGULAR))
        assert "euler_ratios" not in claims and "euler_collinear" not in claims
        assert claims["feuerbach_incidence"] <= 1e-10

    def test_array_claims_match_list_views(self):
        # the claims' array expressions against the Line and Hyperplane lists
        rng = np.random.default_rng(0)
        for p in (2, 1.5, 3):
            norm = Norm.lp(p)
            for d in range(2, 9):
                for _ in range(10):
                    T = random_simplex(d, rng)
                    M = solve_circumcenter(norm, T).center
                    claims = simplex_claims(norm, T, M)
                    N, diam = monge_point(T, M), T.diameter
                    planes = m_hyperplanes(T, M)
                    lines = max(line.distance(N) for line in monge_lines(T, M))
                    incidence = max(abs((N - h.base) @ h.normal()) for h in planes)
                    assert abs(claims["monge_concurrency"] * diam - lines) <= 1e-14 * diam
                    assert abs(claims["m_hyperplane_incidence"] * diam - incidence) <= 1e-14 * diam
                    assert claims["m_hyperplane_count"] == d - len(planes)
