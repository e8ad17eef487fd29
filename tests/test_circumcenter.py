import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from minkcenters import (Norm, Simplex, circumcenter, grid_oracle_circumcenters,
                         is_circumcenter, solve_circumcenter)
from minkcenters.norms import Tolerances
from minkcenters.verify import random_polyhedral_norm, random_simplex

EUCL = Norm.euclidean()
L1 = Norm.lp(1)
LINF = Norm.lp(math.inf)

UNIT_TRIANGLE = Simplex([[1, 0], [0, 1], [-1, 0]])
TRIRECT = Simplex([[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]])
UNIT_TETRAHEDRON = Simplex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


class TestIsCircumcenter:
    def test_euclidean_unit_triangle(self):
        assert is_circumcenter(EUCL, UNIT_TRIANGLE, (0, 0)) == pytest.approx(1.0)

    def test_l1_unit_triangle(self):
        assert is_circumcenter(L1, UNIT_TRIANGLE, (0, 0)) == pytest.approx(1.0)

    def test_off_center_rejected(self):
        # distances sqrt(1.25), 0.5, sqrt(1.25)
        assert is_circumcenter(EUCL, UNIT_TRIANGLE, (0, 0.5)) is None

    def test_point_beyond_float_resolution_rejected(self):
        # at |M| = 1e17 every V - M rounds to -M, so the defect reads exactly 0
        T = Simplex([[0, 0], [1, 0], [0, 1]])
        M = np.array([1e17, 1e17])
        assert np.ptp(Norm.lp(3)(T.vertices - M)) == 0.0
        assert is_circumcenter(Norm.lp(3), T, M) is None
        # a far center that floats still resolve passes: a flat Euclidean
        # triangle with R = 2.5e3 * diameter
        flat = Simplex([[-1, 0], [1, 0], [0, 1e-4]])
        M = (0, (1e-8 - 1) / 2e-4)
        assert is_circumcenter(EUCL, flat, M) == pytest.approx(-M[1] + 1e-4)

    def test_solver_agrees_on_a_flat_triangle(self):
        # R = 5e5 * diameter: the float error of the distances (about 1e-10)
        # stays below eps_geom * diameter, so the exact center certifies
        flat = Simplex([[-1, 0], [1, 0], [0, 1e-6]])
        res = solve_circumcenter(EUCL, flat)
        assert res.found and res.radius == pytest.approx(5e5, rel=1e-6)
        assert is_circumcenter(EUCL, flat, res.center) == pytest.approx(res.radius)

    @pytest.mark.parametrize("norm", [EUCL, LINF, Norm.lp(3)], ids=["l2", "linf", "l3"])
    def test_solver_agrees_far_from_the_origin(self, norm):
        # at an offset of 1e8 the coordinates round at 1.5e-8, above
        # eps_geom * diameter, so no point can certify; at 1e3 they still do
        far = solve_circumcenter(norm, Simplex(UNIT_TRIANGLE.vertices + 1e8))
        assert far.status == "not_found" and far.residual == math.inf
        assert is_circumcenter(norm, Simplex(UNIT_TRIANGLE.vertices + 1e8), (1e8, 1e8)) is None
        near = solve_circumcenter(norm, Simplex(UNIT_TRIANGLE.vertices + 1e3))
        assert near.found and np.allclose(near.center, (1e3, 1e3), atol=1e-9)

    @pytest.mark.parametrize("p, scale", [(3, 1e-110), (200, 1e-3)], ids=["l3", "l200"])
    def test_underflowed_distances_never_found(self, p, scale):
        # every |x_k|^p underflows to 0, so every distance, R and the defect
        # read 0 at the first Newton point; no R = 0 center may certify
        T = Simplex(random_simplex(3, np.random.default_rng(1)).vertices * scale)
        assert np.all(Norm.lp(p)(T.vertices - T.vertices.mean(axis=0)) == 0.0)
        res = solve_circumcenter(Norm.lp(p), T)
        assert res.status == "not_found" and res.residual == math.inf
        assert is_circumcenter(Norm.lp(p), T, T.vertices.mean(axis=0)) is None


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
        # solve_circumcenter takes the linear solve for Norm.lp(2) too, so run
        # the smooth solver's Newton directly: from the linear solve's answer,
        # its first candidate, and from the centroid, its first fallback start
        rng = np.random.default_rng(12)
        l2 = Norm.lp(2)
        for d in range(2, 6):
            T = random_simplex(d, rng)
            fast = solve_circumcenter(EUCL, T)
            c = T.vertices.mean(axis=0)
            V = T.vertices - c
            for start in (fast.center - c, np.zeros(d)):
                M = c + circumcenter._newton(l2, V, start, T.diameter)
                assert np.allclose(fast.center, M, atol=1e-8 * T.diameter)

    def test_one_candidate_outside_smooth_lp(self):
        # the Euclidean and polyhedral solves propose one center, and a
        # decided "none" is answered before the loop
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(40):
            d = int(rng.integers(2, 4))
            T = random_simplex(d, rng)
            for norm in (EUCL, Norm.lp(2), L1, LINF, random_polyhedral_norm(d, rng)):
                res = solve_circumcenter(norm, T)
                assert res.starts_used == 1, (norm, res.status)
                seen.add((norm.smooth, res.status))
        assert seen >= {(True, "found"), (False, "found"), (False, "none")}

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
        l15 = Norm.lp(1.5)
        for i in range(60):
            T = random_simplex(6 + i % 3, rng)
            res = solve_circumcenter(l15, T)
            assert res.found and is_circumcenter(l15, T, res.center) is not None


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

    @pytest.mark.parametrize("step", [1e-6, 1e-7, 5e-324])
    def test_grid_cap_counts_before_building(self, step):
        # 3.8e6 or 3.8e7 cells a side: at 1e-6 the axes alone would take
        # 92 MB, at 1e-7 the cell count overflows int64, and at the least
        # float the cells per side overflow the float range
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="grid too large"):
                grid_oracle_circumcenters(EUCL, UNIT_TETRAHEDRON, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("T, step", [(UNIT_TRIANGLE, 0.25), (UNIT_TRIANGLE, 0.013),
                                         (TRIRECT, 0.1), (TRIRECT, 2 / 7)])
    def test_grid_cap_counts_the_built_axes(self, T, step):
        # UNIT_TRIANGLE at 0.25 has a whole number of steps per axis
        _, cells = row_major_oracle(EUCL, T, step)
        grid_oracle_circumcenters(EUCL, T, step, cell_cap=cells)
        with pytest.raises(ValueError, match=f"grid too large: {cells} cells"):
            grid_oracle_circumcenters(EUCL, T, step, cell_cap=cells - 1)

    @pytest.mark.parametrize("step", [0, -1, math.nan, math.inf])
    def test_bad_step(self, step):
        with pytest.raises(ValueError, match="grid_step must be finite and positive"):
            grid_oracle_circumcenters(EUCL, UNIT_TRIANGLE, step)


def row_major_oracle(norm, T, step):
    """The grid oracle written row-major: the grid as (cells, d) rows and one
    norm call on the (cells, d+1, d) differences, then the same mask,
    ndimage.label and best-defect point per cluster."""
    from scipy import ndimage

    V, d = T.vertices, T.dim
    lo, hi = V.min(axis=0) - T.diameter, V.max(axis=0) + T.diameter
    axes = [np.arange(lo[k], hi[k] + step, step) for k in range(d)]
    shape = tuple(len(a) for a in axes)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    dd = norm(pts[:, None, :] - V[None])
    r = dd.mean(axis=1)
    defect = np.abs(dd - r[:, None]).max(axis=1)
    labels, n = ndimage.label((defect <= 2.0 * step).reshape(shape))
    out = []
    for k in range(1, n + 1):
        cells = np.flatnonzero(labels.reshape(-1) == k)
        j = cells[np.argmin(defect[cells])]
        out.append((pts[j], float(r[j])))
    return out, len(pts)


class TestGridOracleLayout:
    """The blocked coordinate-major oracle returns the row-major oracle's
    clusters on a grid smaller than one block, on a grid of several blocks
    with a ragged last block, and on grids without a cluster."""

    NORMS = ["euclidean", "l4", "linf", "l1", "polytope"]

    @staticmethod
    def check(norm, T, step):
        """The row-major reference's clusters and cell count, after checking
        that the oracle returns the same clusters."""
        expected, cells = row_major_oracle(norm, T, step)
        clusters = grid_oracle_circumcenters(norm, T, step)
        assert len(clusters) == len(expected)
        for (p, r), (q, s) in zip(clusters, expected):
            assert np.array_equal(p, q)
            assert abs(r - s) <= 1e-12 * s
        return expected, cells

    @staticmethod
    def draw(name, d):
        rng = np.random.default_rng(20 + d)
        norm = {"euclidean": EUCL, "l4": Norm.lp(4), "linf": LINF, "l1": L1,
                "polytope": random_polyhedral_norm(d, rng)}[name]
        return norm, random_simplex(d, rng)

    @pytest.mark.parametrize("d, steps", [(2, 60), (3, 12)])
    @pytest.mark.parametrize("name", NORMS)
    def test_matches_row_major_reference(self, name, d, steps):
        # several blocks, the last one ragged
        norm, T = self.draw(name, d)
        expected, cells = self.check(norm, T, T.diameter / steps)
        assert expected  # every draw here has centers
        assert cells > 2 * circumcenter._BLOCK and cells % circumcenter._BLOCK

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("name", NORMS)
    def test_one_part_block(self, name, d):
        # a box side is at most 3 diameters, so it holds at most 3 * steps + 2 cells
        norm, T = self.draw(name, d)
        steps = int(circumcenter._BLOCK ** (1 / d) / 3) - 1
        expected, cells = self.check(norm, T, T.diameter / steps)
        assert expected and cells < circumcenter._BLOCK

    @pytest.mark.parametrize("norm, T, step", [
        (L1, Simplex([[0.13, -0.13], [0.64, 0.1], [-0.54, 0.36]]), 0.02),  # no center
        (EUCL, Simplex([[0, 0], [1, 0], [0.5, 0.01]]), 1 / 60),  # center 12.5 diameters out
    ])
    def test_no_cluster(self, norm, T, step):
        expected, cells = self.check(norm, T, step)
        assert expected == [] and cells > 2 * circumcenter._BLOCK


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


# smooth-certify simplices (perfbench/workloads.py, seed and instance index in
# the name) that the earlier least-squares multi-start missed; a smooth norm
# gives each a circumcenter
SEED1_290 = [  # lp3, d=5
    [0.7317258122996443, 0.664427574224462, -0.12622044170152058, 1.4960541306231758,
     1.178585361657134],
    [-0.03150615871576815, -0.1295064764521056, 1.3276972991829898, 0.12422101808380594,
     0.03625730583098158],
    [0.4746189209092696, 0.5150014596404768, 1.4286689083327913, -1.6872151765210612,
     -0.6831638957303654],
    [-0.8509463884977195, 1.90683404961918, 0.6020818067484801, 0.03818299369856067,
     1.0141314132844288],
    [-2.317926040192196, -0.2869408731133242, -0.4039521669386827, -1.8639511106470161,
     -0.16148898603872583],
    [-1.0033570124401296, -0.8036433493820244, 0.7725692891162546, 1.0392374880587074,
     0.1361417123955627],
]

SEED1_767 = [  # lp1.5, d=6
    [-1.8843752525810848, 1.1312959507738256, 1.0850456152369654, 0.13496074874592898,
     -0.33823834016196475, -0.543064186648728],
    [-2.4121414469377056, -0.7933610524563643, 0.008499284370222673, 1.666322954099883,
     -0.4524014565315428, 0.4391948444723043],
    [0.2341447254880267, 0.704003852042257, -0.33993625696761515, 1.9499793021550904,
     -1.6887222848737415, 1.5367780020900366],
    [1.5384957623979691, -0.2668850104095226, 0.3565033177567506, -0.9831449247732101,
     0.5810231436425102, -0.689845910967098],
    [0.7713189472605402, -1.1322640557287178, -1.518974535615908, 0.5010182981766871,
     0.7704933700386665, 0.9152232341233212],
    [0.27457188422367723, 0.2988622211049314, 0.029480845253353538, 0.11765806337137664,
     0.008446432429847849, -0.13643839534319957],
    [0.39498902367159733, -0.10598132466538245, 1.181549532610756, -0.17978843714538642,
     -1.3434936750815505, -0.8899644353370032],
]

SEED1_1945 = [  # lp1.5, d=8
    [0.5095622204627976, 0.6940411924404988, 1.016816333935253, -0.7380522844190887,
     0.47210165211506583, -1.6215765431382811, -1.0784769387383326, -0.692560350616861],
    [-1.781909507295293, 1.0525757371722047, 0.37707622405377694, -1.5400017437196318,
     -1.1086883544553838, -1.2556671884849275, 0.2358343783657661, 0.49465021353371535],
    [0.09479500157766878, 0.45138108919669434, -0.19235162665724778, -0.5776661573874284,
     -1.2455269631991315, 1.5058264263387768, 0.7154699901350141, 0.7032379640607477],
    [0.07552259859291718, -0.5857971853152028, -1.4724481688287658, 0.739854840064375,
     -0.3738961821770045, -1.103287567633394, 1.1785916584643807, 1.4005736874662134],
    [0.1665001982008554, -2.4046140445995285, 0.5835759467026599, -0.40829343678971997,
     -0.6745571996197195, -0.05196421245023196, 0.7641009299512878, -0.8254235695660497],
    [0.8844998799973256, 0.3018351878313719, -0.08138250805760033, -0.2143723598206407,
     -0.7814318828645851, 1.088461977005103, 0.1708819974669828, 0.11094436112915582],
    [0.5291777956259388, -0.44455626599047404, 0.15572974121301597, 1.5805371151429313,
     -1.1570466851406132, -1.0012169798751922, 0.2992810963438866, 1.3220224281812407],
    [0.33736545450897554, -1.2032690870523328, 0.22511863726986642, -0.9797747813758336,
     0.08366512540050892, -0.08875086573698411, -0.14680569394466458, -1.0567187599041765],
    [1.2390842084608624, 0.7663620051174737, 1.5456805187786724, -1.4445621793876722,
     -0.45420233522876274, -0.16371828734276764, 0.3388708046978815, 0.528512078054225],
]

SEED2_265 = [  # lp1.5, d=8
    [1.3708264407579311, -2.77171268028444, 0.37429054212712054, -0.315372228101814,
     1.3272846999486476, 0.7405425442234257, 0.9531414533152556, 0.4902548378427021],
    [-0.07046340331680143, -1.0354759240581795, -0.29924170216854534, 0.2764780733304918,
     1.7961745798251842, 0.20073399325789534, -1.1272677838791259, 0.29286244924967764],
    [0.900427390055633, 1.505561365227648, 1.2142252244098668, -0.2731272182209895,
     -0.2258814626217424, -2.2638425741055164, -0.4865622222589905, -1.8810289301294076],
    [-0.17156755749662977, 1.2540239750980349, 0.3740612849669551, -1.6290068210829391,
     0.7713269040970337, 0.5102875629197923, -1.584248585419533, -0.8549620642484856],
    [0.7900276548282215, 0.14735445050967172, 0.4146509052547059, -1.7280139016624754,
     0.022989707168086626, 0.7971718245930862, -0.7417792431456, -0.17367315863206237],
    [-0.3978666860112519, -0.1536066156440526, 0.17782754237650683, -1.385002478330717,
     0.18789677919764458, -0.3884609605520906, 1.9866775239441363, -0.16408148331868408],
    [0.09745191022301637, -0.6689184897864167, -0.1966310827258429, -1.1029836935097586,
     -0.43481058495490305, -0.656295566952083, -1.8803469036139682, -1.365228843830786],
    [-0.4489354722464204, 0.4707720521832, -0.924096435939296, -0.7228516830383401,
     -0.802084835512488, -1.3833181312673284, -0.28828819267088107, 1.2890983600533539],
    [-0.40297613458632014, -0.8603312666274637, 0.24429790717252564, 1.1217782556754323,
     1.141986782863238, 0.237890092511516, 1.1443023836827335, -1.28932775985977],
]

SEED2_598 = [  # lp1.5, d=5
    [-0.47674815471826765, -0.3175719426757109, 0.16607365489461465, -1.9686091680651108,
     -0.3860361966564658],
    [1.0713649972936732, 2.6044341545712175, 0.019279544168208797, 0.5146929390295214,
     -1.3011101953517137],
    [-0.7886942680994687, -0.6300035747129301, 0.191064334541712, -0.8444198135467442,
     1.0992310145881483],
    [-0.12265363770844397, 0.36559889873447143, -0.1241314307725741, 0.5385679725127756,
     1.3772620158810498],
    [-0.49820636283752584, -0.07867362057174775, 0.3663955337699701, 0.8312137897876305,
     -1.0583516481717512],
    [-0.22799090101144862, 0.1753387425389451, 0.5081185887746872, 2.3825697633477896,
     -0.19990390178062573],
]

SEED3_167 = [  # lp3, d=8
    [0.52084917404811, -0.6823938598476642, -0.6271253898750696, -2.2813671557038004,
     -0.08094191699264233, -0.41998372633829356, -0.6837112832593689, 0.7327607975520923],
    [1.2705385992463434, -1.8895345195404238, 0.40570964857771935, 0.44624580583463813,
     -0.6414676680400082, -0.7393257045294999, 1.7395951405629384, 0.740399772954896],
    [2.1564114087998054, -0.7910337397379017, -1.0853613843127268, -0.2810711740958493,
     0.8740527929848296, 1.3317290156540624, 1.9887403144941322, -0.6612593734262203],
    [-1.47274148402545, 1.005771534472939, 0.9144768706778339, 0.5816971742769128,
     1.4728405559685487, -0.8237137092863562, -1.655031425439686, 2.093451598241413],
    [0.31126148433817646, -0.3052235137501672, 0.8207834951641584, 2.2696313048362637,
     0.19282432802993843, 1.778733660816933, 0.10148503722977761, 1.9686290164760754],
    [0.20561059836164966, 1.2392641489366183, -0.005673936397766219, 0.6271431090317308,
     0.24211660301950236, -0.41594978718892406, 0.12067936295819677, 0.7307035155603182],
    [-0.10527106907838579, -0.5388365978980394, 0.4382268288296816, 1.489734240656444,
     -0.07796918871925551, -1.0161038279797805, -0.8898145230437738, 0.032523498295893044],
    [1.6848778022004791, -1.0555013064634042, 1.1689560608732887, -0.19134038388851396,
     -0.6864349461573213, -0.5414464248223025, 1.1800532995109927, -0.4758098494225596],
    [1.3906669524729063, 2.0761651149119444, -0.8839995452506527, -1.3202063112003959,
     -1.795446727910972, 0.542234998429129, -0.9140051975070744, -0.6517276147901305],
]


SEED7_6732 = [  # lp1.5, d=7: its center, 0.81 diameters out, was missed by the
    # earlier p-continuation and least-squares stages; capped Newton reaches it from a vertex
    [0.40222348431339155, -0.2952489087024162, 0.1770771541490921, 0.8950036072659008,
     1.6736679014054647, 2.282716139847057, 0.39531938916693116],
    [-1.5586643641516864, 1.326285397686083, -0.11481928141913533, -0.07360912545411999,
     -0.6962511703865368, -0.8267723771324268, 1.8165517402202616],
    [0.2650535521167755, -1.664100863198255, 0.4956845021869424, -0.03971763618752979,
     -1.7522177412449953, 0.6968834556707079, -0.10875220177054697],
    [0.7332881350756009, -0.49476414969490845, 1.0252956859909763, 0.7051243373882001,
     -0.6468035912805544, 1.1115019594746138, -0.3458538927580986],
    [-1.6728891351746842, 0.22313816829042765, 0.08453428252421398, -1.9209379451666497,
     0.46079836432820337, -0.039909427409780006, 0.9429546939082127],
    [-1.0705270387730357, 0.6574983053119374, 0.4389415963686715, -1.5566564647799004,
     0.5794590748335666, -1.0406236856448974, 0.16777397719319234],
    [0.7517752158939656, -0.6703480584777103, 0.7937320910967417, 0.3502979417151333,
     1.2777194935525473, 1.9953591748241635, -0.40283710867396927],
    [-0.10876563018484876, 0.891663121869457, -0.9107339472719491, 2.024747552135262,
     -0.19914279508638, 0.1538629434062458, 1.0973314136063892],
]


# `minkcenters verify --suite simplex --norms l1.5,l3,l4,l1.2 --dims 2,3,4,5,6,7,8
# --seed 2`, stream index 1875 (l1.2, d=8): Newton's first point certifies on
# the centred vertices but not on these, where is_circumcenter reads it
SEED2_1875 = [
    [-1.0648438819219759, -0.9301874415097227, 3.032723973607885, -1.126484392936713,
     0.39065711000976505, 0.1038977720906727, -0.8773178400666134, -0.164693603504721],
    [-0.2099775157393788, -0.09102670977731804, 0.1341467205678258, 0.9490886896294757,
     1.4182680553173184, 0.7787126227340598, -0.27837904318029605, -2.7528889907696414],
    [1.2429433098270957, -0.45628961173305094, 0.4242007124774367, -0.421798128490573,
     -0.7857723780272438, -1.2449011800577687, 1.175005930182106, 0.9083734122587129],
    [0.10096302516343042, 0.5397359343212839, 1.1607229205310585, 0.9909013523431609,
     1.1277974190695341, 1.8575607734897215, -0.7400294816515447, 0.8664225000442279],
    [-1.8086524888567754, -0.780301801974774, -0.4537748334834987, 0.22327897755534304,
     0.6143280565832205, -0.11934816974076755, -1.7838552875596572, 0.6552373312583704],
    [-1.06343549874256, -1.3703395092043076, -0.8665703189291204, 0.09550967364651945,
     0.06375859578976745, 0.09180236631048164, -0.17335389895224537, -0.5256488384836325],
    [-0.6128028651593346, 0.45348623610504, -0.0025024680405928545, -1.3046819044781879,
     -0.3469673442278378, 0.20236489951656764, 1.5030369398589027, 0.142508367640836],
    [-0.26926801555456487, 0.3981742151846613, 0.12916901739143705, 0.481453363691958,
     0.1370103850760577, 0.29405695515322394, 1.0355764260140568, -0.5045326601587189],
    [0.9248215638295209, -0.5521825616791682, -0.18457495595408205, 1.843580088517249,
     0.1179683644936829, 0.8611098968020114, 0.6998544456793043, -0.04055890016508411],
]


# the same run, stream index 1145 (l1.2, d=6): its center lies at
# R = 1.11e7 * diameter, where rounding alone exceeds the default eps_geom
SEED2_1145 = [
    [-0.731579682842691, 1.1027606696427676, 0.9907733977073537, 0.46238530044133,
     0.9705053700036383, 2.5387151253314446],
    [-0.890246693736338, 0.5209038620342499, 0.36392352445121573, 1.7672687608980107,
     0.6585360372049203, -1.0685977279625172],
    [-0.7501106701255899, 1.1639731620277531, 0.14259964808899703, 1.2513759824926036,
     -0.9917012227826285, -0.8559239149566711],
    [-1.0879465270230064, 0.490834686781564, -0.8261667224043107, 2.123559944635453,
     0.04713189418694228, 0.8449581567501029],
    [-0.4982968316927387, 1.2998526139369686, -1.1424909280382018, -0.32589697696804343,
     1.2046631945226483, -1.4069047608538359],
    [0.4681016428398706, 1.2198326224918925, 0.06586900079720105, 0.12630048354707127,
     -0.11777762644670059, 0.5666902589106635],
    [2.225049369795948, 0.5670814180228946, 0.6260269444694074, 0.5143175697482006,
     -0.19747383337340768, 0.09999815994031976],
]


class TestSmoothSolver:
    @pytest.mark.parametrize("p, V", [(1.5, SEED1_767), (1.5, SEED1_1945), (1.5, SEED2_265),
                                      (1.5, SEED2_598), (3, SEED3_167), (1.5, SEED7_6732),
                                      (1.2, SEED2_1875)],
                             ids=["s1-767", "s1-1945", "s2-265", "s2-598", "s3-167", "s7-6732",
                                  "verify-s2-1875"])
    def test_former_misses_found(self, p, V):
        norm, T = Norm.lp(p), Simplex(V)
        res = solve_circumcenter(norm, T)
        assert res.found
        assert res.residual <= 1e-9 * T.diameter
        assert is_circumcenter(norm, T, res.center) == pytest.approx(res.radius)

    def test_far_center_beyond_default_tolerance(self):
        # found at the first Newton start once eps_geom is 1e-8, but at the
        # default tolerance no point so far out can certify
        norm, T = Norm.lp(1.2), Simplex(SEED2_1145)
        res = solve_circumcenter(norm, T, Tolerances(1e-8))
        assert res.found and res.starts_used == 1
        assert res.radius / T.diameter == pytest.approx(1.11e7, rel=0.01)
        assert is_circumcenter(norm, T, res.center) is None
        # every start fails: the Euclidean center, the centroid, the vertices
        # and the random starts
        res = solve_circumcenter(norm, T)
        assert res.status == "not_found"
        assert res.starts_used == 2 + len(T.vertices) + circumcenter.RANDOM_STARTS

    def test_first_candidate_draws_no_start_list(self, monkeypatch):
        # the seeded start list is drawn only after the Newton run from the
        # Euclidean center fails to certify
        found, missed = random_simplex(4, np.random.default_rng(0)), Simplex(SEED7_6732)

        def no_start_list(*args, **kwargs):
            raise AssertionError("start list drawn")

        monkeypatch.setattr(np.random, "default_rng", no_start_list)
        res = solve_circumcenter(Norm.lp(3), found)
        assert res.found and res.starts_used == 1
        with pytest.raises(AssertionError, match="start list drawn"):
            solve_circumcenter(Norm.lp(1.5), missed)

    def test_non_unique_center(self):
        # three certified l3 centers, R = 3.159, 3.203 and 7.058
        norm, T = Norm.lp(3), Simplex(SEED1_290)
        centers = np.array([
            [0.68649126983, 0.338478213061, -1.710633781385, -0.922270713356, -1.195459491916],
            [0.132867845922, 1.441963403217, -1.503792621437, 0.06483368428, -1.807340655938],
            [-0.608574259749, 3.953708877568, -3.4580762893, 2.850563683518, -5.317549936596]])
        radii = [is_circumcenter(norm, T, M) for M in centers]
        assert radii == pytest.approx([3.159369, 3.20275, 7.058048], abs=1e-6)
        res = solve_circumcenter(norm, T)
        assert res.found and res.starts_used == 1
        assert is_circumcenter(norm, T, res.center) == pytest.approx(res.radius)
        assert np.linalg.norm(centers - res.center, axis=1).min() <= 1e-9 * T.diameter
