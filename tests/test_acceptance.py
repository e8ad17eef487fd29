"""End-to-end acceptance suite.

Each test covers one headline property, prints a single PASS/FAIL line
(bypassing capture so the line always shows up in the run log), and asserts
at the stated tolerance.  Criteria 1-4, 6, 7, 9 and the soundness half of
criterion 8 read the ClaimStats of minkcenters.verify's suites, the same
checkers behind `minkcenters verify`: suite_simplex(500, seed=2024), run once
and timed against the 60 s budget, and suite_polygon(300, seed=7).
"""

import math
import time

import numpy as np
import pytest

from minkcenters import Norm, Simplex, full_report, grid_oracle_circumcenters, solve_circumcenter
from minkcenters.simplex import euclid_orthocenter
from minkcenters.verify import random_simplex, suite_polygon, suite_simplex

EUCL = Norm.euclidean()

BATCH_SIZE = 500
POLYGONS = 300


@pytest.fixture
def emit(capsys):
    """One PASS/FAIL line per criterion, written past pytest's capture."""

    def _emit(number, ok, detail):
        line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
        with capsys.disabled():
            print("\n" + line)
        assert ok, line

    return _emit


@pytest.fixture(scope="module")
def simplex_stats():
    """500 random simplices, mixed dimensions and norms: solved, checked and
    timed once."""
    t0 = time.perf_counter()
    stats = suite_simplex(BATCH_SIZE, seed=2024)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"simplex suite took {elapsed:.1f}s"
    # nonexistence is expected, not dominant
    assert stats["circumcenter_selfconsistent"].trials >= BATCH_SIZE // 2
    return stats


@pytest.fixture(scope="module")
def polygon_stats():
    return suite_polygon(POLYGONS, seed=7)


def test_criterion_1_monge_concurrency(simplex_stats, emit):
    st = simplex_stats["monge_concurrency"]
    emit(1, st.passed and st.max_residual <= 1e-8,
         f"Monge lines concurrent at N_M on {st.trials} solved simplices, "
         f"max residual {st.max_residual:.2e} (tol 1e-8 x diameter)")


def test_criterion_2_m_hyperplanes(simplex_stats, emit):
    st = simplex_stats["m_hyperplane_incidence"]
    # the count claim's residual is d minus the number of M-hyperplanes
    count = simplex_stats["m_hyperplane_count"]
    ok = st.passed and st.max_residual <= 1e-8 and count.passed and count.max_residual <= 0
    emit(2, ok, f"M-hyperplanes contain N_M on {st.trials} solved simplices, max residual "
         f"{st.max_residual:.2e}, max count deficit {count.max_residual:g} (need 0)")


def test_criterion_3_euler_ratios(simplex_stats, emit):
    st = simplex_stats["euler_ratios"]
    emit(3, st.passed and st.max_residual <= 1e-10,
         f"Euler-line ratios on {st.trials} non-collapsed instances, "
         f"max relative error {st.max_residual:.2e} (tol 1e-10)")


def test_criterion_4_feuerbach_sphere(simplex_stats, emit):
    st = simplex_stats["feuerbach_incidence"]
    emit(4, st.passed and st.max_residual <= 1e-8,
         f"all 2(d+1) incidence points at norm-distance R/d from F_M on {st.trials} "
         f"simplices, max relative defect {st.max_residual:.2e} (tol 1e-8)")


def test_criterion_5_worked_tetrahedron(emit):
    T = Simplex([[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]])
    res = solve_circumcenter(EUCL, T)
    rep = full_report(EUCL, T, res.center)
    H = euclid_orthocenter(T)
    errs = [
        np.abs(np.asarray(rep.M) - (1, 1, 1)).max(),
        abs(rep.R - math.sqrt(3)),
        np.abs(np.asarray(rep.N_M)).max(),
        np.abs(np.asarray(rep.N_M) - H).max(),
        np.abs(np.asarray(rep.F_M) - (1 / 3, 1 / 3, 1 / 3)).max(),
        abs(rep.feuerbach_radius - math.sqrt(3) / 3),
    ]
    worst = max(errs)
    emit(5, res.found and worst <= 1e-10,
         f"worked tetrahedron: M=(1,1,1), R=sqrt(3), N_M=orthocenter=(0,0,0), "
         f"F_M=(1/3,1/3,1/3), r=sqrt(3)/3, max error {worst:.2e} (tol 1e-10)")


def test_criterion_6_orthocentric_crosscheck(simplex_stats, emit):
    st = simplex_stats["orthocenter_crosscheck"]
    emit(6, st.passed and st.trials >= 100 and st.max_residual <= 1e-8,
         f"{st.trials} orthocentric tetrahedra: Monge point = Euclidean orthocenter, "
         f"max residual {st.max_residual:.2e} (tol 1e-8)")


def test_criterion_7_polygon_theorems(polygon_stats, emit):
    ok = all(st.passed and st.trials == POLYGONS for st in polygon_stats.values())
    worst = max(st.max_residual for st in polygon_stats.values())
    emit(7, ok and worst <= 1e-8,
         f"{POLYGONS} cyclic polygons (degrees 4-9, four norms): all "
         f"{len(polygon_stats)} incidence and concurrency claims, "
         f"max residual {worst:.2e} (tol 1e-8 x R)")


def test_criterion_8_solver_soundness(simplex_stats, emit):
    sound = simplex_stats["circumcenter_selfconsistent"].passed

    rng = np.random.default_rng(8)
    successes = 0
    for i in range(200):
        norm = Norm.lp((1.5, 2.5, 3, 4)[i % 4])
        T = random_simplex((2, 3)[i % 2], rng)
        successes += solve_circumcenter(norm, T).found

    T = Simplex([[1, 0], [0, 1], [-1, 0]])
    l1 = Norm.lp(1)
    res = solve_circumcenter(l1, T)
    dists = l1(T.vertices - res.center)
    dist_err = np.abs(dists - 1.0).max()
    clusters = grid_oracle_circumcenters(l1, T, 0.02)
    corroborated = any(np.linalg.norm(p - res.center) <= 0.05 for p, _ in clusters)

    ok = sound and successes == 200 and res.found and dist_err <= 1e-8 and corroborated
    emit(8, ok, f"every found center passes is_circumcenter ({sound}); smooth-lp "
         f"success {successes}/200; l1 unit triangle distance set {{1,1,1}} "
         f"+/- {dist_err:.2e}, grid oracle corroborates ({corroborated})")


def test_criterion_9_affine_invariance(simplex_stats, emit):
    st = simplex_stats["affine_invariance"]
    emit(9, st.passed and st.trials >= BATCH_SIZE and st.max_residual <= 1e-8,
         f"N_M and P_M (euler_point at k = d-1 and 1) commute with {st.trials} random affine "
         f"maps, max residual {st.max_residual:.2e} (tol 1e-8)")


def regular_simplex(d, rng, scale):
    """Regular d-simplex: random rotation/translation of the standard-basis
    simplex in the sum-one hyperplane of R^(d+1), mapped down to R^d."""
    E = np.eye(d + 1) - 1.0 / (d + 1)  # centered vertices, rank d
    B = np.linalg.svd(E, full_matrices=False)[2][:d]  # orthonormal basis rows
    V = E @ B.T  # (d+1, d), pairwise equidistant
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return Simplex(scale * V @ Q.T + rng.normal(size=d))


def test_criterion_10_collapse_detection(emit):
    rng = np.random.default_rng(10)
    worst, all_flagged = 0.0, True
    for i in range(20):
        d = 2 + i % 4
        T = regular_simplex(d, rng, scale=rng.uniform(0.5, 3.0))
        rep = full_report(EUCL, T)  # Euclidean center is the centroid: sum = 0
        all_flagged &= rep.collapsed
        spread = max(np.linalg.norm(np.asarray(p) - rep.M)
                     for p in (rep.G, rep.N_M, rep.P_M, rep.F_M))
        worst = max(worst, spread / T.diameter)
    emit(10, all_flagged and worst <= 1e-10,
         f"20 regular simplices with sum(A_i - M) = 0: collapse flagged "
         f"({all_flagged}), centers coincide to {worst:.2e} (tol 1e-10)")
