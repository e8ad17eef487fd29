"""End-to-end acceptance suite.

Each test covers one headline property, prints a single PASS/FAIL line
(bypassing capture so the line always shows up in the run log), and asserts
at the stated tolerance.  Criteria 1-4 share one deterministic batch of 500
solved random simplices; the batch build doubles as the runtime budget check.
Their residuals, and the soundness half of criterion 8, come from
minkcenters.verify.simplex_claims, the checker behind `verify --suite simplex`.
"""

import math
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from minkcenters import (Norm, Simplex, full_report, grid_oracle_circumcenters,
                         monge_point, complementary_point, sample_cyclic_polygon,
                         solve_circumcenter, verify_polygon_theorems)
from minkcenters.norms import DEFAULT_TOL
from minkcenters.simplex import euclid_orthocenter
from minkcenters.verify import (parse_norm_name, random_orthocentric_simplex,
                                random_simplex, regular_simplex, simplex_claims)

EUCL = Norm.euclidean()

BATCH_SIZE = 500
BATCH_DIMS = (2, 3, 4, 5)
BATCH_NORMS = ("euclidean", "l1.5", "l3", "linf", "polyhedral")


@pytest.fixture
def emit(request):
    """One PASS/FAIL line per criterion, written past pytest's capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _emit(number, ok, detail):
        line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
        if reporter is not None:
            reporter.write_line("\n" + line)
        else:
            print(line, file=sys.__stdout__)
        assert ok, line

    return _emit


@dataclass
class Solved:
    d: int
    norm: Norm
    simplex: Simplex
    center: np.ndarray
    claims: dict  # simplex_claims residuals


@pytest.fixture(scope="module")
def batch():
    """500 random simplices, mixed dimensions and norms, solved once and
    checked once by simplex_claims (outside the timed solve budget)."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    found, elapsed_budget = [], 60.0
    for i in range(BATCH_SIZE):
        d = BATCH_DIMS[i % len(BATCH_DIMS)]
        name = BATCH_NORMS[(i // len(BATCH_DIMS)) % len(BATCH_NORMS)]
        if name == "polyhedral" and d > 3:
            d = 3
        norm = parse_norm_name(name, d, rng)
        T = random_simplex(d, rng)
        res = solve_circumcenter(norm, T)
        if res.found:
            found.append((d, norm, T, res.center))
    elapsed = time.perf_counter() - t0
    assert elapsed < elapsed_budget, f"batch took {elapsed:.1f}s"
    assert len(found) >= BATCH_SIZE // 2  # nonexistence is expected, not dominant
    return [Solved(d, norm, T, M, simplex_claims(norm, T, M))
            for d, norm, T, M in found]


def worst_claim(batch, claim):
    """Largest residual of one claim over the batch instances that report it."""
    return max((s.claims[claim] for s in batch if claim in s.claims), default=0.0)


def test_criterion_1_monge_concurrency(batch, emit):
    worst = worst_claim(batch, "monge_concurrency")
    emit(1, worst <= 1e-8,
         f"Monge lines concurrent at N_M on {len(batch)} solved simplices, "
         f"max residual {worst:.2e} (tol 1e-8 x diameter)")


def test_criterion_2_m_hyperplanes(batch, emit):
    worst = worst_claim(batch, "m_hyperplane_incidence")
    # the count claim is d minus the number of M-hyperplanes
    min_count = min((int(s.d - s.claims["m_hyperplane_count"]) for s in batch
                     if "m_hyperplane_count" in s.claims), default=0)
    ok = worst <= 1e-8 and worst_claim(batch, "m_hyperplane_count") <= 0
    emit(2, ok, f"M-hyperplanes contain N_M, max residual {worst:.2e}, "
         f"min count {min_count} (need >= d)")


def test_criterion_3_euler_ratios(batch, emit):
    worst = worst_claim(batch, "euler_ratios")
    checked = sum("euler_ratios" in s.claims for s in batch)
    emit(3, worst <= 1e-10 and checked > 0,
         f"Euler-line ratios on {checked} non-collapsed instances, "
         f"max relative error {worst:.2e} (tol 1e-10)")


def test_criterion_4_feuerbach_sphere(batch, emit):
    worst = worst_claim(batch, "feuerbach_incidence")
    emit(4, worst <= 1e-8,
         f"all 2(d+1) incidence points at norm-distance R/d from F_M, "
         f"max relative defect {worst:.2e} (tol 1e-8)")


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


def test_criterion_6_orthocentric_crosscheck(emit):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        T = random_orthocentric_simplex(rng)
        M = solve_circumcenter(EUCL, T).center
        H = euclid_orthocenter(T)
        worst = max(worst, np.linalg.norm(monge_point(T, M) - H) / T.diameter)
    emit(6, worst <= 1e-8,
         f"100 orthocentric tetrahedra: Monge point = Euclidean orthocenter, "
         f"max residual {worst:.2e} (tol 1e-8)")


def test_criterion_7_polygon_theorems(emit):
    rng = np.random.default_rng(7)
    names = ("euclidean", "l1", "linf", "l3")
    worst, trials = 0.0, 300
    for i in range(trials):
        d = 3 + i % 6
        norm = parse_norm_name(names[i % 4], 2, rng)
        R = rng.uniform(0.5, 2.0)
        P = sample_cyclic_polygon(norm, rng.normal(size=2), R, d + 1, rng)
        for claim, (_, residual) in verify_polygon_theorems(P).items():
            worst = max(worst, residual / R)
    emit(7, worst <= 1e-8,
         f"{trials} cyclic polygons (degrees 4-9, four norms): all incidence and "
         f"concurrency claims, max residual {worst:.2e} (tol 1e-8 x R)")


def test_criterion_8_solver_soundness(batch, emit):
    sound = all(s.claims["circumcenter_selfconsistent"] <= DEFAULT_TOL.eps_geom
                for s in batch)

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


def test_criterion_9_affine_invariance(emit):
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        T = random_simplex(d, rng)
        M = rng.normal(size=d)
        A = rng.normal(size=(d, d)) + 2 * np.eye(d)
        b = rng.normal(size=d)
        phiT = Simplex(T.vertices @ A.T + b)
        phiM = A @ M + b
        err = max(
            np.linalg.norm(monge_point(phiT, phiM) - (A @ monge_point(T, M) + b)),
            np.linalg.norm(complementary_point(phiT, phiM)
                           - (A @ complementary_point(T, M) + b)))
        worst = max(worst, err / T.diameter)
    emit(9, worst <= 1e-8,
         f"monge_point and complementary_point commute with 100 random affine "
         f"maps, max residual {worst:.2e} (tol 1e-8)")


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
