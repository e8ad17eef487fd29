"""Randomized verification suites behind the `verify` CLI command.

Each suite runs a batch of random instances and aggregates, per claim, the
number of failures and the worst residual.  Residuals are scaled by the
instance diameter (simplices) or circumradius (polygons), so a claim passes
at a uniform relative threshold.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .affine import Line
from .centers import _m_hyperplane_arrays, _monge_pairs, _report, euler_point, monge_point
from .circumcenter import _certified, solve_circumcenter
from .norms import DEFAULT_TOL, Norm, Tolerances, is_birkhoff_orthogonal, is_isosceles_orthogonal
from .polygon import _sphere_defect, sample_cyclic_polygon, verify_polygon_theorems
from .simplex import Simplex, euclid_orthocenter

__all__ = [
    "parse_norm_name",
    "random_simplex",
    "random_orthocentric_simplex",
    "random_polyhedral_norm",
    "ClaimStats",
    "simplex_claims",
    "suite_orthogonality",
    "suite_simplex",
    "suite_polygon",
    "run_suites",
]

REL_TOL = 1e-8  # relative residual threshold shared by the randomized simplex claims


def parse_norm_name(name, d=2, rng=None):
    """Norm from a CLI-style name: euclidean, l<p>, linf, polyhedral."""
    name = name.strip().lower()
    if name == "euclidean":
        return Norm.euclidean()
    if name in ("linf", "linfinity"):
        return Norm.lp(math.inf)
    if name.startswith("l"):
        return Norm.lp(float(name[1:]))
    if name == "polyhedral":
        return random_polyhedral_norm(d, rng)
    raise ValueError(f"unknown norm name: {name!r}")


def random_polyhedral_norm(d, rng=None):
    """Centrally symmetric random polytope norm (d <= 3): the unit ball is
    the hull of 4d random unit vectors and their antipodes."""
    rng = np.random.default_rng(rng)
    P = rng.normal(size=(4 * d, d))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    return Norm.polyhedral(np.vstack([P, -P]))


def random_simplex(d, rng):
    rng = np.random.default_rng(rng)
    while True:
        V = rng.normal(size=(d + 1, d))
        try:
            return Simplex(V)
        except ValueError:
            continue


def random_orthocentric_simplex(rng):
    """Corner-orthogonal recipe in R^3: mutually orthogonal legs from one
    vertex, randomly rotated and translated."""
    rng = np.random.default_rng(rng)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    lengths = rng.uniform(0.5, 2.0, size=3)
    t = rng.normal(size=3)
    V = np.vstack([np.zeros(3), lengths[:, None] * Q.T]) + t
    return Simplex(V)


class ClaimStats:
    """Failure count and worst residual for one claim."""

    def __init__(self):
        self.trials = 0
        self.failures = 0
        self.max_residual = 0.0

    def add(self, residual, threshold):
        self.add_bool(not residual > threshold, residual)

    def add_bool(self, ok, residual=0.0):
        self.trials += 1
        self.max_residual = max(self.max_residual, residual)
        if not ok:
            self.failures += 1

    @property
    def passed(self):
        return self.trials > 0 and self.failures == 0

    def __repr__(self):
        return f"ClaimStats(trials={self.trials}, failures={self.failures}, max_residual={self.max_residual:.3g})"


def _simplex_stream(names, dims, rng):
    """The simplex suite's instances: d cycles over dims and the norm over
    names (polyhedral capped at d = 3); each norm, then its simplex, is drawn
    from rng."""
    for i in itertools.count():
        d = dims[i % len(dims)]
        name = names[(i // len(dims)) % len(names)]
        if name == "polyhedral" and d > 3:
            d = 3
        norm = parse_norm_name(name, d, rng)
        yield norm, random_simplex(d, rng)


def suite_orthogonality(trials, seed=0, tol=None):
    tol = tol or Tolerances()
    rng = np.random.default_rng(seed)
    stats = {k: ClaimStats() for k in
             ("norm_axioms", "lp2_matches_euclidean", "polyhedral_crosscheck",
              "isosceles_symmetry", "birkhoff_homogeneity", "euclidean_dot_agreement")}
    eucl = Norm.euclidean()
    cross = Norm.polyhedral([[1, 0], [-1, 0], [0, 1], [0, -1]])
    cube = Norm.polyhedral([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    l1, linf, l2 = Norm.lp(1), Norm.lp(math.inf), Norm.lp(2)
    norms = [eucl, l1, linf, Norm.lp(1.5), Norm.lp(3), cross, cube]
    for _ in range(trials):
        d = int(rng.choice((2, 3, 4)))
        x = rng.normal(size=d)
        y = rng.normal(size=d)
        lam = rng.uniform(0.1, 3.0)
        for norm in norms:
            if norm.dim is not None and norm.dim != d:
                continue
            nx, ny, nxy = norm(x), norm(y), norm(x + y)
            axioms = max(0.0 if nx > 0 else 1.0,
                         abs(norm(lam * x) - lam * nx) / max(1.0, nx),
                         max(0.0, nxy - nx - ny) / max(1.0, nx + ny))
            stats["norm_axioms"].add(axioms, 1e-12 if norm.dim is None else tol.eps_geom)
        power_sum = np.sum(np.abs(x) ** 2) ** 0.5  # the l_p formula at p = 2
        stats["lp2_matches_euclidean"].add(abs(l2(x) - power_sum) / max(1.0, power_sum), 1e-12)
        if d == 2:
            stats["polyhedral_crosscheck"].add(
                max(abs(cross(x) - l1(x)), abs(cube(x) - linf(x))) / max(1.0, l1(x)),
                tol.eps_geom)
            stats["isosceles_symmetry"].add_bool(
                is_isosceles_orthogonal(l1, x, y, tol) == is_isosceles_orthogonal(l1, y, x, tol))
            mu = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
            stats["birkhoff_homogeneity"].add_bool(
                is_birkhoff_orthogonal(linf, x, y, tol)
                == is_birkhoff_orthogonal(linf, lam * x, mu * y, tol))
        dot_zero = abs(x @ y) <= tol.eps_geom * max(1.0, eucl(x) * eucl(y))
        stats["euclidean_dot_agreement"].add_bool(
            is_birkhoff_orthogonal(eucl, x, y, tol) == dot_zero
            and is_isosceles_orthogonal(eucl, x, y, tol) == dot_zero)
    return stats


def simplex_claims(norm, T, M, tol=DEFAULT_TOL):
    """Relative residual of each per-instance claim about T and its center M.

    Residuals are scaled by the diameter of T, the Feuerbach defect by R.
    Each claim holds when its residual is at most its threshold:
    eps_geom for circumcenter_selfconsistent (the is_circumcenter test; inf
    where floats cannot resolve the defect at M),
    0 for m_hyperplane_count (d minus the number of M-hyperplanes),
    1e-10 for euler_ratios and REL_TOL for the rest.  When M is not a
    circumcenter only circumcenter_selfconsistent is returned; euler_ratios
    and euler_collinear are left out when the Euler line collapses.
    """
    scale = T.diameter
    ok, R, defect = _certified(norm, T.vertices, M, scale, tol)
    claims = {"circumcenter_selfconsistent": defect / scale}
    if not ok:
        return claims
    rep = _report(T, M, R, tol)
    N = rep.N_M
    ridges, centroids, directions = _monge_pairs(T, M, tol)
    claims["monge_concurrency"] = float(Line(centroids, directions).distance(N).max()) / scale
    bases, normals = _m_hyperplane_arrays(T, ridges, centroids, directions)
    claims["m_hyperplane_incidence"] = float(np.abs(np.vecdot(N - bases, normals)).max()) / scale
    claims["m_hyperplane_count"] = float(T.dim - len(normals))
    if not rep.collapsed:
        claims["euler_ratios"] = max(v for v in rep.ratio_residuals.values()
                                     if not isinstance(v, str))
        claims["euler_collinear"] = float(
            rep.euler_line.distance([rep.G, rep.F_M, N, rep.P_M]).max()) / scale
    claims["feuerbach_incidence"] = _sphere_defect(
        norm, rep.facet_centroids + rep.division_points, rep.F_M, rep.feuerbach_radius) / rep.R
    return claims


def suite_simplex(trials, dims=(2, 3, 4, 5), norms=("euclidean", "l1.5", "l3", "linf", "polyhedral"),
                  seed=0, tol=None):
    """Claims over a batch of random simplices, cycled as in _simplex_stream.

    The (norm, simplex) stream is drawn from default_rng(seed) alone, so a
    seed always replays the same batch.  The affine maps and their reference
    points (one per trial) and the max(trials // 5, 10) orthocentric
    simplices come from a second generator spawned from the same seed.
    """
    tol = tol or Tolerances()
    seq = np.random.SeedSequence(seed)
    rng, aux = np.random.default_rng(seq), np.random.default_rng(seq.spawn(1)[0])
    stats = {k: ClaimStats() for k in
             ("circumcenter_selfconsistent", "monge_concurrency",
              "m_hyperplane_incidence", "m_hyperplane_count", "euler_ratios",
              "feuerbach_incidence", "euler_collinear", "affine_invariance",
              "orthocenter_crosscheck")}
    if any(parse_norm_name(name).smooth for name in norms):
        stats["smooth_solver_success"] = ClaimStats()
    limits = {"circumcenter_selfconsistent": tol.eps_geom, "m_hyperplane_count": 0.0,
              "euler_ratios": 1e-10}
    for norm, T in itertools.islice(_simplex_stream(list(norms), list(dims), rng), trials):
        d, scale = T.dim, T.diameter
        # N_M and P_M (k = d-1 and 1) are affine in (vertices, M) for any M;
        # the image vertices are not wrapped in a Simplex, whose
        # general-position test is not affine-invariant
        M = aux.normal(size=d)
        A = aux.normal(size=(d, d)) + np.eye(d) * 2
        b = aux.normal(size=d)
        inv = max(np.linalg.norm(euler_point(T.vertices @ A.T + b, A @ M + b, k)
                                 - (A @ euler_point(T.vertices, M, k) + b))
                  for k in (d - 1, 1))
        stats["affine_invariance"].add(inv / scale, REL_TOL)
        res = solve_circumcenter(norm, T, tol)
        if norm.smooth:
            stats["smooth_solver_success"].add_bool(res.found)
        if not res.found:
            continue
        for claim, residual in simplex_claims(norm, T, res.center, tol).items():
            stats[claim].add(residual, limits.get(claim, REL_TOL))
    # orthocentric Euclidean cross-check, independent of the cycled norms
    eucl = Norm.euclidean()
    for _ in range(max(trials // 5, 10)):
        T = random_orthocentric_simplex(aux)
        H = euclid_orthocenter(T, tol)
        if H is None:
            stats["orthocenter_crosscheck"].add_bool(False)
            continue
        M = solve_circumcenter(eucl, T, tol).center
        stats["orthocenter_crosscheck"].add(
            np.linalg.norm(monge_point(T, M) - H) / T.diameter, REL_TOL)
    return stats


def suite_polygon(trials, degrees=(3, 4, 5, 6, 7, 8),
                  norms=("euclidean", "l1", "linf", "l3"), seed=0, tol=None):
    """The claims of verify_polygon_theorems over random cyclic polygons:
    a claim fails where its ok flag is false, with residuals scaled by R."""
    tol = tol or Tolerances()
    rng = np.random.default_rng(seed)
    names = list(norms)
    stats = {}
    for i in range(trials):
        d = degrees[i % len(degrees)]
        norm = parse_norm_name(names[(i // len(degrees)) % len(names)], 2, rng)
        M = rng.normal(size=2)
        R = rng.uniform(0.5, 2.0)
        P = sample_cyclic_polygon(norm, M, R, d + 1, rng)
        for claim, (ok, residual) in verify_polygon_theorems(P, tol).items():
            stats.setdefault(claim, ClaimStats()).add_bool(ok, residual / R)
    return stats


def run_suites(which, trials, dims=None, norms=None, seed=0, tol=None):
    """Run the named suite ('simplex', 'polygon', 'orthogonality', or 'all')."""
    if trials <= 0:
        raise ValueError("empty suite")
    if dims and which in ("simplex", "all") and min(dims) < 2:
        raise ValueError("simplex dimensions must be >= 2")
    if dims and which in ("polygon", "all") and min(dims) < 3:
        raise ValueError("polygon degrees must be >= 3")
    out = {}
    if which in ("orthogonality", "all"):
        out["orthogonality"] = suite_orthogonality(trials, seed=seed, tol=tol)
    if which in ("simplex", "all"):
        kw = {}
        if dims:
            kw["dims"] = dims
        if norms:
            kw["norms"] = norms
        out["simplex"] = suite_simplex(trials, seed=seed, tol=tol, **kw)
    if which in ("polygon", "all"):
        kw = {"degrees": dims} if dims else {}
        if norms:
            kw["norms"] = norms
        out["polygon"] = suite_polygon(trials, seed=seed, tol=tol, **kw)
    if not out:
        raise ValueError(f"unknown suite: {which!r}")
    return out
