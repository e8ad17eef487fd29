"""Circumcenter search for simplices under arbitrary norms.

A circumcenter is a point equidistant (in the ambient norm) from every
vertex.  Every simplex has one under a smooth norm; under a non-smooth norm
a simplex may have a whole flat set of circumcenters, or none.

Each norm class proposes candidate centers, and ``solve_circumcenter``
certifies them in one loop:

* Euclidean (``Norm.euclidean()`` or ``Norm.lp(2)``): one candidate, the
  exact linear solve on T's vertices.
* Polyhedral (l_1, l_inf, polytope unit balls; every non-smooth norm here):
  one candidate from an exact combinatorial solve over the vertices of one
  polyhedron, the epigraph of max_i ||A_i - M||, enumerated with one convex
  hull (see ``_polyhedral_center``).  It is the minimum-radius
  circumcenter; where none exists the solve answers status "none" before
  the loop.
* Smooth l_p: damped Newton on the square bisector system
  ||A_i - M|| = ||A_0 - M|| (i = 1..d), with the norm's analytic gradient
  and each step capped at diameter + |M|, from the exact Euclidean
  circumcenter.  In a strictly convex norm each bisector is a smooth
  hypersurface and M is where d of them meet (Horvath, Acta Math. Hungar.
  89, 2000).  Only when that candidate fails does the same Newton run from
  one fixed seeded list of starts (see ``_smooth_candidates``); no smooth
  solve imports SciPy.  A center always exists in exact arithmetic, but it
  need not be unique: l_3 simplices with three centers occur from d = 3 on
  (``random_simplex(3, default_rng(132))`` has centers at R/diameter =
  2.912, 2.975 and 3.192).  The solver returns the first center that
  certifies: the one Newton reaches from the Euclidean center, else the one
  reached from the earliest start.  It is not the least-radius center.

The loop accepts a candidate by one test, ``_certified``, which is also
``is_circumcenter``'s, so a "found" center always passes is_circumcenter.
``starts_used`` counts the candidates tried: 1 for every Euclidean and
polyhedral answer (and for "none"), 1 + k for a smooth center reached from
the k-th start.  Status "not_found" means that no candidate certified at
tolerance: a smooth solver miss, or (for any norm) a center too far out for
floats to resolve its equidistance defect; its residual is the least defect
seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import DEFAULT_TOL

__all__ = ["CircumResult", "is_circumcenter", "solve_circumcenter", "grid_oracle_circumcenters"]

NEWTON_STEPS = 50
RANDOM_STARTS = 64  # seeded smooth starts after the centroid and the vertices
_EPS = np.finfo(float).eps
_BACKTRACK = tuple(0.5 ** k for k in range(11))  # Newton step lengths tried, longest first
_BLOCK = 4096  # grid oracle cells per block, sized to the L2 cache


@dataclass(frozen=True)
class CircumResult:
    """status is "found", "none" (decided: T has no circumcenter; polyhedral
    norms only) or "not_found" (no point certified at tolerance).  residual
    is the equidistance defect max_i | ||A_i - M|| - R | at the center; for
    "none" it is the defect at the centroid, for "not_found" the least
    defect over the points tried (inf where floats resolve none)."""

    status: str
    center: np.ndarray | None
    radius: float | None
    residual: float
    starts_used: int

    @property
    def found(self):
        return self.status == "found"


def _equidistance(norm, V, M):
    """Mean vertex distance R and equidistance defect max_i | ||V_i - M|| - R |."""
    dd = norm(V - np.asarray(M, dtype=float))
    R = float(dd.sum() / len(dd))
    return R, float(np.abs(dd - R).max())


def _certified(norm, V, M, diam, tol):
    """(accepted, R, defect) at M, the one circumcenter test of this module.

    M is accepted when its equidistance defect is at most eps_geom * diam and
    floats resolve that bound: R > 0, and eps_mach * (R + max |V|), the
    rounding scale of the distances ||V_i - M||, must be below it.  Far
    beyond that scale V - M rounds to -M, and where every distance
    underflows (large p, tiny coordinates) R reads 0; as every defect then
    reads 0, the defect is reported as inf there."""
    R, defect = _equidistance(norm, V, M)
    bound = tol.eps_geom * diam
    if not (R > 0 and _EPS * (R + np.abs(V).max()) < bound):
        return False, R, np.inf
    return defect <= bound, R, defect


def is_circumcenter(norm, T, M, tol=DEFAULT_TOL):
    """Mean vertex distance R if M is equidistant from all vertices, else None.

    Equidistant means a defect of at most eps_geom * diameter, at a point
    where floats resolve that (see ``_certified``).
    """
    ok, R, _ = _certified(norm, T.vertices, M, T.diameter, tol)
    return R if ok else None


def _euclidean_center(V):
    """Exact Euclidean equidistance solve (d equations in d unknowns)."""
    A = 2.0 * (V[1:] - V[0])
    b = np.sum(V[1:] ** 2, axis=1) - np.sum(V[0] ** 2)
    return np.linalg.solve(A, b)


def _polyhedral_center(norm, T, tol):
    """Minimum-radius circumcenter under a polyhedral norm, or None if none exists.

    With ||x|| = max_f F_f.x and h_f = max_i F_f.A_i, vertex A_i owns facet f
    when F_f.A_i = h_f.  P = {(M, R) : F_f.M + R >= h_f for all f} is the
    epigraph of max_i ||A_i - M||, and M is a circumcenter iff (M, R) lies on
    a face of P whose tight facets include one owned facet per vertex.  Tight
    sets only grow from a face to its vertices, so the least radius is
    reached at a vertex of P.  Those vertices come from one convex hull: with
    slacks s_f > 0 at an interior point z0, P - z0 = {y : a_f.y <= 1} for the
    polar points a_f = -(F_f, 1)/s_f, and each facet n.x = 1 of
    conv(0, a_1, ...) that avoids the origin is the vertex y = n.  Ties in
    the least radius go to the vertex nearest the centroid, and the winner is
    re-solved from its tight rows.  Ownership and tightness are read at
    0.5 * eps_geom * diameter.
    """
    from scipy.spatial import ConvexHull

    c = T.vertices.mean(axis=0)
    V = T.vertices - c  # centred, so every answer is translation-equivariant
    eps = 0.5 * tol.eps_geom * T.diameter
    F = norm.facets(T.dim)
    FA = F @ V.T
    h = FA.max(axis=1)
    owns = FA >= h[:, None] - eps  # (facets, vertices)
    if not owns.any(axis=0).all():
        return None
    Ft = np.hstack([F, np.ones((len(F), 1))])
    z0 = np.append(np.zeros(T.dim), h.max() + T.diameter)  # strictly inside P
    polar = np.vstack([np.zeros(T.dim + 1), -Ft / (Ft @ z0 - h)[:, None]])
    # Q12 tolerates the wide merges that nearly parallel polytope facets cause
    eq = ConvexHull(polar, qhull_options="Qx Q12").equations
    eq = eq[eq[:, -1] < -1e-12 * np.abs(polar).max()]  # facets through 0 are rays of P
    Z = z0 + eq[:, :-1] / -eq[:, -1:]
    tight = np.abs(Z @ Ft.T - h) <= eps  # (P-vertices, facets)
    ok = (tight @ owns).all(axis=1)
    if not ok.any():
        return None
    Z, tight = Z[ok], tight[ok]
    least = np.flatnonzero(Z[:, -1] <= Z[:, -1].min() + eps)
    k = least[np.argmin(np.linalg.norm(Z[least, :-1], axis=1))]
    z = np.linalg.lstsq(Ft[tight[k]], h[tight[k]], rcond=None)[0]
    return c + z[:-1]


def solve_circumcenter(norm, T, tol=DEFAULT_TOL):
    """Locate a circumcenter of T under the given norm: the first candidate
    of its norm class (see the module docstring) that ``_certified`` accepts
    on T's own coordinates, else "not_found" with the least defect seen."""
    V = T.vertices
    if norm.p == 2.0:
        candidates = [_euclidean_center(V)]
    elif norm.smooth:
        candidates = _smooth_candidates(norm, T)
    else:
        M = _polyhedral_center(norm, T, tol)
        if M is None:
            return CircumResult("none", None, None, _equidistance(norm, V, V.mean(axis=0))[1], 1)
        candidates = [M]
    best = np.inf
    for k, M in enumerate(candidates, start=1):
        ok, R, residual = _certified(norm, V, M, T.diameter, tol)
        if ok:
            return CircumResult("found", M, R, residual, k)
        best = min(best, residual)
    return CircumResult("not_found", None, None, best, k)


def _smooth_candidates(norm, T):
    """Newton runs on the bisector system of T under a smooth l_p norm.

    ``_newton`` runs first from the Euclidean center M0 and then, only if the
    caller asks for more, from each of one seeded start list: the centroid,
    the vertices, then RANDOM_STARTS random points at radii drawn
    log-uniformly from 0.1 * diameter out to 3 * max(diameter, Euclidean
    circumradius).  Log-uniform radii give each scale the same share of
    starts, so that starts land near the simplex, where the hard centers lie
    (about 0.5 to 0.85 diameters from the centroid), however far out the
    Euclidean center is.  The solves run on the centred vertices
    V = T.vertices - c, and each yields c + M.
    """
    c = T.vertices.mean(axis=0)
    V, diam, d = T.vertices - c, T.diameter, T.dim
    M0 = _euclidean_center(V)
    yield c + _newton(norm, V, M0, diam)
    rng = np.random.default_rng(0)
    lo, hi = 0.1 * diam, 3.0 * max(diam, float(np.linalg.norm(M0 - V[0])))
    U = rng.normal(size=(RANDOM_STARTS, d))
    U *= (lo * (hi / lo) ** rng.uniform(size=(RANDOM_STARTS, 1))
          / np.linalg.norm(U, axis=1, keepdims=True))
    for s in np.vstack([np.zeros(d), V, U]):
        yield c + _newton(norm, V, s, diam)


def _newton(norm, V, M, diam):
    """Damped Newton on the bisector system F_i(M) = ||V_i - M|| - ||V_0 - M||
    (i = 1..d), with Jacobian G_0 - G_i for G_i the norm's gradient at
    V_i - M, and Armijo backtracking on |F|^2.  The gradients at an accepted
    point reuse the distances ||V_i - M|| that F evaluated there.

    Each step is capped at length diam + |M|, so |M| + diam at most doubles
    per step: a near-singular Jacobian cannot throw M far from the simplex,
    out of reach of the center it was heading for, while a center R = 5e7
    diameters out is still reached within NEWTON_STEPS.  Stops once |F| is
    at the float resolution of distances from M, after NEWTON_STEPS steps,
    or when no step length down to 2^-10 decreases |F|^2 enough.
    """

    def F(M):
        """(V - M, its norms, the bisector residuals)."""
        D = V - M
        dd = norm(D)
        return D, dd, dd[1:] - dd[0]

    D, dd, f = F(M)
    m = f @ f
    for _ in range(NEWTON_STEPS):
        scale = diam + math.sqrt(M.dot(M))
        if not m > (8 * _EPS * scale) ** 2:
            break
        G = norm.gradient(D, dd)
        try:
            step = np.linalg.solve(G[0] - G[1:], -f)
        except np.linalg.LinAlgError:
            break
        length = math.sqrt(step.dot(step))
        if length > scale:
            step *= scale / length
        for t in _BACKTRACK:
            trial = M + t * step
            Dt, ddt, ft = F(trial)
            mt = ft @ ft
            if mt <= (1.0 - 1e-4 * t) * m:
                break
        else:
            break
        M, D, dd, f, m = trial, Dt, ddt, ft, mt
    return M


def grid_oracle_circumcenters(norm, T, grid_step, cell_cap=10_000_000):
    """Brute-force circumcenter candidates on a grid (d <= 3).

    The grid covers the vertices' bounding box grown by the diameter on
    every side, and cell_cap caps its cell count.  Returns one (point,
    radius) per connected cluster of grid points whose equidistance defect
    is below 2 * grid_step: its least-defect point, the first in grid order
    on a tie.  Used to corroborate solver output and to exhibit non-unique
    center sets.

    The grid is stored coordinate-major, as a (d, cells) array X, and runs
    in blocks of _BLOCK cells, so that a 44-facet polytope norm's
    (facets, block) product, 1.4 MB, fits in a 2 MB L2 cache.  Per block,
    the norm is called once per vertex A_i on the F-ordered (block, d) view
    (X - A_i).T, reducing over d along contiguous rows, and fills one row of
    a (d + 1, block) array that is reduced over axis 0 into the block's
    slices of the radius and the defect.
    """
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ValueError("grid_step must be finite and positive")
    V = T.vertices
    d = T.dim
    if d > 3:
        raise ValueError("grid oracle supports d <= 3")
    lo = V.min(axis=0) - T.diameter
    hi = V.max(axis=0) + T.diameter
    # np.arange's axis lengths, ceil((stop - start) / step), in Python numbers,
    # so that the cap is checked exactly and before any array is built
    steps = [float(hi[k] + grid_step - lo[k]) / grid_step for k in range(d)]
    count = math.prod(map(math.ceil, steps)) if max(steps) < math.inf else math.inf
    if count > cell_cap:
        raise ValueError(f"grid too large: {count} cells (cap {cell_cap})")
    axes = [np.arange(lo[k], hi[k] + grid_step, grid_step) for k in range(d)]
    shape = tuple(len(a) for a in axes)
    X = np.stack(np.meshgrid(*axes, indexing="ij", copy=False)).reshape(d, -1)  # (d, cells)
    radius, defect = np.empty((2, X.shape[1]))
    for i in range(0, X.shape[1], _BLOCK):
        x = X[:, i:i + _BLOCK]
        dist = np.stack([norm((x - v[:, None]).T) for v in V])
        r = dist.mean(axis=0, out=radius[i:i + _BLOCK])
        np.abs(dist - r).max(axis=0, out=defect[i:i + _BLOCK])
    from scipy import ndimage

    mask = (defect <= 2.0 * grid_step).reshape(shape)
    labels, _ = ndimage.label(mask)
    cells = np.flatnonzero(mask)
    # stable sort by (label, defect): each label's first cell is argmin's
    label = labels.reshape(-1)[cells]
    order = np.lexsort((defect[cells], label))
    best = cells[order[np.flatnonzero(np.diff(label[order], prepend=0))]]
    # copies, so that the result does not keep the grid alive
    return [(X[:, j].copy(), float(radius[j])) for j in best]
