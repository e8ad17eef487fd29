"""Circumcenter search for simplices under arbitrary norms.

A circumcenter is a point equidistant (in the ambient norm) from every
vertex.  Every simplex has one under a smooth norm; under a non-smooth norm
a simplex may have a whole flat set of circumcenters, or none.

Each norm class has one solver path:

* Euclidean: an exact linear solve.
* Polyhedral (l_1, l_inf, polytope unit balls; every non-smooth norm here):
  an exact combinatorial solve over the vertices of one polyhedron, the
  epigraph of max_i ||A_i - M||, enumerated with one convex hull (see
  ``_polyhedral_center``).  It returns the minimum-radius circumcenter, and
  status "none" decides that no circumcenter exists.
* Smooth l_p: a multi-start least-squares minimisation of

      phi(M) = sum_i (||A_i - M|| - rho(M))^2,   rho(M) = mean_i ||A_i - M||,

  whose zero set is the circumcenter set, started from the Euclidean
  circumcenter, the centroid, the vertices and seeded random perturbations.
  Status "not_found" means only that every start failed at tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import DEFAULT_TOL

__all__ = ["CircumResult", "is_circumcenter", "solve_circumcenter", "grid_oracle_circumcenters"]


@dataclass(frozen=True)
class CircumResult:
    """status is "found", "none" (decided: T has no circumcenter; polyhedral
    norms only) or "not_found" (every smooth-solver start failed).  residual
    is the equidistance defect max_i | ||A_i - M|| - R | at the center; for
    "none" it is the defect at the centroid, for "not_found" the best
    start's sqrt(phi)."""

    status: str
    center: np.ndarray | None
    radius: float | None
    residual: float
    starts_used: int

    @property
    def found(self):
        return self.status == "found"


def _distances(norm, T, M):
    return norm(T.vertices - np.asarray(M, dtype=float))


def is_circumcenter(norm, T, M, tol=DEFAULT_TOL):
    """Mean vertex distance R if M is equidistant from all vertices, else None."""
    dd = _distances(norm, T, M)
    R = float(dd.mean())
    if np.abs(dd - R).max() <= tol.eps_geom * T.diameter:
        return R
    return None


def _euclidean_center(V):
    """Exact equidistance solve; least-squares form doubles as a generic start."""
    A = 2.0 * (V[1:] - V[0])
    b = np.sum(V[1:] ** 2, axis=1) - np.sum(V[0] ** 2)
    return np.linalg.solve(A, b) if A.shape[0] == A.shape[1] else np.linalg.lstsq(A, b, rcond=None)[0]


def _result(norm, V, M, starts_used):
    dd = norm(V - M)
    return CircumResult("found", M, float(dd.mean()),
                        float(np.abs(dd - dd.mean()).max()), starts_used)


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
    """Locate a circumcenter of T under the given norm.

    Euclidean: one exact linear solve.  Polyhedral (non-smooth) norms: the
    exact minimum-radius center, or status "none" when no center exists.
    Smooth l_p: multi-start least squares, "found" when
    phi <= (eps_geom * diameter)^2 and "not_found" when every start fails.
    """
    V = T.vertices
    if norm.kind == "euclidean":
        return _result(norm, V, _euclidean_center(V), 1)

    if not norm.smooth:
        M = _polyhedral_center(norm, T, tol)
        if M is None:
            dd = norm(V - V.mean(axis=0))
            return CircumResult("none", None, None, float(np.abs(dd - dd.mean()).max()), 1)
        return _result(norm, V, M, 1)

    from scipy.optimize import least_squares

    d = T.dim
    scale = T.diameter
    found_tol = (tol.eps_geom * scale) ** 2
    rng = np.random.default_rng(0)
    starts = [_euclidean_center(V), V.mean(axis=0)] + list(V)
    # 5 random starts; with the d+3 fixed starts: 8+d in total
    starts += [V.mean(axis=0) + rng.normal(size=d) * scale for _ in range(5)]
    res_fun = _make_residual(norm, V)

    best_x, best_f = None, np.inf
    starts_used = 0
    for s in starts:
        starts_used += 1
        out = least_squares(res_fun, np.asarray(s, dtype=float), xtol=3e-16, ftol=3e-16,
                            gtol=3e-16, max_nfev=tol.max_iters * d)
        x, f = out.x, float(np.sum(out.fun ** 2))
        if f < best_f:
            best_x, best_f = x, f
        if best_f <= found_tol:
            break

    if best_f > found_tol:
        return CircumResult("not_found", None, None, float(np.sqrt(best_f)), starts_used)
    return _result(norm, V, best_x, starts_used)


def _make_residual(norm, V):
    def residual(M):
        dd = norm(V - M)
        return dd - dd.mean()

    return residual


def grid_oracle_circumcenters(norm, T, grid_step, box=None, cell_cap=10_000_000):
    """Brute-force circumcenter candidates on a grid (d <= 3).

    Returns one (point, radius) per connected cluster of grid points whose
    equidistance defect is below 2 * grid_step.  Used to corroborate solver
    output and to exhibit non-unique center sets.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    V = T.vertices
    d = T.dim
    if d > 3:
        raise ValueError("grid oracle supports d <= 3")
    if box is None:
        diam = T.diameter
        lo = V.min(axis=0) - diam
        hi = V.max(axis=0) + diam
    else:
        lo, hi = (np.asarray(b, dtype=float) for b in box)
    axes = [np.arange(lo[k], hi[k] + grid_step, grid_step) for k in range(d)]
    shape = tuple(len(a) for a in axes)
    if np.prod(shape) > cell_cap:
        raise ValueError(f"grid too large: {np.prod(shape)} cells (cap {cell_cap})")
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)  # (*shape, d)
    pts = mesh.reshape(-1, d)
    defect = np.empty(len(pts))
    radius = np.empty(len(pts))
    chunk = max(1, cell_cap // (10 * (d + 1)))
    for i in range(0, len(pts), chunk):
        dd = norm(pts[i:i + chunk, None, :] - V[None, :, :])  # (chunk, d+1)
        r = dd.mean(axis=1)
        defect[i:i + chunk] = np.abs(dd - r[:, None]).max(axis=1)
        radius[i:i + chunk] = r
    from scipy import ndimage

    mask = (defect <= 2.0 * grid_step).reshape(shape)
    labels, n = ndimage.label(mask)
    out = []
    flat_labels = labels.reshape(-1)
    for k in range(1, n + 1):
        sel = flat_labels == k
        # cluster representative: the best-defect grid point
        j = np.flatnonzero(sel)[np.argmin(defect[sel])]
        out.append((pts[j], float(radius[j])))
    return out
