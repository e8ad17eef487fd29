"""Circumcenter search for simplices under arbitrary norms.

A circumcenter is a point equidistant (in the ambient norm) from every
vertex.  Existence is guaranteed for smooth norms; for non-smooth norms a
simplex may have several circumcenters or none, so a negative answer here is
always "none found at tolerance", never a nonexistence certificate.

The solver minimizes

    phi(M) = sum_i (||A_i - M|| - rho(M))^2,   rho(M) = mean_i ||A_i - M||,

whose zero set is exactly the circumcenter set.  It multi-starts from the
Euclidean circumcenter, the centroid, the vertices, and seeded random
perturbations.  Smooth norms get a derivative-free least-squares polish;
non-smooth norms use Nelder-Mead descent.  When the center set is flat
(non-strictly-convex norms) a penalized second phase slides the found point
to the minimum-radius representative, which makes the reported center
deterministic and canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import DEFAULT_TOL

__all__ = ["CircumResult", "is_circumcenter", "solve_circumcenter", "grid_oracle_circumcenters"]


@dataclass(frozen=True)
class CircumResult:
    status: str  # "found" | "not_found"
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


def _phi(norm, V):
    def phi(M):
        dd = norm(V - M)
        return float(np.sum((dd - dd.mean()) ** 2))

    return phi


def _nelder_mead(f, x0, scale, maxiter):
    from scipy.optimize import minimize

    return minimize(f, x0, method="Nelder-Mead",
                    options=dict(xatol=1e-14 * scale, fatol=0.0,
                                 maxiter=maxiter, adaptive=True))


def _min_radius_polish(norm, V, x0, scale, eps_geom, maxiter):
    """Slide along the (possibly flat) circumcenter set toward minimal radius."""
    wall = 0.5 * eps_geom * scale

    def g(M):
        dd = norm(V - M)
        rho = dd.mean()
        excess = np.abs(dd - rho).max() - wall
        return float(rho + (1e6 * max(excess, 0.0)))

    x = x0
    for _ in range(2):
        res = _nelder_mead(g, x, scale, maxiter)
        if res.fun < g(x):
            x = res.x
    return x


def solve_circumcenter(norm, T, tol=DEFAULT_TOL):
    """Locate a circumcenter of T under the given norm.

    Returns a CircumResult; "found" requires phi <= (eps_geom * diameter)^2.
    The Euclidean norm bypasses optimization with an exact linear solve.
    """
    V = T.vertices
    d = T.dim
    scale = T.diameter
    found_tol = (tol.eps_geom * scale) ** 2
    phi = _phi(norm, V)

    if norm.kind == "euclidean":
        M = _euclidean_center(V)
        dd = norm(V - M)
        return CircumResult("found", M, float(dd.mean()),
                            float(np.abs(dd - dd.mean()).max()), 1)

    from scipy.optimize import least_squares

    rng = np.random.default_rng(0)
    starts = [_euclidean_center(V), V.mean(axis=0)] + list(V)
    # 5 random starts; with the d+3 fixed starts: 8+d in total
    starts += [V.mean(axis=0) + rng.normal(size=d) * scale for _ in range(5)]
    res_fun = _make_residual(norm, V)

    best_x, best_f = None, np.inf
    starts_used = 0
    for s in starts:
        starts_used += 1
        x = np.asarray(s, dtype=float)
        if norm.smooth:
            out = least_squares(res_fun, x, xtol=3e-16, ftol=3e-16, gtol=3e-16,
                                max_nfev=tol.max_iters * d)
            x, f = out.x, float(np.sum(out.fun ** 2))
        else:
            # cheap first pass; refine only starts that look convergent
            f = phi(x)
            res = _nelder_mead(phi, x, scale, 60 * d)
            if res.fun < f:
                x, f = res.x, float(res.fun)
            if f <= (1e-5 * scale) ** 2:
                for _ in range(3):
                    if f <= 0.25 * found_tol:
                        break
                    res = _nelder_mead(phi, x, scale, tol.max_iters // 2 * d)
                    if res.fun < f:
                        x, f = res.x, float(res.fun)
                    else:
                        break
        if f < best_f:
            best_x, best_f = x, f
        if best_f <= found_tol:
            break

    if best_f > found_tol:
        return CircumResult("not_found", None, None, float(np.sqrt(best_f)), starts_used)

    if not norm.smooth:
        polished = _min_radius_polish(norm, V, best_x, scale, tol.eps_geom,
                                      tol.max_iters * d)
        if phi(polished) <= found_tol:
            best_x = polished
    dd = norm(V - best_x)
    return CircumResult("found", best_x, float(dd.mean()),
                        float(np.abs(dd - dd.mean()).max()), starts_used)


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
