"""Circumcenter search for simplices under arbitrary norms.

A circumcenter is a point equidistant (in the ambient norm) from every
vertex.  Every simplex has one under a smooth norm; under a non-smooth norm
a simplex may have a whole flat set of circumcenters, or none.

Each norm class has one solver path:

* Euclidean (``Norm.euclidean()`` or ``Norm.lp(2)``): an exact linear solve.
* Polyhedral (l_1, l_inf, polytope unit balls; every non-smooth norm here):
  an exact combinatorial solve over the vertices of one polyhedron, the
  epigraph of max_i ||A_i - M||, enumerated with one convex hull (see
  ``_polyhedral_center``).  It returns the minimum-radius circumcenter, and
  status "none" decides that no circumcenter exists.
* Smooth l_p: damped Newton on the square bisector system
  ||A_i - M|| = ||A_0 - M|| (i = 1..d), with the norm's analytic gradient,
  from the exact Euclidean circumcenter.  In a strictly convex norm each
  bisector is a smooth hypersurface and M is where d of them meet (Horvath,
  Acta Math. Hungar. 89, 2000).  When Newton fails there, a continuation in
  p from the Euclidean center and then a fixed seeded list of starts follow
  (see ``_smooth_center``).  A center always exists in exact arithmetic,
  but it need not be unique: l_3 simplices with three centers occur from
  d = 3 on (``random_simplex(3, default_rng(132))`` has centers at
  R/diameter = 2.912, 2.975 and 3.192).  The solver returns the first
  center that certifies, in that order: the one Newton reaches from the
  Euclidean center, the end of the continuation, or the one reached from
  the earliest start, by Newton before ``least_squares``.  It is not the
  least-radius center.

Every path accepts a center by one test, ``_certified``, which is also
``is_circumcenter``'s, so a "found" center always passes is_circumcenter.
Status "not_found" means that nothing certified at tolerance: a smooth
solver miss, or (for any norm) a center too far out for floats to resolve
its equidistance defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import DEFAULT_TOL, Norm

__all__ = ["CircumResult", "is_circumcenter", "solve_circumcenter", "grid_oracle_circumcenters"]

MAX_NFEV_PER_DIM = 400  # least-squares evaluation cap per start, times d
NEWTON_STEPS = 50
CONTINUATION_STEPS = 40  # Newton runs per p-continuation
RANDOM_STARTS = 16  # smooth fallback starts after the centroid and the vertices
_EPS = np.finfo(float).eps


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
    R = float(dd.mean())
    return R, float(np.abs(dd - R).max())


def _certified(norm, V, M, diam, tol):
    """(accepted, R, defect) at M, the one circumcenter test of this module.

    M is accepted when its equidistance defect is at most eps_geom * diam and
    floats resolve that bound: eps_mach * (R + max |V|), the rounding scale
    of the distances ||V_i - M||, must be below it.  Far beyond that scale,
    V - M rounds to -M and every defect reads 0, so the defect is reported
    as inf there.
    """
    R, defect = _equidistance(norm, V, M)
    bound = tol.eps_geom * diam
    if not _EPS * (R + np.abs(V).max()) < bound:
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


def _result(norm, T, M, starts_used, tol):
    """"found" at M if ``_certified`` accepts it on T's own coordinates, else
    "not_found", so that a found center always passes is_circumcenter."""
    ok, R, defect = _certified(norm, T.vertices, M, T.diameter, tol)
    if not ok:
        return CircumResult("not_found", None, None, defect, starts_used)
    return CircumResult("found", M, R, defect, starts_used)


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

    Euclidean (p = 2): one exact linear solve.  Polyhedral (non-smooth)
    norms: the exact minimum-radius center, or status "none" when no center
    exists.  Other smooth l_p: Newton on the bisector system from the
    Euclidean center, then the fallbacks of ``_smooth_center``.  The answer
    is "found" only where ``_certified`` accepts it, else "not_found".
    """
    V = T.vertices
    if norm.p == 2.0:
        return _result(norm, T, _euclidean_center(V), 1, tol)

    if not norm.smooth:
        M = _polyhedral_center(norm, T, tol)
        if M is None:
            return CircumResult("none", None, None, _equidistance(norm, V, V.mean(axis=0))[1], 1)
        return _result(norm, T, M, 1, tol)

    M, starts_used, residual = _smooth_center(norm, T, tol)
    if M is None:
        return CircumResult("not_found", None, None, residual, starts_used)
    return _result(norm, T, M, starts_used, tol)


def _smooth_center(norm, T, tol):
    """Circumcenter of T under a smooth l_p norm.

    The solves run on the centred vertices V = T.vertices - c.  Each
    candidate c + M is certified on T's own coordinates, as ``_result``
    does, so a point that rounds out of tolerance there goes on to the next
    one.  Tries, in order, until a point certifies (``_certified``):

    1. Newton on the bisector system from the Euclidean center M0;
    2. ``_p_continuation`` from M0;
    3. Newton from each of a fixed list of starts: the centroid, the
       vertices, then seeded random points out to three times
       max(diameter, Euclidean circumradius);
    4. ``least_squares`` with the analytic Jacobian from the same starts.
       Its trust-region steps reach some centers that Newton's line search
       misses from every start.

    Returns (M or None, starts tried, least defect seen).  Stage 2 counts as
    the second start, and each start of stages 3 and 4 once per solver.
    """
    c = T.vertices.mean(axis=0)
    V, diam, d = T.vertices - c, T.diameter, T.dim
    F, J = _bisector_system(norm, V)
    M0 = _euclidean_center(V)

    def candidates():
        yield _newton(F, J, M0, diam)
        yield _p_continuation(norm.p, V, M0, diam, tol)
        # imported on entry to the fallback, which fewer than 1 in 100 l_p
        # solves reaches, rather than by the rare least_squares call itself,
        # so that a long batch's peak memory does not hinge on whether that
        # call happens
        from scipy.optimize import least_squares

        rng = np.random.default_rng(0)
        reach = 3.0 * max(diam, float(np.linalg.norm(M0 - V[0])))
        U = rng.normal(size=(RANDOM_STARTS, d))
        U *= (rng.uniform(0.0, reach, size=(RANDOM_STARTS, 1))
              / np.linalg.norm(U, axis=1, keepdims=True))
        starts = np.vstack([np.zeros(d), V, U])
        for s in starts:
            yield _newton(F, J, s, diam)
        for s in starts:
            yield least_squares(F, s, jac=J, xtol=3e-16, ftol=3e-16, gtol=3e-16,
                                max_nfev=MAX_NFEV_PER_DIM * d).x

    best = np.inf
    for k, M in enumerate(candidates(), start=1):
        if M is None:
            continue  # the continuation gave up
        ok, _, res = _certified(norm, T.vertices, c + M, diam, tol)
        best = min(best, res)
        if ok:
            return c + M, k, best
    return None, k, best


def _bisector_system(norm, V):
    """F_i(M) = ||V_i - M|| - ||V_0 - M|| (i = 1..d) and its Jacobian G_0 - G_i,
    with G_i the norm's gradient at V_i - M."""

    def F(M):
        dd = norm(V - M)
        return dd[1:] - dd[0]

    def J(M):
        G = norm.gradient(V - M)
        return G[0] - G[1:]

    return F, J


def _p_continuation(p, V, M, diam, tol):
    """Follow the l_q circumcenter from q = 2, where M is exact, to q = p.

    Each step runs Newton from the last certified l_q center.  A step that
    certifies grows by half, one that fails is halved; the walk gives up
    after CONTINUATION_STEPS Newton runs or below a step of 1e-3.
    """
    q, dq = 2.0, (p - 2.0) / 4
    for _ in range(CONTINUATION_STEPS):
        if q == p:
            return M
        if abs(dq) < 1e-3:
            return None
        qn = q + dq if abs(p - q) > abs(dq) else p
        lq = Norm.lp(qn)
        Mn = _newton(*_bisector_system(lq, V), M, diam)
        if _certified(lq, V, Mn, diam, tol)[0]:
            q, M, dq = qn, Mn, 1.5 * dq
        else:
            dq /= 2
    return M if q == p else None


def _newton(F, J, M, diam):
    """Damped Newton on F(M) = 0 with Armijo backtracking on |F|^2.

    Stops once |F| is at the float resolution of distances from M, after
    NEWTON_STEPS steps, or when no step length down to 2^-10 decreases |F|^2
    enough.
    """
    f = F(M)
    m = f @ f
    for _ in range(NEWTON_STEPS):
        if not m > (8 * _EPS * (diam + np.linalg.norm(M))) ** 2:
            break
        try:
            step = np.linalg.solve(J(M), -f)
        except np.linalg.LinAlgError:
            break
        for t in 0.5 ** np.arange(11):
            trial = M + t * step
            ft = F(trial)
            mt = ft @ ft
            if mt <= (1.0 - 1e-4 * t) * m:
                break
        else:
            break
        M, f, m = trial, ft, mt
    return M


def grid_oracle_circumcenters(norm, T, grid_step, cell_cap=10_000_000):
    """Brute-force circumcenter candidates on a grid (d <= 3).

    The grid covers the vertices' bounding box grown by the diameter on
    every side.  Returns one (point, radius) per connected cluster of grid
    points whose equidistance defect is below 2 * grid_step.  Used to
    corroborate solver output and to exhibit non-unique center sets.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    V = T.vertices
    d = T.dim
    if d > 3:
        raise ValueError("grid oracle supports d <= 3")
    lo = V.min(axis=0) - T.diameter
    hi = V.max(axis=0) + T.diameter
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
