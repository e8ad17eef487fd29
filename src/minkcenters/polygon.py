"""Cyclic polygons in normed planes: centers, subpolygon families, the three
derived circles, and the parallelepiped lift.

A cyclic polygon has d+1 >= 4 vertices on a common Minkowskian circle
S(M, R).  Its centers are points of the simplex kernel
centers.euler_point(vertices, M, k): G, F_M, N_M and P_M at the same k as
for a d-simplex, and the spatial center C_M (the midpoint of [M, P_M]) at
k = 2.  Removing a vertex gives a subpolygon that keeps M as circumcenter,
which yields the three derived circles of radius R/2, R/d, and R/(d-2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .affine import Line
from .centers import _vertex_deleted, euler_point
from .norms import DEFAULT_TOL, _in_range, _reals

__all__ = [
    "CyclicPolygon",
    "PolygonReport",
    "subpolygon_family",
    "verify_polygon_theorems",
    "parallelepiped_lift",
    "sample_cyclic_polygon",
]


class CyclicPolygon:
    """Convex polygon with vertices on the Minkowskian circle S(M, R).

    Vertex order is normalized to counterclockwise convex order around the
    vertex centroid on ingestion.  In non-strictly-convex planes the same
    vertex set may admit other circumcenters; M records the one in use.
    """

    def __init__(self, vertices, M, R, norm, tol=DEFAULT_TOL):
        V = _reals(vertices, "vertex coordinates", 2)
        if V.shape[1] != 2:
            raise ValueError("cyclic polygons live in the plane")
        if V.shape[0] < 4:
            raise ValueError("need at least 4 vertices (d >= 3)")
        M = _reals(M, "center coordinates", 1)
        if M.shape != (2,):
            raise ValueError("the center must be a point of the plane")
        _in_range(np.vstack([V, M]), "vertex and center coordinates")
        R = float(_reals(R, "radius", 0))
        _in_range(R, "radius", size=True)
        if not np.abs(norm(V - M) - R).max() <= tol.eps_geom * R:
            raise ValueError("vertices are not on the circle S(M, R) at tolerance")
        c = V.mean(axis=0)
        order = np.argsort(np.arctan2(V[:, 1] - c[1], V[:, 0] - c[0]))
        V = V[order]
        # convex position: all consecutive turns counterclockwise (or straight,
        # which happens on flat arcs of non-strictly-convex spheres)
        n = len(V)
        for i in range(n):
            u = V[(i + 1) % n] - V[i]
            w = V[(i + 2) % n] - V[(i + 1) % n]
            if u[0] * w[1] - u[1] * w[0] < -tol.eps_geom * R * R:
                raise ValueError("vertices are not in convex position")
        self.vertices = V
        self.M = M
        self.R = R
        self.norm = norm

    @property
    def d(self):
        """Simplex-convention degree: the polygon has d+1 vertices."""
        return len(self.vertices) - 1


@dataclass(frozen=True)
class PolygonReport:
    """Centers of a cyclic polygon; the sub_* fields and midpoints are
    (d+1, 2) arrays whose row i belongs to vertex A_i."""

    G: np.ndarray
    F_M: np.ndarray
    N_M: np.ndarray
    P_M: np.ndarray
    C_M: np.ndarray
    sub_complementary: np.ndarray  # P_M^i
    sub_spatial: np.ndarray        # C_M^i
    sub_monge: np.ndarray          # N_M^i
    sub_centroids: np.ndarray      # G_i
    midpoints: np.ndarray          # E_i = midpoint of [A_i, P_M]
    circles: dict = field(default_factory=dict)  # name -> (center, radius)


def subpolygon_family(P):
    """Centers of P and of all its vertex-deleted subpolygons, plus the
    derived circles.

    Deleting A_i keeps M as a circumcenter, so each subpolygon (with degree
    d-1) has its own complementary point P_M^i, spatial center C_M^i, Monge
    point N_M^i and centroid G_i: the kernel on the vertices without A_i.
    """
    d = P.d
    M, V = P.M, P.vertices
    sub = _vertex_deleted(V)
    P_M = euler_point(V, M, 1)
    C_M = euler_point(V, M, 2)
    F_M = euler_point(V, M, d)
    circles = {
        "half_radius": (C_M, P.R / 2),
        "feuerbach": (F_M, P.R / d),
        "sub_monge": (euler_point(V, M, d - 2), P.R / (d - 2)),
    }
    return PolygonReport(G=euler_point(V, M, d + 1), F_M=F_M,
                         N_M=euler_point(V, M, d - 1), P_M=P_M, C_M=C_M,
                         sub_complementary=euler_point(sub, M, 1),
                         sub_spatial=euler_point(sub, M, 2),
                         sub_monge=euler_point(sub, M, d - 2),
                         sub_centroids=euler_point(sub, M, d),
                         midpoints=0.5 * (V + P_M), circles=circles)


def verify_polygon_theorems(P, tol=DEFAULT_TOL):
    """Check every incidence/concurrency claim; returns {claim: (ok, residual)}.

    A claim is ok when its residual is at most 10 * eps_geom * R (1e-8 * R at
    the default tolerance).  Near-degenerate lines (endpoints closer than
    eps_geom * R) are skipped; each concurrency claim requires at least two
    surviving lines.
    """
    return _polygon_claims(P, subpolygon_family(P), tol)


def _sphere_defect(norm, X, c, r):
    """max_i |‖X_i - c‖ - r|: how far the rows X_i of X are from S(c, r)."""
    return float(np.abs(norm(np.asarray(X) - c) - r).max())


def _concurrency(V, ends, X, min_length, ratio=None):
    """Largest distance of X from the lines <A_i Q_i> through the vertices A_i
    and the points Q_i of ends, and with ratio given, from the points
    A_i + ratio (Q_i - A_i).  Lines shorter than min_length are skipped; inf
    when fewer than two remain."""
    D = np.asarray(ends) - V
    keep = np.linalg.norm(D, axis=1) > min_length
    if keep.sum() < 2:
        return np.inf
    residual = Line(V[keep], D[keep]).distance(X).max()
    if ratio is not None:
        residual = max(residual, np.linalg.norm(X - V[keep] - ratio * D[keep], axis=1).max())
    return residual


def _polygon_claims(P, rep, tol):
    """verify_polygon_theorems on rep = subpolygon_family(P)."""
    d, R, norm, V = P.d, P.R, P.norm, P.vertices
    short = tol.eps_geom * R
    c, r = rep.circles["sub_monge"]
    residuals = {
        # 5.1(a): P_M lies on every circle S(P_M^i, R)
        "5.1a_complementary_circles": _sphere_defect(norm, rep.sub_complementary, rep.P_M, R),
        # 5.1(b): lines <A_i P_M^i> concurrent in C_M
        "5.1b_spatial_center_concurrency": _concurrency(V, rep.sub_complementary, rep.C_M, short),
        # 5.1(c): midpoints E_i concyclic on S(C_M, R/2)
        "5.1c_midpoint_circle": _sphere_defect(norm, rep.midpoints, rep.C_M, R / 2),
        # 5.1(d): C_M on every S(C_M^i, R/2), and the C_M^i on S(C_M, R/2)
        "5.1d_sub_spatial_circle": _sphere_defect(norm, rep.sub_spatial, rep.C_M, R / 2),
        # 5.2(a): lines <A_i N_M^i> concurrent in N_M, internal ratio (d-2):1
        "5.2a_monge_concurrency": _concurrency(V, rep.sub_monge, rep.N_M, short,
                                               (d - 2) / (d - 1)),
        # 5.2(b): sub-centroids G_i and division points L^M_i on S(F_M, R/d)
        "5.2b_feuerbach_circle": _sphere_defect(
            norm, np.concatenate([rep.sub_centroids, rep.F_M + (V - P.M) / d]), rep.F_M, R / d),
        # 5.2(c): sub-Monge points concyclic on S(euler_point(V, M, d-2), R/(d-2))
        "5.2c_sub_monge_circle": _sphere_defect(norm, rep.sub_monge, c, r),
    }
    limit = 10 * tol.eps_geom * R
    return {name: (bool(res <= limit), float(res)) for name, res in residuals.items()}


def parallelepiped_lift(P):
    """Planar projections V_S = euler_point(A_S, M, 1) of the vertices of the
    spanning (d+1)-parallelepiped, for every subset S of vertex indices.

    V_empty = M, singletons give the A_i, the full set gives P_M; the main
    diagonal [M, P_M] carries G, F_M, N_M at ratios 1:d, 1:(d-1), 1:(d-2).
    """
    n = P.d + 1
    if n > 20:
        raise ValueError("parallelepiped lift capped at 20 vertices (2^n blowup)")
    out = []
    for r in range(n + 1):
        for S in itertools.combinations(range(n), r):
            out.append((S, euler_point(P.vertices[list(S)], P.M, 1)))
    return out


def sample_cyclic_polygon(norm, M, R, n_vertices, rng=None):
    """Construct a cyclic polygon by walking the norm's unit sphere.

    Sorted random angles (at least 0.15 rad apart) give boundary
    directions; each vertex is M + R * u / ||u||, so the circumcircle property
    holds by construction.
    """
    rng = np.random.default_rng(rng)
    M = np.asarray(M, dtype=float)
    for _ in range(200):
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_vertices))
        gaps = np.diff(np.concatenate([theta, [theta[0] + 2.0 * np.pi]]))
        if gaps.min() < 0.15:
            continue
        U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        V = M + R * U / norm(U)[:, None]
        try:
            return CyclicPolygon(V, M, R, norm)
        except ValueError:
            continue
    raise RuntimeError("failed to sample a cyclic polygon in convex position")
