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
from .centers import _division_points, _vertex_deleted, euler_point
from .norms import DEFAULT_TOL

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
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2:
            raise ValueError("cyclic polygons live in the plane")
        if V.shape[0] < 4:
            raise ValueError("need at least 4 vertices (d >= 3)")
        M = np.asarray(M, dtype=float)
        if not R > 0:
            raise ValueError("radius must be positive")
        dd = norm(V - M)
        if np.abs(dd - R).max() > tol.eps_geom * R:
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
        self.R = float(R)
        self.norm = norm

    @property
    def d(self):
        """Simplex-convention degree: the polygon has d+1 vertices."""
        return len(self.vertices) - 1


@dataclass(frozen=True)
class PolygonReport:
    G: np.ndarray
    F_M: np.ndarray
    N_M: np.ndarray
    P_M: np.ndarray
    C_M: np.ndarray
    sub_complementary: list  # P_M^i
    sub_spatial: list        # C_M^i
    sub_monge: list          # N_M^i
    sub_centroids: list      # G_i
    midpoints: list          # E_i = midpoint of [A_i, P_M]
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
                         sub_complementary=list(euler_point(sub, M, 1)),
                         sub_spatial=list(euler_point(sub, M, 2)),
                         sub_monge=list(euler_point(sub, M, d - 2)),
                         sub_centroids=list(euler_point(sub, M, d)),
                         midpoints=[0.5 * (v + P_M) for v in V], circles=circles)


def verify_polygon_theorems(P, tol=DEFAULT_TOL):
    """Check every incidence/concurrency claim; returns {claim: (ok, residual)}.

    A claim is ok when its residual is at most 10 * eps_geom * R (1e-8 * R at
    the default tolerance).  Near-degenerate lines (endpoints closer than
    eps_geom * R) are skipped; each concurrency claim requires at least two
    surviving lines.
    """
    d = P.d
    R = P.R
    norm = P.norm
    rep = subpolygon_family(P)
    V = P.vertices
    out = {}

    def record(name, residual):
        out[name] = (bool(residual <= 10 * tol.eps_geom * R), float(residual))

    def record_concurrency(name, ends, X, ratio=None):
        """Lines <A_i Q_i> through X, and X = A_i + ratio (Q_i - A_i) if given."""
        D = np.asarray(ends) - V
        keep = np.linalg.norm(D, axis=1) > tol.eps_geom * R
        if keep.sum() < 2:
            out[name] = (False, np.inf)
            return
        residual = max(Line(a, u).distance(X) for a, u in zip(V[keep], D[keep]))
        if ratio is not None:
            residual = max(residual, np.linalg.norm(X - V[keep] - ratio * D[keep], axis=1).max())
        record(name, residual)

    # 5.1(a): P_M lies on every circle S(P_M^i, R)
    record("5.1a_complementary_circles",
           max(abs(norm(rep.P_M - q) - R) for q in rep.sub_complementary))

    # 5.1(b): lines <A_i P_M^i> concurrent in C_M
    record_concurrency("5.1b_spatial_center_concurrency", rep.sub_complementary, rep.C_M)

    # 5.1(c): midpoints E_i concyclic on S(C_M, R/2)
    record("5.1c_midpoint_circle",
           max(abs(norm(e - rep.C_M) - R / 2) for e in rep.midpoints))

    # 5.1(d): C_M on every S(C_M^i, R/2), and the C_M^i on S(C_M, R/2)
    record("5.1d_sub_spatial_circle",
           max(abs(norm(rep.C_M - c) - R / 2) for c in rep.sub_spatial))

    # 5.2(a): lines <A_i N_M^i> concurrent in N_M, internal ratio (d-2):1
    record_concurrency("5.2a_monge_concurrency", rep.sub_monge, rep.N_M, (d - 2) / (d - 1))

    # 5.2(b): sub-centroids G_i and division points L^M_i on S(F_M, R/d)
    L = _division_points(V, P.M, d)
    record("5.2b_feuerbach_circle",
           max(max(abs(norm(g - rep.F_M) - R / d) for g in rep.sub_centroids),
               max(abs(norm(l - rep.F_M) - R / d) for l in L)))

    # 5.2(c): sub-Monge points concyclic on S(euler_point(V, M, d-2), R/(d-2))
    c, r = rep.circles["sub_monge"]
    record("5.2c_sub_monge_circle",
           max(abs(norm(q - c) - r) for q in rep.sub_monge))
    return out


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
