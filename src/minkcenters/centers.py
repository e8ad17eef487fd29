"""Simplex center constructions: Monge lines and point, M-hyperplanes,
complementary point, Euler line ratios, and the Feuerbach 2(d+1)-sphere.

Every center here is one point of the affine family

    euler_point(V, M, k) = M + sum_i (V_i - M) / k

over the vertices V of a d-simplex and a reference point M: k = d+1 gives
the centroid G, k = d the Feuerbach center F_M (sphere radius R/d), k = d-1
the Monge point N_M and k = 1 the complementary point P_M.  On fewer rows
the same kernel gives the face centroids that build the Monge lines and
M-hyperplanes: k = d-1 on the d-1 vertices of a ridge, k = 2 on the two of
an edge (its midpoint).  All of them are affine constructions: only the
sphere radii require M to be a certified circumcenter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .affine import Hyperplane, Line
from .circumcenter import NoCenterError, is_circumcenter, solve_circumcenter
from .norms import DEFAULT_TOL
from .simplex import _edges, _facets, _ridges

__all__ = [
    "CentersReport",
    "euler_point",
    "monge_point",
    "monge_lines",
    "m_hyperplanes",
    "full_report",
]


@dataclass(frozen=True)
class CentersReport:
    """Centers of T at a circumcenter M of radius R.  facet_centroids and
    division_points stay lists of d-vectors: readers join them with `+`
    (perfbench/workloads.py does), which on arrays would add elementwise."""

    M: np.ndarray
    R: float
    G: np.ndarray
    N_M: np.ndarray
    P_M: np.ndarray
    F_M: np.ndarray
    feuerbach_radius: float
    euler_line: Line | None
    collapsed: bool
    facet_centroids: list
    division_points: list
    ratio_residuals: dict = field(default_factory=dict)


def euler_point(V, M, k):
    """M + sum_i (V_i - M) / k over the rows V_i of V (the module docstring
    lists the centers each k gives).  Leading axes of V are batch axes."""
    M = np.asarray(M, dtype=float)
    return M + (np.asarray(V, dtype=float) - M).sum(axis=-2) / k


def monge_point(T, M):
    """N_M = euler_point(vertices, M, d-1); works for any reference point M."""
    return euler_point(T.vertices, M, T.dim - 1)


def _monge_pairs(T, M, tol):
    """(ridges, ridge centroids, directions from M to the opposite edge
    midpoints) over the C(d+1, 2) edges in lexicographic order, as arrays,
    without the pair whose edge midpoint is M."""
    M = np.asarray(M, dtype=float)
    V, d = T.vertices, T.dim
    directions = euler_point(V[_edges(d + 1)], M, 2) - M
    keep = np.linalg.norm(directions, axis=1) > tol.eps_geom * T.diameter
    ridges = V[_ridges(d + 1)[keep]]
    return ridges, euler_point(ridges, M, d - 1), directions[keep]


def monge_lines(T, M, tol=DEFAULT_TOL):
    """One Monge line per (ridge, opposite edge) pair: through the ridge
    centroid, parallel to the line from M to the edge midpoint.

    Pairs where M coincides with the edge midpoint are skipped (at most one).
    """
    _, bases, directions = _monge_pairs(T, M, tol)
    return Line(bases, directions).rows()


def m_hyperplanes(T, M, tol=DEFAULT_TOL):
    """M-hyperplanes: contain a ridge F and are parallel to the line from M to
    the opposite edge midpoint.  Pairs with M at the midpoint, or with that
    line parallel to F, are skipped; at least d hyperplanes always remain.
    """
    return Hyperplane(*_m_hyperplane_arrays(T, *_monge_pairs(T, M, tol))).rows()


def _m_hyperplane_arrays(T, ridges, bases, directions):
    """(bases, unit normals) of the M-hyperplanes, as arrays, from the
    _monge_pairs arrays (ridges, ridge centroids, directions)."""
    span = np.concatenate([ridges[:, 1:] - ridges[:, :1], directions[:, None]], axis=1)
    # one SVD of the stack: the span has rank d-1 unless the direction is
    # parallel to the ridge, and the last right singular vector is the normal
    _, sv, vh = np.linalg.svd(span)
    keep = sv[:, -1] > 1e-10 * T.diameter
    return bases[keep], vh[keep, -1]


def full_report(norm, T, M=None, tol=DEFAULT_TOL):
    """Compute all centers of T and validate the Euler-line division ratios.

    When M is omitted the circumcenter solver provides it; a given M must be
    a circumcenter at tolerance.  NoCenterError says when there is none.
    Ratios are checked through affine parameters along the Euler line
    (norm-independent), and the report records their residuals.  The 2(d+1) Feuerbach incidence
    points are the facet centroids G_i and the division points
    L^M_i = F_M + (A_i - M)/d, which divide [N_M, A_i] in the ratio 1:(d-1).
    """
    if M is None:
        M, R = solve_circumcenter(norm, T, tol).certified()
    else:
        R = is_circumcenter(norm, T, M, tol)
        if R is None:
            raise NoCenterError("M is not a circumcenter at tolerance")
    return _report(T, M, R, tol)


def _report(T, M, R, tol):
    """full_report of T at M, already certified as a circumcenter of radius R."""
    M = np.asarray(M, dtype=float)
    V, d = T.vertices, T.dim
    D = V - M
    S = D.sum(axis=0)  # euler_point(V, M, k) = M + S / k
    G, F_M, N_M, P_M = M + S / (d + 1), M + S / d, M + S / (d - 1), M + S
    s = P_M - M
    collapsed = bool(math.sqrt(s.dot(s)) <= tol.eps_geom * T.diameter)
    euler = None if collapsed else Line(M, s)

    ratios = {}
    if not collapsed:
        # parameters t of G, F_M and N_M along M + t * s, against their
        # expected values
        ss = s @ s
        t_G, t_F, t_N = (float((X - M) @ s / ss) for X in (G, F_M, N_M))
        ratios["G_on_MP"] = abs(t_G - 1.0 / (d + 1))
        ratios["F_on_MP"] = abs(t_F - 1.0 / d)
        # d=2: N_M = P_M, ratio 1:(d-2) degenerates
        ratios["N_on_MP"] = abs(t_N - 1.0 / (d - 1)) if d >= 3 else "coincident"
        ratios["G_on_MN"] = abs(t_G / (1.0 / (d - 1)) - (d - 1) / (d + 1))
        # F_M divides [N_M, M] internally in the ratio 1:(d-1)
        t_FN = (N_M - F_M) @ s / ss
        ratios["F_on_NM"] = abs(t_FN / (1.0 / (d - 1)) - 1.0 / d)

    return CentersReport(
        M=M, R=R, G=G, N_M=N_M, P_M=P_M, F_M=F_M,
        feuerbach_radius=R / d, euler_line=euler, collapsed=collapsed,
        facet_centroids=list(euler_point(V[_facets(d + 1)], M, d)),
        division_points=list(F_M + D / d),
        ratio_residuals=ratios,
    )
