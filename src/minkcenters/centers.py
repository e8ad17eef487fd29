"""Simplex center constructions: Monge lines and point, M-hyperplanes,
complementary point, Euler line ratios, and the Feuerbach 2(d+1)-sphere.

With s = sum_i (A_i - M), the centers associated to a point M are

    G   = M + s / (d+1)      (centroid)
    F_M = M + s / d          (Feuerbach / 2(d+1)-center, radius R/d)
    N_M = M + s / (d-1)      (Monge point)
    P_M = M + s              (complementary point)

All four are affine constructions: only the sphere radii require M to be a
certified circumcenter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affine import Hyperplane, Line
from .circumcenter import is_circumcenter, solve_circumcenter
from .norms import DEFAULT_TOL
from .simplex import face_centroid, ridge_edge_pairs

__all__ = [
    "CentersReport",
    "monge_point",
    "complementary_point",
    "feuerbach_center",
    "feuerbach_incidence_points",
    "monge_lines",
    "m_hyperplanes",
    "full_report",
]


@dataclass(frozen=True)
class CentersReport:
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


def _vertex_sum(T, M):
    M = np.asarray(M, dtype=float)
    return M, np.sum(T.vertices - M, axis=0)


def monge_point(T, M):
    """N_M = M + sum(A_i - M) / (d - 1); works for any reference point M."""
    if T.dim < 2:
        raise ValueError("Monge point needs d >= 2")
    M, s = _vertex_sum(T, M)
    return M + s / (T.dim - 1)


def complementary_point(T, M):
    """P_M = M + sum(A_i - M); equivalently A_j + d (G_j - M) for every j."""
    M, s = _vertex_sum(T, M)
    return M + s


def feuerbach_center(T, M, norm, tol=DEFAULT_TOL):
    """(F_M, R/d); requires M to be a circumcenter since the radius depends on R."""
    R = is_circumcenter(norm, T, M, tol)
    if R is None:
        raise ValueError("M is not a circumcenter at tolerance")
    M, s = _vertex_sum(T, M)
    return M + s / T.dim, R / T.dim


def feuerbach_incidence_points(T, M, norm, tol=DEFAULT_TOL):
    """The 2(d+1) points on the Feuerbach sphere: facet centroids G_i and the
    division points L^M_i = M + s/d - (M - A_i)/d."""
    if is_circumcenter(norm, T, M, tol) is None:
        raise ValueError("M is not a circumcenter at tolerance")
    return _incidence_points(T, M)


def _incidence_points(T, M):
    M, s = _vertex_sum(T, M)
    d = T.dim
    facet_centroids = [face_centroid(T, [j for j in range(d + 1) if j != i])
                       for i in range(d + 1)]
    division_points = [M + s / d - (M - T.vertices[i]) / d for i in range(d + 1)]
    return facet_centroids, division_points


def monge_lines(T, M, tol=DEFAULT_TOL):
    """One Monge line per (ridge, opposite edge) pair: through the ridge
    centroid, parallel to the line from M to the edge midpoint.

    Pairs where M coincides with the edge midpoint are skipped (at most one).
    """
    M = np.asarray(M, dtype=float)
    scale = T.diameter
    lines = []
    for ridge, edge in ridge_edge_pairs(T):
        mid = face_centroid(T, edge)
        direction = mid - M
        if np.linalg.norm(direction) <= tol.eps_geom * scale:
            continue
        lines.append(Line(face_centroid(T, ridge), direction))
    return lines


def m_hyperplanes(T, M, tol=DEFAULT_TOL):
    """M-hyperplanes: contain a ridge F and are parallel to the line from M to
    the opposite edge midpoint.  Pairs with M at the midpoint, or with that
    line parallel to F, are skipped; at least d hyperplanes always remain.
    """
    M = np.asarray(M, dtype=float)
    d = T.dim
    scale = T.diameter
    planes = []
    for ridge, edge in ridge_edge_pairs(T):
        mid = face_centroid(T, edge)
        direction = mid - M
        if np.linalg.norm(direction) <= tol.eps_geom * scale:
            continue
        base = face_centroid(T, ridge)
        ridge_dirs = T.vertices[list(ridge[1:])] - T.vertices[ridge[0]]
        span = np.vstack([ridge_dirs, direction]) if len(ridge) > 1 else direction[None, :]
        if np.linalg.matrix_rank(span, tol=1e-10 * max(1.0, scale)) < d - 1:
            continue  # direction parallel to the ridge
        planes.append(Hyperplane(base, span))
    return planes


def _affine_ratio(M, X, s):
    """Parameter t with X = M + t * s (s the Euler direction)."""
    return float((np.asarray(X) - M) @ s / (s @ s))


def full_report(norm, T, M=None, tol=DEFAULT_TOL):
    """Compute all centers of T and validate the Euler-line division ratios.

    When M is omitted the circumcenter solver provides it.  Ratios are checked
    through affine parameters along the Euler line (norm-independent), and the
    report records their residuals.
    """
    if M is None:
        result = solve_circumcenter(norm, T, tol)
        if not result.found:
            raise ValueError("no circumcenter found at tolerance")
        M = result.center
    R = is_circumcenter(norm, T, M, tol)
    if R is None:
        raise ValueError("M is not a circumcenter at tolerance")
    M = np.asarray(M, dtype=float)
    d = T.dim
    s = np.sum(T.vertices - M, axis=0)
    G = M + s / (d + 1)
    F_M = M + s / d
    N_M = M + s / (d - 1)
    P_M = M + s
    collapsed = bool(np.linalg.norm(s) <= tol.eps_geom * T.diameter)
    euler = None if collapsed else Line(M, s)

    ratios = {}
    if not collapsed:
        # expected parameters of each center along M + t * s
        ratios["G_on_MP"] = abs(_affine_ratio(M, G, s) - 1.0 / (d + 1))
        ratios["F_on_MP"] = abs(_affine_ratio(M, F_M, s) - 1.0 / d)
        if d >= 3:
            ratios["N_on_MP"] = abs(_affine_ratio(M, N_M, s) - 1.0 / (d - 1))
        else:
            ratios["N_on_MP"] = "coincident"  # d=2: N_M = P_M, ratio 1:(d-2) degenerates
        ratios["G_on_MN"] = abs(_affine_ratio(M, G, s) / (1.0 / (d - 1)) - (d - 1) / (d + 1))
        # F_M divides [N_M, M] internally in the ratio 1:(d-1)
        t_F = (N_M - F_M) @ s / (s @ s)
        ratios["F_on_NM"] = abs(t_F / (1.0 / (d - 1)) - 1.0 / d)

    facet_centroids, division_points = _incidence_points(T, M)  # M certified above
    return CentersReport(
        M=M, R=R, G=G, N_M=N_M, P_M=P_M, F_M=F_M,
        feuerbach_radius=R / d, euler_line=euler, collapsed=collapsed,
        facet_centroids=facet_centroids, division_points=division_points,
        ratio_residuals=ratios,
    )
