"""Simplices in general position, and the Euclidean orthocentricity
cross-check behind the Monge point's independent oracle.
"""

from __future__ import annotations

import itertools

import numpy as np

from .norms import DEFAULT_TOL

__all__ = [
    "Simplex",
    "euclid_is_orthocentric",
    "euclid_orthocenter",
]


class Simplex:
    """d+1 points in general position in R^d."""

    def __init__(self, vertices, tol=DEFAULT_TOL):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] != V.shape[1] + 1:
            raise ValueError("a d-simplex needs d+1 vertices in R^d")
        if V.shape[1] < 2:
            raise ValueError("dimension must be >= 2")
        if not np.all(np.isfinite(V)):
            raise ValueError("vertex coordinates must be finite")
        scale = max(np.ptp(V, axis=0).max(), 1e-300)
        det = np.linalg.det(V[1:] - V[0])
        if abs(det) <= tol.eps_geom * scale ** V.shape[1]:
            raise ValueError("general position violated")
        self.vertices = V
        # Euclidean diameter of the vertex set (tolerance scale)
        self.diameter = float(np.linalg.norm(V[:, None] - V[None, :], axis=-1).max())

    @property
    def dim(self):
        return self.vertices.shape[1]

    def __repr__(self):
        return f"Simplex(d={self.dim})"


def euclid_is_orthocentric(T, tol=DEFAULT_TOL):
    """Every pair of vertex-disjoint edges is Euclidean-perpendicular.

    Trivially true for triangles (no disjoint edge pairs).
    """
    V = T.vertices
    scale = T.diameter
    for e1, e2 in itertools.combinations(itertools.combinations(range(T.dim + 1), 2), 2):
        if set(e1) & set(e2):
            continue
        u = V[e1[1]] - V[e1[0]]
        w = V[e2[1]] - V[e2[0]]
        if abs(u @ w) > tol.eps_geom * scale**2:
            return False
    return True


def euclid_orthocenter(T, tol=DEFAULT_TOL):
    """Altitude intersection of T, or None when T is not orthocentric.

    The altitude through A_i is perpendicular to the opposite facet, so H
    solves (H - A_i).(A_j - A_k) = 0 for every i and every edge {j, k} of
    that facet; one least-squares solve of the whole system gives H.  This
    is the independent oracle for the Monge point.
    """
    if not euclid_is_orthocentric(T, tol):
        return None
    c = T.vertices.mean(axis=0)
    V = T.vertices - c
    ijk = np.array([t for t in itertools.permutations(range(T.dim + 1), 3) if t[1] < t[2]])
    U = V[ijk[:, 1]] - V[ijk[:, 2]]
    return c + np.linalg.lstsq(U, np.sum(U * V[ijk[:, 0]], axis=1), rcond=None)[0]
