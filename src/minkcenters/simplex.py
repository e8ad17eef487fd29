"""Simplices in general position, and the Euclidean orthocentricity
cross-check behind the Monge point's independent oracle.
"""

from __future__ import annotations

import numpy as np

from .norms import DEFAULT_TOL

__all__ = ["Simplex", "euclid_orthocenter"]


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


def euclid_orthocenter(T, tol=DEFAULT_TOL):
    """Altitude intersection of T, or None when T is not orthocentric.

    T is orthocentric when every two vertex-disjoint edges are Euclidean
    perpendicular (always, for a triangle).  The altitude through A_i is
    perpendicular to the opposite facet, so H solves (H - A_i).(A_j - A_k)
    = 0 for every i and every edge {j, k} of that facet; one least-squares
    solve of the whole system gives H.  This is the independent oracle for
    the Monge point.
    """
    n = T.dim + 1
    edges = np.transpose(np.triu_indices(n, 1))
    E = T.vertices[edges[:, 1]] - T.vertices[edges[:, 0]]
    disjoint = (edges[:, None, :, None] != edges[None, :, None, :]).all(axis=(2, 3))
    if not (np.abs(E @ E.T)[disjoint] <= tol.eps_geom * T.diameter ** 2).all():
        return None
    c = T.vertices.mean(axis=0)
    V = T.vertices - c
    # one row per vertex i and edge {j, k} of its opposite facet, i-major
    i, e = np.nonzero((edges != np.arange(n)[:, None, None]).all(axis=2))
    U = V[edges[e, 0]] - V[edges[e, 1]]
    return c + np.linalg.lstsq(U, np.sum(U * V[i], axis=1), rcond=None)[0]
