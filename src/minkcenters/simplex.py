"""Simplex combinatorics: faces, face centroids, ridge/edge pairs, and the
Euclidean orthocentricity cross-check.

Faces are index sets into the single vertex array; derived points are always
recomputed from the vertices, never cached copies.
"""

from __future__ import annotations

import itertools

import numpy as np

from .affine import Line, lines_concurrent
from .norms import DEFAULT_TOL

__all__ = [
    "Simplex",
    "face_centroid",
    "ridge_edge_pairs",
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

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def diameter(self):
        """Euclidean diameter of the vertex set (tolerance scale)."""
        V = self.vertices
        return float(np.linalg.norm(V[:, None] - V[None, :], axis=-1).max())

    def face(self, indices):
        indices = list(indices)
        idx = sorted(set(indices))
        if len(idx) != len(indices) or not idx:
            raise ValueError("face index set must be nonempty without duplicates")
        if idx[0] < 0 or idx[-1] > self.dim:
            raise ValueError("face index out of range")
        return tuple(idx)

    def __repr__(self):
        return f"Simplex(d={self.dim})"


def face_centroid(T, face):
    idx = T.face(face)
    return T.vertices[list(idx)].mean(axis=0)


def ridge_edge_pairs(T):
    """All (ridge, opposite edge) pairs, indexed by the C(d+1, 2) edges."""
    d = T.dim
    pairs = []
    for edge in itertools.combinations(range(d + 1), 2):
        ridge = tuple(i for i in range(d + 1) if i not in edge)
        pairs.append((ridge, edge))
    return pairs


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


def _facet_normal(V, i):
    """Euclidean normal of the facet opposite vertex i."""
    others = np.delete(np.arange(V.shape[0]), i)
    S = V[others[1:]] - V[others[0]]
    _, _, vh = np.linalg.svd(S)
    return vh[-1]


def euclid_orthocenter(T, tol=DEFAULT_TOL):
    """Altitude intersection of an orthocentric simplex, or None.

    Each altitude runs through a vertex along the Euclidean normal of the
    opposite facet; this is the independent oracle for the Monge point.
    """
    if not euclid_is_orthocentric(T, tol):
        return None
    V = T.vertices
    altitudes = [Line(V[i], _facet_normal(V, i)) for i in range(T.dim + 1)]
    return lines_concurrent(altitudes, tol)
