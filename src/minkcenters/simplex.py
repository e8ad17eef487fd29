"""Simplices in general position, the index tables of their edges, ridges
and facets, and the Euclidean orthocentricity cross-check behind the Monge
point's independent oracle.
"""

from __future__ import annotations

import functools

import numpy as np

from .norms import DEFAULT_TOL, _in_range, _reals

__all__ = ["Simplex", "euclid_orthocenter"]


class Simplex:
    """d+1 points in general position in R^d."""

    __slots__ = ("vertices", "diameter")

    def __init__(self, vertices, tol=DEFAULT_TOL):
        V = _reals(vertices, "vertex coordinates", 2)
        if V.shape[0] != V.shape[1] + 1:
            raise ValueError("a d-simplex needs d+1 vertices in R^d")
        if V.shape[1] < 2:
            raise ValueError("dimension must be >= 2")
        scale = max(np.ptp(V, axis=0).max(), 1e-300)
        if not abs(np.linalg.det((V[1:] - V[0]) / scale)) > tol.eps_geom:
            raise ValueError("general position violated")
        _in_range(V, "vertex coordinates")
        self.vertices = V
        # Euclidean diameter of the vertex set (tolerance scale)
        self.diameter = float(np.linalg.norm(V[:, None] - V[None, :], axis=-1).max())
        _in_range(self.diameter, "simplex diameter", size=True)

    @property
    def dim(self):
        return self.vertices.shape[1]

    def __repr__(self):
        return f"Simplex(d={self.dim})"


def _read_only(a):
    a.flags.writeable = False
    return a


def _rows_without(n, drop):
    """(m, n-k) array whose row j lists range(n) without the k entries drop[j]."""
    keep = np.ones((len(drop), n), dtype=bool)
    keep[np.arange(len(drop))[:, None], drop] = False
    return _read_only(np.nonzero(keep)[1].reshape(len(drop), -1))


# Index arrays of an n-vertex simplex: each is built on first use (a polygon
# reads only its facets) and shared per n, so read-only.
@functools.lru_cache(maxsize=32)
def _edges(n):
    """(C(n, 2), 2) vertex pairs of an n-vertex simplex in lexicographic order."""
    return _read_only(np.transpose(np.triu_indices(n, 1)))


@functools.lru_cache(maxsize=32)
def _ridges(n):
    """(C(n, 2), n-2): row e lists the vertices off edge e, in order."""
    return _rows_without(n, _edges(n))


@functools.lru_cache(maxsize=32)
def _facets(n):
    """(n, n-1): row i lists the vertices other than i, in order."""
    return _rows_without(n, np.arange(n)[:, None])


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
    edges = _edges(n)
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
