"""Norm-free affine primitives: lines and hyperplanes.

Incidence is an affine notion, so distances here use the auxiliary
Euclidean metric regardless of the ambient norm.

A Line may hold a batch of lines: leading axes of its base and direction
are batch axes, as for the vertex arrays of centers.euler_point, and
Line.distance broadcasts over lines and points.  A Hyperplane is built from
a point on it and a normal vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Line",
    "Hyperplane",
]


def _vec(x):
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Line:
    """The lines base + t * direction; leading axes are batch axes."""

    base: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", _vec(self.base))
        object.__setattr__(self, "direction", _vec(self.direction))
        if not (self.direction * self.direction).sum(axis=-1).all():
            raise ValueError("line direction must be nonzero")

    def distance(self, p):
        """Euclidean distance of p from the line, broadcast over the batch
        axes of the line and the leading axes of p; a float for one line and
        one point."""
        w = _vec(p) - self.base
        u = self.direction / np.linalg.norm(self.direction, axis=-1, keepdims=True)
        r = np.linalg.norm(w - np.sum(w * u, axis=-1, keepdims=True) * u, axis=-1)
        return float(r) if r.ndim == 0 else r


class Hyperplane:
    """The hyperplane through base orthogonal to normal, which is stored as
    a Euclidean unit vector."""

    def __init__(self, base, normal):
        base, normal = _vec(base), _vec(normal)
        if base.ndim != 1 or normal.shape != base.shape:
            raise ValueError("base and normal must be vectors of one dimension")
        length = np.linalg.norm(normal)
        if not length > 0.0:
            raise ValueError("hyperplane normal must be nonzero")
        self.base = base
        self._normal = normal / length

    def normal(self):
        """Euclidean unit normal (auxiliary metric, used for incidence only)."""
        return self._normal
