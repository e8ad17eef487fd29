"""Norm-free affine primitives: lines and hyperplanes.

Incidence is an affine notion, so distances here use the auxiliary
Euclidean metric regardless of the ambient norm.

A Line or Hyperplane may hold a batch: leading axes of its two arrays are
batch axes, as for the vertex arrays of centers.euler_point, and
Line.distance broadcasts over lines and points.  A Hyperplane is built from
a point on it and a normal vector.  ``rows()`` splits a batch of (m, d)
arrays into m objects, which share the checks the batch passed.
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


class _Batch:
    """A Line or Hyperplane whose two arrays may carry batch axes."""

    def rows(self):
        """One object per row of this batch of (m, d) arrays, built without
        re-running the checks the batch passed."""
        (k, a), (j, b) = vars(self).items()
        if a.ndim != 2:  # both constructors check that b has a's shape
            raise ValueError("rows need (m, d) arrays of one shape")
        new, cls = object.__new__, type(self)
        rows = [new(cls) for _ in range(len(a))]
        for row, x, y in zip(rows, a, b):
            fields = row.__dict__
            fields[k], fields[j] = x, y
        return rows


@dataclass(frozen=True)
class Line(_Batch):
    """The lines base + t * direction; leading axes are batch axes."""

    base: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", _vec(self.base))
        object.__setattr__(self, "direction", _vec(self.direction))
        if self.base.ndim == 0 or self.direction.shape != self.base.shape:
            raise ValueError("base and direction must be arrays of one shape")
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


class Hyperplane(_Batch):
    """The hyperplanes through base orthogonal to normal, which is stored as
    a Euclidean unit vector; leading axes are batch axes."""

    def __init__(self, base, normal):
        base, normal = _vec(base), _vec(normal)
        if base.ndim == 0 or normal.shape != base.shape:
            raise ValueError("base and normal must be arrays of one shape")
        # each length sqrt(n . n), as np.linalg.norm takes it for a vector
        length = np.sqrt(np.vecdot(normal, normal))
        if not (length > 0.0).all():
            raise ValueError("hyperplane normal must be nonzero")
        self.base = base
        self._normal = normal / length[..., None]

    def normal(self):
        """Euclidean unit normal (auxiliary metric, used for incidence only)."""
        return self._normal
