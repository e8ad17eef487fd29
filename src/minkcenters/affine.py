"""Norm-free affine primitives: lines and hyperplanes.

Incidence is an affine notion, so distances here use the auxiliary
Euclidean metric regardless of the ambient norm.

A Line may hold a batch of lines: leading axes of its base and direction
are batch axes, as for the vertex arrays of centers.euler_point, and
Line.distance broadcasts over lines and points.  A Hyperplane is built from
a point on it and a normal vector.  ``Line.rows`` and ``Hyperplane.rows``
split (m, d) arrays into m objects, checked once for the whole batch.
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


def _unchecked(cls, fields):
    """An instance of cls holding fields, built without cls's checks: one
    row of a batch that has passed them."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _row_pairs(a, b, what):
    """a and b as float arrays of one (m, d) shape."""
    a, b = _vec(a), _vec(b)
    if a.ndim != 2 or b.shape != a.shape:
        raise ValueError(f"base and {what} must be (m, d) arrays of one shape")
    return a, b


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

    @classmethod
    def rows(cls, base, direction):
        """One Line per row of the (m, d) arrays base and direction."""
        batch = cls(*_row_pairs(base, direction, "direction"))
        return [_unchecked(cls, {"base": b, "direction": u})
                for b, u in zip(batch.base, batch.direction)]

    def distance(self, p):
        """Euclidean distance of p from the line, broadcast over the batch
        axes of the line and the leading axes of p; a float for one line and
        one point."""
        w = _vec(p) - self.base
        u = self.direction / np.linalg.norm(self.direction, axis=-1, keepdims=True)
        r = np.linalg.norm(w - np.sum(w * u, axis=-1, keepdims=True) * u, axis=-1)
        return float(r) if r.ndim == 0 else r


def _unit_normals(normal):
    """normal divided by its Euclidean length along the last axis, each
    length sqrt(n . n) as np.linalg.norm takes it for a vector."""
    length = np.sqrt(np.vecdot(normal, normal))
    if not (length > 0.0).all():
        raise ValueError("hyperplane normal must be nonzero")
    return normal / length[..., None]


class Hyperplane:
    """The hyperplane through base orthogonal to normal, which is stored as
    a Euclidean unit vector."""

    def __init__(self, base, normal):
        base, normal = _vec(base), _vec(normal)
        if base.ndim != 1 or normal.shape != base.shape:
            raise ValueError("base and normal must be vectors of one dimension")
        self.base = base
        self._normal = _unit_normals(normal)

    @classmethod
    def rows(cls, base, normal):
        """One Hyperplane per row of the (m, d) arrays base and normal."""
        base, normal = _row_pairs(base, normal, "normal")
        return [_unchecked(cls, {"base": b, "_normal": n})
                for b, n in zip(base, _unit_normals(normal))]

    def normal(self):
        """Euclidean unit normal (auxiliary metric, used for incidence only)."""
        return self._normal
