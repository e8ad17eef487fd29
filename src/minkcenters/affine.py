"""Norm-free affine primitives: lines and hyperplanes.

Incidence is an affine notion, so distances here use the auxiliary
Euclidean metric regardless of the ambient norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Line",
    "Hyperplane",
]


def _vec(x):
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Line:
    base: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", _vec(self.base))
        object.__setattr__(self, "direction", _vec(self.direction))
        if self.direction @ self.direction == 0.0:
            raise ValueError("line direction must be nonzero")

    def distance(self, p):
        """Euclidean distance of p from the line."""
        w = _vec(p) - self.base
        u = self.direction / math.sqrt(self.direction @ self.direction)
        r = w - (w @ u) * u
        return math.sqrt(r @ r)


@dataclass(frozen=True)
class Hyperplane:
    base: np.ndarray
    spanning: np.ndarray  # (d-1, d), rank d-1
    _normal: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "base", _vec(self.base))
        S = np.atleast_2d(_vec(self.spanning))
        object.__setattr__(self, "spanning", S)
        d = self.base.shape[0]
        if S.shape != (d - 1, d):
            raise ValueError(f"expected {d - 1} spanning vectors of dimension {d}")
        # one SVD gives the rank test and the normal, the null vector of S
        _, sv, vh = np.linalg.svd(S)
        if not sv[-1] > 1e-12 * max(1.0, np.abs(S).max()):
            raise ValueError("spanning set is rank deficient")
        object.__setattr__(self, "_normal", vh[-1])

    def normal(self):
        """Euclidean unit normal (auxiliary metric, used for incidence only)."""
        return self._normal
