"""Norm-free affine primitives: lines, hyperplanes, incidence and concurrency.

Incidence, concurrency and parallelism are affine notions, so all tests here
use the auxiliary Euclidean metric regardless of the
ambient norm; tolerances are scaled by the instance size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import DEFAULT_TOL

__all__ = [
    "Line",
    "Hyperplane",
    "point_on_line",
    "lines_concurrent",
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
        if np.linalg.norm(self.direction) == 0.0:
            raise ValueError("line direction must be nonzero")

    def at(self, t):
        return self.base + t * self.direction


@dataclass(frozen=True)
class Hyperplane:
    base: np.ndarray
    spanning: np.ndarray  # (d-1, d), rank d-1

    def __post_init__(self):
        object.__setattr__(self, "base", _vec(self.base))
        S = np.atleast_2d(_vec(self.spanning))
        object.__setattr__(self, "spanning", S)
        d = self.base.shape[0]
        if S.shape != (d - 1, d):
            raise ValueError(f"expected {d - 1} spanning vectors of dimension {d}")
        if np.linalg.matrix_rank(S, tol=1e-12 * max(1.0, np.abs(S).max())) < d - 1:
            raise ValueError("spanning set is rank deficient")

    def normal(self):
        """Euclidean unit normal (auxiliary metric, used for incidence only)."""
        _, _, vh = np.linalg.svd(self.spanning)
        return vh[-1]


def point_on_line(line, p, tol=DEFAULT_TOL):
    p = _vec(p)
    w = p - line.base
    d = line.direction / np.linalg.norm(line.direction)
    resid = np.linalg.norm(w - (w @ d) * d)
    scale = max(1.0, np.linalg.norm(w))
    return resid <= tol.eps_geom * scale


def _closest_point_pair(l1, l2, par_tol):
    """Midpoint of the closest points of two lines, or None for parallel lines."""
    d1, d2 = l1.direction, l2.direction
    A = np.stack([d1, -d2], axis=1)
    b = l2.base - l1.base
    g = A.T @ A
    if abs(np.linalg.det(g)) <= par_tol * (np.linalg.norm(d1) * np.linalg.norm(d2)) ** 2:
        return None
    t, s = np.linalg.solve(g, A.T @ b)
    return 0.5 * (l1.at(t) + l2.at(s))


def lines_concurrent(lines, tol=DEFAULT_TOL):
    """Common point of a family of lines, or None.

    Intersects every pair (closest-point midpoints in d >= 3) and accepts when
    all candidates coincide within the scaled tolerance; the mean candidate is
    returned and re-checked against each line.
    """
    lines = list(lines)
    if len(lines) < 2:
        raise ValueError("need at least two lines")
    pts = np.array([l.base for l in lines])
    scale = max(1.0, np.ptp(pts, axis=0).max()) if len(pts) else 1.0
    candidates = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            c = _closest_point_pair(lines[i], lines[j], 1e-14)
            if c is None:
                # distinct parallel lines cannot be concurrent
                if not point_on_line(lines[i], lines[j].base, tol):
                    return None
                continue
            candidates.append(c)
    if not candidates:
        raise ValueError("all lines are parallel")
    candidates = np.array(candidates)
    spread = np.ptp(candidates, axis=0).max() if len(candidates) > 1 else 0.0
    if spread > tol.eps_geom * scale:
        return None
    point = candidates.mean(axis=0)
    if all(point_on_line(l, point, tol) for l in lines):
        return point
    return None
