"""Minkowski norms and orthogonality predicates.

A norm is specified in one of three ways: the Euclidean norm, an l_p norm
with exponent p >= 1 (including infinity), or a polyhedral norm given by the
vertices of a centrally symmetric unit-ball polytope.  Polyhedral norms are
evaluated through the Minkowski functional of the polytope: the facet
inequalities are enumerated once at construction time and the norm is the
maximum of the facet functionals.

On top of plain evaluation, this module decides the two classical
orthogonality relations of normed spaces (isosceles and Birkhoff).  Birkhoff
orthogonality is read off the norm's subgradients (the supporting functionals
of the unit ball), which makes it exact for smooth and polyhedral norms alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "Norm",
    "is_isosceles_orthogonal",
    "is_birkhoff_orthogonal",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by the geometric predicates and solvers.

    eps_geom is the incidence/equality tolerance.
    """

    eps_geom: float = 1e-9

    def __post_init__(self):
        if not self.eps_geom > 0:
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerances()


class Norm:
    """A norm on R^d: Euclidean, l_p, or polyhedral (unit-ball vertices).

    Instances are immutable and callable: ``norm(v)`` evaluates the norm of
    ``v``, vectorized over the leading axes of an ``(..., d)`` array.
    """

    def __init__(self, kind, p=None, vertices=None):
        if kind not in ("euclidean", "lp", "polyhedral"):
            raise ValueError(f"unknown norm kind: {kind!r}")
        self.kind = kind
        self.p = None
        self.dim = None  # fixed only for polyhedral norms
        self._facets = None
        if kind == "lp":
            p = float(p)
            if not p >= 1:
                raise ValueError("lp exponent must be >= 1")
            self.p = p
        elif kind == "polyhedral":
            self._init_polyhedral(vertices)

    # -- constructors ------------------------------------------------------

    @classmethod
    def euclidean(cls):
        return cls("euclidean")

    @classmethod
    def lp(cls, p):
        return cls("lp", p=p)

    @classmethod
    def polyhedral(cls, vertices):
        return cls("polyhedral", vertices=vertices)

    def _init_polyhedral(self, vertices):
        from scipy.spatial import ConvexHull, cKDTree

        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] < 2:
            raise ValueError("polyhedral unit ball needs an (m, d) vertex array, d >= 2")
        d = V.shape[1]
        if d > 4:
            raise ValueError("polyhedral norms are supported for d <= 4")
        scale = np.abs(V).max()
        # central symmetry: every vertex must have its antipode in the set
        for v in V:
            if np.min(np.linalg.norm(V + v, axis=1)) > 1e-9 * max(1.0, scale):
                raise ValueError("unit-ball vertex set is not centrally symmetric")
        try:
            hull = ConvexHull(V)
        except Exception as exc:
            raise ValueError(f"degenerate unit-ball polytope: {exc}") from None
        # hull facets: a.x + b <= 0; origin strictly interior iff all b < 0
        A = hull.equations[:, :-1]
        b = hull.equations[:, -1]
        if np.any(b >= -1e-12 * max(1.0, scale)):
            raise ValueError("origin is not strictly interior to the unit ball")
        self.dim = d
        self.unit_ball_vertices = V
        # Minkowski functional: gamma(x) = max_f (a_f . x) / (-b_f).  Qhull
        # triangulates, so a facet with more than d vertices comes once per
        # triangle; keep the first of each group of rows that agree.
        F = A / (-b)[:, None]
        same = cKDTree(F).query_pairs(1e-9 * np.abs(F).max(), p=np.inf, output_type="ndarray")
        self._facets = np.delete(F, same[:, 1], axis=0)

    # -- evaluation --------------------------------------------------------

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        if self.dim is not None and v.shape[-1] != self.dim:
            raise ValueError(f"vector dimension {v.shape[-1]} != norm dimension {self.dim}")
        if v.shape[-1] < 1:
            raise ValueError("empty vector")
        if self.kind == "euclidean":
            return np.linalg.norm(v, axis=-1)
        if self.kind == "lp":
            if math.isinf(self.p):
                return np.max(np.abs(v), axis=-1)
            return np.sum(np.abs(v) ** self.p, axis=-1) ** (1.0 / self.p)
        return np.maximum(np.max(v @ self._facets.T, axis=-1), 0.0)

    def subgradients(self, x, eps):
        """Extreme points of the subdifferential of the norm at x, as rows.

        Each row g supports the unit ball at x: g.x = ||x|| and g.y <= ||y||
        for every y.  A coordinate or facet counts as active when it comes
        within eps*||x|| of attaining the norm.  x must be nonzero.
        """
        x = np.asarray(x, dtype=float)
        nx = float(self(x))
        if nx == 0.0:
            raise ValueError("subgradients need a nonzero vector")
        slack = eps * nx
        if self.kind == "euclidean":
            return (x / nx)[None, :]
        if self.kind == "polyhedral":
            F = self._facets
            return F[F @ x >= nx - slack]
        if math.isinf(self.p):
            return np.diag(np.sign(x))[np.abs(x) >= nx - slack]
        if self.p == 1.0:
            zero = np.flatnonzero(np.abs(x) <= slack)
            G = np.tile(np.sign(x), (2 ** len(zero), 1))
            G[:, zero] = list(itertools.product((-1.0, 1.0), repeat=len(zero)))
            return G
        u = x / nx
        return (np.sign(u) * np.abs(u) ** (self.p - 1.0))[None, :]

    def facets(self, d):
        """Rows F_f with ||x|| = max_f F_f.x on R^d (polyhedral kinds only).

        l_inf gives +-e_k, l_1 the 2^d sign vectors (d <= 7), and a polytope
        norm its facet functionals.  The l_1 and l_inf rows are built on each
        call, not stored on the norm.
        """
        if self.smooth:
            raise ValueError(f"{self!r} is smooth and has no facets")
        if self.kind == "polyhedral":
            if d != self.dim:
                raise ValueError(f"dimension {d} != norm dimension {self.dim}")
            return self._facets
        if math.isinf(self.p):
            return np.vstack([np.eye(d), -np.eye(d)])
        if d > 7:
            raise ValueError("polyhedral l1 norms are supported for d <= 7")
        return np.array(list(itertools.product((1.0, -1.0), repeat=d)))

    @property
    def smooth(self):
        """True when the unit sphere has a unique supporting line everywhere.

        Guarantees existence of circumcenters for every simplex.
        """
        if self.kind == "euclidean":
            return True
        return self.kind == "lp" and 1.0 < self.p < math.inf

    # -- (de)serialization -------------------------------------------------

    def to_json(self):
        if self.kind == "euclidean":
            return {"kind": "euclidean"}
        if self.kind == "lp":
            return {"kind": "lp", "p": "inf" if math.isinf(self.p) else self.p}
        return {"kind": "polyhedral", "vertices": self.unit_ball_vertices.tolist()}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("norm record must be an object with a 'kind' field")
        kind = obj["kind"]
        if kind == "euclidean":
            extra = set(obj) - {"kind"}
        elif kind == "lp":
            extra = set(obj) - {"kind", "p"}
        elif kind == "polyhedral":
            extra = set(obj) - {"kind", "vertices"}
        else:
            raise ValueError(f"unknown norm kind: {kind!r}")
        if extra:
            raise ValueError(f"unknown fields in norm record: {sorted(extra)}")
        if kind == "euclidean":
            return cls.euclidean()
        if kind == "lp":
            p = obj.get("p")
            if p in ("inf", "infinity"):
                p = math.inf
            return cls.lp(p)
        return cls.polyhedral(obj.get("vertices"))

    def __repr__(self):
        if self.kind == "lp":
            return f"Norm.lp({self.p})"
        if self.kind == "polyhedral":
            return f"Norm.polyhedral(<{len(self.unit_ball_vertices)} vertices, d={self.dim}>)"
        return "Norm.euclidean()"


def _check_pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be vectors of the same dimension")
    return x, y


def is_isosceles_orthogonal(spec, x, y, tol=DEFAULT_TOL):
    """x is isosceles orthogonal to y: the two diagonals x+y, x-y have equal length.

    The tolerance scales with max(||x||, ||y||), so the test is homogeneous:
    scaling x and y together never changes the answer.
    """
    x, y = _check_pair(x, y)
    scale = max(spec(x), spec(y))
    return abs(spec(x + y) - spec(x - y)) <= tol.eps_geom * scale


def is_birkhoff_orthogonal(spec, x, y, tol=DEFAULT_TOL):
    """x is Birkhoff orthogonal to y: ||x|| <= ||x + a*y|| for every scalar a.

    By James' characterisation this holds iff some supporting functional g of
    the unit ball at x vanishes on y.  Those functionals are the convex hull
    of the rows of spec.subgradients(x), so g.y sweeps [min G.y, max G.y] and
    the predicate asks whether that interval meets [-eps ||y||, eps ||y||].
    The test is linear and homogeneous in both x and y.
    """
    x, y = _check_pair(x, y)
    ny = spec(y)
    if ny == 0.0:
        raise ValueError("y must be nonzero")
    if spec(x) == 0.0:
        return True
    gy = spec.subgradients(x, tol.eps_geom) @ y
    slack = tol.eps_geom * ny
    return bool(gy.min() <= slack and gy.max() >= -slack)

