"""Minkowski norms and orthogonality predicates.

A norm is specified in one of three ways: the Euclidean norm, an l_p norm
with exponent p >= 1 (including infinity), or a polyhedral norm given by the
vertices of a centrally symmetric unit-ball polytope.  It has one of two
shapes: smooth (l_p with 1 < p < inf, the Euclidean norm being l_2) or
polyhedral, the maximum of facet functionals (l_1, l_inf, and polytope norms,
whose facets are enumerated once at construction time).

On top of plain evaluation, this module decides the two classical
orthogonality relations of normed spaces (isosceles and Birkhoff).  Birkhoff
orthogonality is read off the supporting functionals of the unit ball at x:
the gradient of a smooth norm, or the facet rows a polyhedral norm attains
at x.  That makes it exact for both shapes, and l_1 reads its rows as the
cross-polytope does, so it shares the d <= 7 limit of ``Norm.facets``.
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


def _reals(x, what, ndim):
    """x as a float array with ndim axes: the one check on numbers from outside.
    Bools, strings, null, dicts, ragged lists and non-finite entries raise
    ValueError naming what.  Element types are read before converting, as
    np.asarray(x, dtype=float) would accept "0" and True."""
    a = x if isinstance(x, np.ndarray) and x.dtype.kind in "iuf" else np.asarray(x, dtype=object)
    if a.ndim != ndim or a.dtype == object and not all(
            isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            for v in a.flat):
        shape = ("a number", "a list of numbers", "a list of lists of numbers")[ndim]
        raise ValueError(f"{what} must be {shape}")
    try:
        a = np.asarray(a, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{what} must be finite") from None
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


def _in_range(x, what, size=False):
    """Raise ValueError unless |x| < 1e150 and, for a size (a diameter or a
    radius), x > 1e-150, so that squared distances stay normal floats."""
    if not np.abs(x).max() < 1e150:
        raise ValueError(f"{what} must be below 1e150 in magnitude")
    if size and not x > 1e-150:
        raise ValueError(f"{what} must be above 1e-150")


def _require_keys(obj, allowed, where, required=()):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    extra = set(obj) - set(allowed)
    if extra:
        raise ValueError(f"unknown fields in {where}: {sorted(extra)}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{where} is missing the {key!r} field")


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by the geometric predicates and solvers.

    eps_geom is the incidence/equality tolerance, a finite positive number.
    """

    eps_geom: float = 1e-9

    def __post_init__(self):
        eps = float(_reals(self.eps_geom, "eps_geom", 0))
        if not eps > 0:
            raise ValueError("tolerances must be strictly positive")
        object.__setattr__(self, "eps_geom", eps)


DEFAULT_TOL = Tolerances()


class Norm:
    """A norm on R^d: Euclidean, l_p, or polyhedral (unit-ball vertices).

    Behaviour reads the shape: ``p`` (2.0 for the Euclidean norm, None for a
    polytope norm) and a polytope norm's stored facet rows.  ``kind`` only
    names the JSON record.  Instances are immutable and callable: ``norm(v)``
    evaluates the norm of ``v``, vectorized over the leading axes of an
    ``(..., d)`` array.
    """

    __slots__ = ("kind", "p", "dim", "_facets", "unit_ball_vertices")
    _FIELDS = {"euclidean": {"kind"}, "lp": {"kind", "p"}, "polyhedral": {"kind", "vertices"}}

    def __init__(self, kind, p=None, vertices=None):
        if not isinstance(kind, str) or kind not in self._FIELDS:
            raise ValueError(f"unknown norm kind: {kind!r}")
        self.kind = kind
        self.p = 2.0 if kind == "euclidean" else None
        self.dim = None  # fixed only for polyhedral norms
        self._facets = None
        if kind == "lp":
            self.p = float(p if p in ("inf", "infinity", math.inf) else _reals(p, "lp exponent", 0))
            if not self.p >= 1:
                raise ValueError("lp exponent must be >= 1")
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

        V = _reals(vertices, "unit-ball vertex coordinates", 2)
        if V.shape[1] < 2:
            raise ValueError("polyhedral unit ball needs an (m, d) vertex array, d >= 2")
        d = V.shape[1]
        if d > 4:
            raise ValueError("polyhedral norms are supported for d <= 4")
        scale = np.abs(V).max()
        _in_range(V, "unit-ball vertex coordinates")
        # central symmetry: every vertex must have its antipode in the set
        if cKDTree(V).query(-V)[0].max() > 1e-9 * scale:
            raise ValueError("unit-ball vertex set is not centrally symmetric")
        try:
            hull = ConvexHull(V)
        except Exception as exc:
            raise ValueError(f"degenerate unit-ball polytope: {exc}") from None
        # hull facets: a.x + b <= 0; origin strictly interior iff all b < 0
        A = hull.equations[:, :-1]
        b = hull.equations[:, -1]
        if np.any(b >= -1e-12 * scale):
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
        if self._facets is not None:
            # facet rows first: one (facets, n) product, not n small ones
            x = v.reshape(-1, self.dim)
            return np.maximum((self._facets @ x.T).max(axis=0), 0.0).reshape(v.shape[:-1])[()]
        if self.p == 2.0:
            return np.linalg.norm(v, axis=-1)
        if math.isinf(self.p):
            return np.max(np.abs(v), axis=-1)
        return np.sum(np.abs(v) ** self.p, axis=-1) ** (1.0 / self.p)

    def gradient(self, X, norms=None):
        """Gradient sign(x) |x / ||x|| |^(p-1) of a smooth norm at each row of
        an (n, d) array, as rows (x / ||x|| for the Euclidean norm, p = 2).
        A zero row gets a zero gradient, which is a subgradient there.
        norms, when given, holds the norm of each row, self(X), so that a
        caller who has evaluated it does not evaluate it again.
        """
        if not self.smooth:
            raise ValueError(f"{self!r} is not smooth and has no gradient")
        X = np.asarray(X, dtype=float)
        n = (self(X) if norms is None else norms)[:, None]
        U = np.divide(X, n, out=np.zeros_like(X), where=n > 0)
        return np.sign(U) * np.abs(U) ** (self.p - 1.0)

    def facets(self, d):
        """Rows F_f with ||x|| = max_f F_f.x on R^d (polyhedral norms only).

        A polytope norm gives its stored facet functionals, l_inf +-e_k and
        l_1 the 2^d sign vectors (d <= 7).  The l_1 and l_inf rows are built
        on each call, not stored on the norm.
        """
        if self.smooth:
            raise ValueError(f"{self!r} is smooth and has no facets")
        if self._facets is not None:
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
        """True when the unit sphere has a unique supporting line everywhere:
        no stored facets and 1 < p < inf.

        Guarantees existence of circumcenters for every simplex.
        """
        return self._facets is None and 1.0 < self.p < math.inf

    # -- (de)serialization -------------------------------------------------

    def to_json(self):
        if self.kind == "euclidean":
            return {"kind": "euclidean"}
        if self.kind == "lp":
            return {"kind": "lp", "p": "inf" if math.isinf(self.p) else self.p}
        return {"kind": "polyhedral", "vertices": self.unit_ball_vertices.tolist()}

    @classmethod
    def from_json(cls, obj):
        _require_keys(obj, {"kind", "p", "vertices"}, "norm record", required=("kind",))
        p = obj.get("p")
        if p is not None and not isinstance(p, str):  # JSON's Infinity and 1e999 are no exponent
            p = float(_reals(p, "lp exponent", 0))
        norm = cls(obj["kind"], p=p, vertices=obj.get("vertices"))
        _require_keys(obj, cls._FIELDS[norm.kind], "norm record")
        return norm

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
    of rows G: the gradient of a smooth norm, or the facet rows F_f of a
    polyhedral norm that come within eps_geom*||x|| of attaining the norm,
    F_f.x >= ||x|| - eps_geom*||x||.  So g.y sweeps [min G.y, max G.y] and the
    predicate asks whether that interval meets [-eps ||y||, eps ||y||].  The
    test is linear and homogeneous in both x and y.  l_1 reads its 2^d sign
    rows from ``Norm.facets``, so it is limited to d <= 7.
    """
    x, y = _check_pair(x, y)
    ny = spec(y)
    if ny == 0.0:
        raise ValueError("y must be nonzero")
    nx = spec(x)
    if nx == 0.0:
        return True
    if spec.smooth:
        G = spec.gradient(x[None])
    else:
        G = spec.facets(len(x))
        G = G[G @ x >= nx - tol.eps_geom * nx]
    gy = G @ y
    slack = tol.eps_geom * ny
    return bool(gy.min() <= slack and gy.max() >= -slack)
