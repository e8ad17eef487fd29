"""Instance and report files: strict JSON ingestion, deterministic emission.

An instance file is one JSON object:

    {"norm": {"kind": "lp", "p": 2},
     "problem": {"simplex": {"vertices": [[...], ...]}},
     "tolerances": {"eps_geom": 1e-9},          # optional overrides
     "seed": 0}                                  # optional

The polygon variant of "problem" is {"polygon": {"vertices": [...],
"center": [...], "radius": r, "norm": {...}}} where the inner norm is
optional and overrides the top-level one.  Unknown fields are rejected, and
every number and point passes one checker, ``norms._reals``: a bool, string,
null, object, ragged list or non-finite value is rejected where a number
belongs (the l_p exponent may also be "inf" or "infinity"), as are
coordinates of magnitude 1e150 or more and a simplex diameter or polygon
radius of 1e-150 or less.  An eps_geom passed to load_instance or
parse_instance (the CLI's --tol) wins over the file's, and the file's over
the default.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .norms import DEFAULT_TOL, Norm, Tolerances, _require_keys
from .polygon import CyclicPolygon
from .simplex import Simplex

__all__ = ["InstanceError", "Instance", "load_instance", "parse_instance",
           "dump_report", "write_atomic"]

class InstanceError(ValueError):
    """Invalid instance file (maps to CLI exit code 1)."""


class Instance:
    def __init__(self, norm, kind, simplex=None, polygon=None, tolerances=None,
                 seed=None, raw=None):
        self.norm = norm
        self.kind = kind  # "simplex" | "polygon"
        self.simplex = simplex
        self.polygon = polygon
        self.tolerances = tolerances
        self.seed = seed
        self.raw = raw  # normalized echo for the report file


def parse_instance(obj, eps_geom_override=None):
    try:
        _require_keys(obj, {"norm", "problem", "tolerances", "seed"}, "instance",
                      required=("norm", "problem"))
        norm = Norm.from_json(obj["norm"])

        tol_obj = obj.get("tolerances", {})
        _require_keys(tol_obj, {"eps_geom"}, "tolerances")
        tol = Tolerances(tol_obj.get("eps_geom", DEFAULT_TOL.eps_geom))
        if eps_geom_override is not None:
            tol = Tolerances(eps_geom_override)

        seed = obj.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ValueError("seed must be an integer")

        problem = obj["problem"]
        _require_keys(problem, {"simplex", "polygon"}, "problem")
        if len(problem) != 1:
            raise ValueError("problem must contain exactly one of 'simplex' or 'polygon'")

        if "simplex" in problem:
            rec = problem["simplex"]
            _require_keys(rec, {"vertices"}, "simplex record", required=("vertices",))
            return Instance(norm, "simplex", simplex=Simplex(rec["vertices"], tol),
                            tolerances=tol, seed=seed, raw=_normalize(obj))

        rec = problem["polygon"]
        _require_keys(rec, {"vertices", "center", "radius", "norm"}, "polygon record",
                      required=("vertices", "center", "radius"))
        pnorm = Norm.from_json(rec["norm"]) if "norm" in rec else norm
        P = CyclicPolygon(rec["vertices"], rec["center"], rec["radius"], pnorm, tol)
        return Instance(pnorm, "polygon", polygon=P, tolerances=tol, seed=seed,
                        raw=_normalize(obj))
    except ValueError as exc:  # from the checks here and in the constructors
        raise InstanceError(str(exc)) from None


def load_instance(path, eps_geom_override=None):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read instance: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON: {exc}") from None
    return parse_instance(obj, eps_geom_override)


def _normalize(obj):
    """Round-trip through JSON so the echo is plain data."""
    return json.loads(json.dumps(obj))


def _numpy_json(x):
    """json.dumps' hook: an array as nested lists, a numpy scalar as its
    Python number."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def dump_report(report_obj):
    """Deterministic serialization: sorted keys, fixed layout, trailing newline.
    A non-finite number raises ValueError, since strict JSON has none."""
    return json.dumps(report_obj, default=_numpy_json, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".minkcenters-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
