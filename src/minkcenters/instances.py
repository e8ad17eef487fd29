"""Instance and report files: strict JSON ingestion, deterministic emission.

An instance file is one JSON object:

    {"norm": {"kind": "lp", "p": 2},
     "problem": {"simplex": {"vertices": [[...], ...]}},
     "tolerances": {"eps_geom": 1e-9},          # optional overrides
     "seed": 0}                                  # optional

The polygon variant of "problem" is {"polygon": {"vertices": [...],
"center": [...], "radius": r, "norm": {...}}} where the inner norm is
optional and overrides the top-level one.  Unknown fields are rejected.
An eps_geom passed to load_instance or parse_instance (the CLI's --tol) wins
over the file's, and the file's over the default.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .norms import DEFAULT_TOL, Norm, Tolerances
from .polygon import CyclicPolygon
from .simplex import Simplex

__all__ = ["InstanceError", "Instance", "load_instance", "parse_instance",
           "dump_report", "write_atomic"]

class InstanceError(ValueError):
    """Invalid instance file (maps to CLI exit code 1)."""


def _require_keys(obj, allowed, where, required=()):
    if not isinstance(obj, dict):
        raise InstanceError(f"{where} must be a JSON object")
    extra = set(obj) - set(allowed)
    if extra:
        raise InstanceError(f"unknown fields in {where}: {sorted(extra)}")
    for key in required:
        if key not in obj:
            raise InstanceError(f"{where} is missing the {key!r} field")


def _build(where, make, *args):
    """make(*args), with its ValueError or TypeError raised as InstanceError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise InstanceError(str(exc)) from None
    except TypeError as exc:  # e.g. null or a list where a number belongs
        raise InstanceError(f"bad value in {where}: {exc}") from None


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
    _require_keys(obj, {"norm", "problem", "tolerances", "seed"}, "instance",
                  required=("norm", "problem"))
    norm = _build("norm record", Norm.from_json, obj["norm"])

    tol_obj = obj.get("tolerances") or {}
    _require_keys(tol_obj, {"eps_geom"}, "tolerances")
    eps_geom = _build("tolerances", float, tol_obj.get("eps_geom", DEFAULT_TOL.eps_geom))
    tol = _build("tolerances", Tolerances,
                 eps_geom if eps_geom_override is None else eps_geom_override)

    seed = obj.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise InstanceError("seed must be an integer")

    problem = obj["problem"]
    _require_keys(problem, {"simplex", "polygon"}, "problem")
    if len(problem) != 1:
        raise InstanceError("problem must contain exactly one of 'simplex' or 'polygon'")

    if "simplex" in problem:
        rec = problem["simplex"]
        _require_keys(rec, {"vertices"}, "simplex record", required=("vertices",))
        T = _build("simplex record", Simplex, rec["vertices"], tol)
        return Instance(norm, "simplex", simplex=T, tolerances=tol, seed=seed,
                        raw=_normalize(obj))

    rec = problem["polygon"]
    _require_keys(rec, {"vertices", "center", "radius", "norm"}, "polygon record",
                  required=("vertices", "center", "radius"))
    pnorm = _build("polygon norm record", Norm.from_json, rec["norm"]) if "norm" in rec else norm
    P = _build("polygon record", CyclicPolygon, rec["vertices"], rec["center"], rec["radius"],
               pnorm, tol)
    return Instance(pnorm, "polygon", polygon=P, tolerances=tol, seed=seed,
                    raw=_normalize(obj))


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


def _plain(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def dump_report(report_obj):
    """Deterministic serialization: sorted keys, fixed layout, trailing newline."""
    return json.dumps(_plain(report_obj), sort_keys=True, indent=2) + "\n"


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
