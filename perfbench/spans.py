"""In-memory spans around the benchmark's calls into minkcenters.

The benchmark measures the library from outside: every span wraps one call
the benchmark itself makes into a public function, and norm evaluations are
counted by a proxy norm that is passed to the library in place of the real
one.  Spans stay in memory and are written out when the run ends.

``Tracer`` records; ``NullTracer`` has the same interface and records
nothing, so the untraced run calls the library with the real norm.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("id", "root", "parent", "name", "attrs", "t0", "t1",
                 "child_s", "norm_calls", "norm_s")

    def __init__(self, id_, root, parent, name, attrs):
        self.id = id_
        self.root = root
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self.t0 = self.t1 = 0.0
        self.child_s = 0.0
        self.norm_calls = 0
        self.norm_s = 0.0

    @property
    def duration(self):
        return self.t1 - self.t0

    @property
    def self_s(self):
        """Duration minus what child spans and proxied norm calls cover."""
        return self.duration - self.child_s - self.norm_s

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class _SpanContext:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer = tracer
        self.span = span

    def __enter__(self):
        self.tracer._stack.append(self.span)
        self.span.t0 = perf_counter()
        return self.span.attrs

    def __exit__(self, *exc):
        span = self.span
        span.t1 = perf_counter()
        stack = self.tracer._stack
        stack.pop()
        if stack:
            stack[-1].child_s += span.duration
        self.tracer.spans.append(span)
        return False


class Tracer:
    """Records nested spans; spans under one root share its id."""

    on = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0

    def span(self, name, **attrs):
        """Context manager; yields the span's attribute dict for results."""
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, parent.root if parent else self._next_id,
                    parent.id if parent else None, name, attrs)
        self._next_id += 1
        return _SpanContext(self, span)

    def wrap(self, norm):
        return CountingNorm(norm, self)

    def write(self, path):
        rows = [{"id": s.id, "root": s.root, "parent": s.parent, "name": s.name,
                 "t0": s.t0, "t1": s.t1, "self_s": s.self_s,
                 "norm_calls": s.norm_calls, "norm_s": s.norm_s, "attrs": s.attrs}
                for s in sorted(self.spans, key=lambda s: s.id)]
        with open(path, "w") as fh:
            json.dump(rows, fh)


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


_NULL = _NullContext()


class NullTracer:
    on = False

    def span(self, name, **attrs):
        return _NULL

    def wrap(self, norm):
        return norm


class CountingNorm:
    """Stands in for a minkcenters Norm; times and counts every evaluation
    against the innermost open span."""

    def __init__(self, norm, tracer):
        self._norm = norm
        self._stack = tracer._stack

    def __call__(self, v):
        t0 = perf_counter()
        out = self._norm(v)
        dt = perf_counter() - t0
        if self._stack:
            span = self._stack[-1]
            span.norm_calls += 1
            span.norm_s += dt
        return out

    def __getattr__(self, name):
        return getattr(self._norm, name)


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


SOLVE_GRID = {"euclidean": range(2, 9), "lp1.5": range(2, 9), "lp3": range(2, 9),
              "linf": range(2, 6), "polyhedral": range(2, 4)}
CENTER_DIMS = range(2, 9)
GRID_DIMS = (2, 3)
LAYERS = ("norms", "circumcenter", "centers", "polygon", "cli", "instances", "figures")


def layer_metrics(spans):
    """Per-layer metrics from one traced pass.

    Every name is always present; a layer the workload does not call reads 0.
    Times are means per call; ``self_ms.<layer>`` is the layer's self time
    per instance (root span).
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    roots = by_name["instance"]
    out = {}

    solves = by_name["circumcenter.solve_circumcenter"]
    for kind, dims in SOLVE_GRID.items():
        mine = [s for s in solves if s.attrs["kind"] == kind]
        for d in dims:
            out[f"circumcenter.solve_ms.{kind}.d{d}"] = 1e3 * _mean(
                [s.duration for s in mine if s.attrs["d"] == d])
        calls = sum(s.norm_calls for s in mine)
        out[f"norms.calls_per_solve.{kind}"] = calls / len(mine) if mine else 0.0
        out[f"norms.eval_us.{kind}"] = 1e6 * sum(s.norm_s for s in mine) / calls if calls else 0.0
        out[f"circumcenter.starts_used.{kind}"] = _mean([s.attrs["starts_used"] for s in mine])
        out[f"circumcenter.found_frac.{kind}"] = _mean([float(s.attrs["found"]) for s in mine])

    for fn in ("full_report", "monge_lines", "m_hyperplanes"):
        calls = by_name[f"centers.{fn}"]
        for d in CENTER_DIMS:
            out[f"centers.{fn}_ms.d{d}"] = 1e3 * _mean(
                [s.duration for s in calls if s.attrs["d"] == d])

    out["polygon.sample_ms"] = 1e3 * _mean(
        [s.duration for s in by_name["polygon.sample_cyclic_polygon"]])
    out["polygon.verify_ms"] = 1e3 * _mean(
        [s.duration for s in by_name["polygon.verify_polygon_theorems"]])

    for sub in ("centers", "figure"):
        out[f"cli.main_ms.{sub}"] = 1e3 * _mean(
            [s.duration for s in by_name["cli.main"] if s.attrs["sub"] == sub])
        out[f"cli.process_ms.{sub}"] = 1e3 * _mean(
            [s.duration for s in by_name["cli.subprocess"] if s.attrs["sub"] == sub])
    out["instances.load_ms"] = 1e3 * _mean([s.duration for s in by_name["instances.load_instance"]])
    out["instances.dump_ms"] = 1e3 * _mean([s.duration for s in by_name["instances.dump_report"]])
    out["figures.render_ms"] = 1e3 * _mean([s.duration for s in by_name["figures.render_figure"]])

    grids = by_name["circumcenter.grid_oracle_circumcenters"]
    for d in GRID_DIMS:
        mine = [s for s in grids if s.attrs["d"] == d]
        out[f"circumcenter.grid_oracle_ms.d{d}"] = 1e3 * _mean([s.duration for s in mine])
        out[f"circumcenter.grid_cells.d{d}"] = _mean([s.attrs["cells"] for s in mine])
        out[f"circumcenter.grid_bytes_computed.d{d}"] = _mean([s.attrs["bytes"] for s in mine])
    grid_s = sum(s.duration for s in grids)
    out["circumcenter.grid_cells_per_s"] = (
        sum(s.attrs["cells"] for s in grids) / grid_s if grid_s else 0.0)

    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_s["norms"] += s.norm_s
        if s.layer in self_s:
            self_s[s.layer] += s.self_s
    for layer, total in self_s.items():
        out[f"self_ms.{layer}"] = 1e3 * total / len(roots) if roots else 0.0
    return out
