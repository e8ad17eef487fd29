"""The benchmark's workloads: inputs made from a seed, the timed calls into
minkcenters, and the checks on every output.

Each workload is a closed loop with one caller that cycles over a fixed set
of strata (norm, dimension, subcommand), ``cycle`` instances long.  The
constructor is the workload's set-up: it generates the first cycle of
inputs (and, for cli-cold, writes the instance files); ``instances()``
yields inputs lazily, in an order fixed by the seed; ``run`` is the timed
operation; ``check`` returns ``(found, problems)`` for one result;
``trace_layers`` (traced runs only) times extra calls that the timed
operation cannot show from outside.  ``rate`` names how instances_per_s is
formed: "mean" is instances over total latency; "stratum-median" is one
cycle made of each stratum's median instance, for workloads whose rare
multi-second instance would otherwise swing the mean.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from minkcenters import (Norm, Simplex, dump_report, full_report,
                         grid_oracle_circumcenters, is_circumcenter, load_instance,
                         m_hyperplanes, monge_lines, monge_point, render_figure,
                         sample_cyclic_polygon, solve_circumcenter,
                         verify_polygon_theorems)
from minkcenters import cli
from minkcenters.verify import parse_norm_name, random_simplex

REL_TOL = 1e-8      # Monge, M-hyperplane and Feuerbach residuals, x diameter or R
EULER_TOL = 1e-10   # Euler-line ratio residuals


def src_env():
    """The environment with the imported library's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def kind_name(norm):
    if norm.kind != "lp":
        return norm.kind
    return "linf" if math.isinf(norm.p) else f"lp{norm.p:g}"


@dataclass
class SimplexInstance:
    index: int
    norm: Norm
    simplex: Simplex
    kind: str
    polygon: tuple | None = None  # (norm, center, radius, n_vertices, seed)

    @property
    def stratum(self):
        return f"{self.kind}.d{self.simplex.dim}"


@dataclass
class Certified:
    result: object
    report: object = None
    lines: list = None
    planes: list = None
    polygon_claims: dict = None


def _certify(inst, tr):
    """solve_circumcenter, then full_report, monge_lines and m_hyperplanes."""
    norm = tr.wrap(inst.norm)
    T = inst.simplex
    d = T.dim
    with tr.span("circumcenter.solve_circumcenter", kind=inst.kind, d=d) as a:
        res = solve_circumcenter(norm, T)
        a["found"] = res.found
        a["starts_used"] = res.starts_used
    out = Certified(res)
    if res.found:
        with tr.span("centers.full_report", d=d):
            out.report = full_report(norm, T, res.center)
        with tr.span("centers.monge_lines", d=d):
            out.lines = monge_lines(T, res.center)
        with tr.span("centers.m_hyperplanes", d=d):
            out.planes = m_hyperplanes(T, res.center)
    return out


def _line_distance(line, p):
    w = p - line.base
    u = line.direction / np.linalg.norm(line.direction)
    return float(np.linalg.norm(w - (w @ u) * u))


def _check_certified(inst, out):
    """Output checks on one found center and its derived constructions."""
    norm, T = inst.norm, inst.simplex
    M, rep = out.result.center, out.report
    diam = T.diameter
    problems = []
    if is_circumcenter(norm, T, M) is None:
        problems.append("found center fails is_circumcenter")
    if not rep.collapsed:
        worst = max(v for v in rep.ratio_residuals.values() if not isinstance(v, str))
        if worst > EULER_TOL:
            problems.append(f"Euler ratio residual {worst:.3g}")
    N = monge_point(T, M)
    worst = max((_line_distance(line, N) for line in out.lines), default=0.0)
    if worst > REL_TOL * diam:
        problems.append(f"Monge lines miss N_M by {worst / diam:.3g} x diameter")
    if len(out.planes) < T.dim:
        problems.append(f"only {len(out.planes)} M-hyperplanes")
    worst = max((abs((N - h.base) @ h.normal()) for h in out.planes), default=0.0)
    if worst > REL_TOL * diam:
        problems.append(f"M-hyperplanes miss N_M by {worst / diam:.3g} x diameter")
    worst = max(abs(norm(np.asarray(p) - rep.F_M) - rep.feuerbach_radius)
                for p in rep.facet_centroids + rep.division_points)
    if worst > REL_TOL * rep.R:
        problems.append(f"Feuerbach incidence defect {worst / rep.R:.3g} x R")
    return problems


class MixedBatch:
    """The acceptance batch's mix: d cycles over 2..5, the norm over five
    families, polyhedral capped at d=3; generated exactly as the acceptance
    test's batch fixture does."""

    DIMS = (2, 3, 4, 5)
    NORMS = ("euclidean", "l1.5", "l3", "linf", "polyhedral")
    unit = "simplex"
    rate = "mean"  # the slow not-found linf and polytope solves must count
    cycle = len(DIMS) * len(NORMS)

    def __init__(self, seed, workdir):
        self._gen = self._generate(seed)
        self._ready = list(itertools.islice(self._gen, self.cycle))

    def _generate(self, seed):
        rng = np.random.default_rng(seed)
        for i in itertools.count():
            d = self.DIMS[i % len(self.DIMS)]
            name = self.NORMS[(i // len(self.DIMS)) % len(self.NORMS)]
            if name == "polyhedral" and d > 3:
                d = 3
            norm = parse_norm_name(name, d, rng)
            yield SimplexInstance(i, norm, random_simplex(d, rng), kind_name(norm))

    def instances(self):
        return itertools.chain(self._ready, self._gen)

    def run(self, inst, tr):
        return _certify(inst, tr)

    def check(self, inst, out):
        if not out.result.found:
            return False, []  # counts against found_frac, not as a failure
        return True, _check_certified(inst, out)


class SmoothCertify:
    """Smooth norms only (Euclidean, l1.5, l3) at d = 2..8, plus one cyclic
    polygon per simplex whose norm cycles over euclidean, l1, linf, l3 and
    whose degree cycles over 3..8."""

    DIMS = tuple(range(2, 9))
    NORMS = ("euclidean", "l1.5", "l3")
    POLY_DEGREES = tuple(range(3, 9))
    POLY_NORMS = ("euclidean", "l1", "linf", "l3")
    unit = "simplex with one cyclic polygon"
    rate = "stratum-median"  # about 1 in 1000 l1.5 solves at d >= 6 takes seconds
    cycle = len(DIMS) * len(NORMS)

    def __init__(self, seed, workdir):
        self._gen = self._generate(seed)
        self._ready = list(itertools.islice(self._gen, self.cycle))

    def _generate(self, seed):
        rng = np.random.default_rng(seed)
        for i in itertools.count():
            d = self.DIMS[i % len(self.DIMS)]
            norm = parse_norm_name(self.NORMS[(i // len(self.DIMS)) % len(self.NORMS)], d, rng)
            T = random_simplex(d, rng)
            deg = self.POLY_DEGREES[i % len(self.POLY_DEGREES)]
            pname = self.POLY_NORMS[(i // len(self.POLY_DEGREES)) % len(self.POLY_NORMS)]
            polygon = (parse_norm_name(pname, 2, rng), rng.normal(size=2),
                       float(rng.uniform(0.5, 2.0)), deg + 1, int(rng.integers(2 ** 32)))
            yield SimplexInstance(i, norm, T, kind_name(norm), polygon)

    def instances(self):
        return itertools.chain(self._ready, self._gen)

    def run(self, inst, tr):
        out = _certify(inst, tr)
        if out.result.found:
            pnorm, M, R, n, seed = inst.polygon
            with tr.span("polygon.sample_cyclic_polygon"):
                P = sample_cyclic_polygon(tr.wrap(pnorm), M, R, n, rng=seed)
            with tr.span("polygon.verify_polygon_theorems"):
                out.polygon_claims = verify_polygon_theorems(P)
        return out

    def check(self, inst, out):
        if not out.result.found:
            # A smooth norm always has a circumcenter, so this is a solver miss.
            # It is reported through found_frac and the details line's
            # not_found list rather than failing the run.
            return False, []
        problems = _check_certified(inst, out)
        problems += [f"polygon claim {k} fails (residual {r:.3g})"
                     for k, (ok, r) in out.polygon_claims.items() if not ok]
        return True, problems


@dataclass
class CliInstance:
    index: int
    sub: str
    path: Path
    label: str

    @property
    def stratum(self):
        return f"{self.sub}.{self.label}"


class CliCold:
    """Sequential `python -m minkcenters.cli` processes, `src` on PYTHONPATH.

    Invocations cycle over five kinds of seeded instance files; each kind has
    a pool of POOL files, so a run sees several different inputs per kind.
    Every output is compared byte for byte with the same command run
    in-process through `minkcenters.cli.main`.
    """

    KINDS = (("centers", "euclidean", 3), ("centers", "l3", 4), ("centers", "linf", 2),
             ("centers", "polygon", 2), ("figure", "euclidean", 2))
    POOL = 8
    TIMEOUT_S = 120
    unit = "CLI invocation"
    rate = "mean"

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self._refs = {}
        rng = np.random.default_rng(seed)
        self.files = []
        for k, (sub, name, d) in enumerate(self.KINDS):
            pool = []
            for j in range(self.POOL):
                path = self.workdir / f"{sub}-{name}-{j}.json"
                obj = (self._polygon_instance(rng, j) if name == "polygon"
                       else self._simplex_instance(rng, name, d))
                obj["seed"] = int(seed)
                path.write_text(json.dumps(obj))
                pool.append(path)
            self.files.append(pool)
        self.env = src_env()
        self.child_maxrss_kb = 0  # peak RSS over the CLI processes run so far

    @staticmethod
    def _simplex_instance(rng, name, d):
        norm = parse_norm_name(name, d, rng)
        if name == "linf":
            # three points of one l-infinity circle, so a circumcenter exists
            while True:
                M, R = rng.normal(size=2), rng.uniform(0.5, 2.0)
                U = rng.normal(size=(3, 2))
                try:
                    T = Simplex(M + R * U / norm(U)[:, None])
                    break
                except ValueError:
                    continue
        else:
            T = random_simplex(d, rng)
        return {"norm": norm.to_json(), "problem": {"simplex": {"vertices": T.vertices.tolist()}}}

    @staticmethod
    def _polygon_instance(rng, j):
        names = ("euclidean", "l1", "linf", "l3")
        norm = parse_norm_name(names[j % len(names)], 2, rng)
        M, R = rng.normal(size=2), float(rng.uniform(0.5, 2.0))
        P = sample_cyclic_polygon(norm, M, R, 4 + j % 5, rng)
        return {"norm": norm.to_json(),
                "problem": {"polygon": {"vertices": P.vertices.tolist(),
                                        "center": M.tolist(), "radius": R}}}

    def instances(self):
        for i in itertools.count():
            k = i % len(self.KINDS)
            sub, name, _ = self.KINDS[k]
            path = self.files[k][(i // len(self.KINDS)) % self.POOL]
            yield CliInstance(i, sub, path, name)

    def _argv(self, inst, out):
        argv = [inst.sub, str(inst.path), "--out", str(out)]
        return argv + ["--show", "feuerbach"] if inst.sub == "figure" else argv

    def _out_path(self, inst, tag):
        return self.workdir / f"{tag}.{'svg' if inst.sub == 'figure' else 'json'}"

    def run(self, inst, tr):
        out = self._out_path(inst, "out")
        out.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "minkcenters.cli"] + self._argv(inst, out)
        with tr.span("cli.subprocess", sub=inst.sub):
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE)
            timer = threading.Timer(self.TIMEOUT_S, proc.kill)
            timer.start()
            try:
                stderr = proc.stderr.read()
                # reap the child here to get its resource usage
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_maxrss_kb = max(self.child_maxrss_kb, usage.ru_maxrss)
        data = out.read_bytes() if out.exists() else None
        return proc.returncode, data, stderr.decode(errors="replace").strip()

    def _reference(self, inst):
        """Exit code and output bytes of the same command run in-process."""
        if inst.path not in self._refs:
            out = self._out_path(inst, "ref")
            out.unlink(missing_ok=True)
            code = cli.main(self._argv(inst, out))
            data = out.read_bytes() if out.exists() else None
            self._refs[inst.path] = (code, data, self._check_reference(inst, code, data))
        return self._refs[inst.path]

    @staticmethod
    def _check_reference(inst, code, data):
        if code != 0:
            return [] if code == cli.EXIT_NO_CENTER and inst.label == "linf" else [
                f"in-process {inst.sub} on {inst.path.name} exited {code}"]
        if inst.sub == "figure":
            svg = ET.fromstring(data)
            markers = [e for e in svg.iter() if e.get("class") == "marker"]
            return [] if len(markers) == 5 else [f"figure has {len(markers)} center markers"]
        rep = json.loads(data)
        obj = load_instance(inst.path)
        if rep["kind"] == "polygon":
            return [f"polygon claim {k} fails" for k, v in rep["residuals"].items() if not v["ok"]]
        if is_circumcenter(obj.norm, obj.simplex, np.asarray(rep["report"]["M"])) is None:
            return ["reported M fails is_circumcenter"]
        return []

    def check(self, inst, result):
        code, data, stderr = result
        ref_code, ref_data, problems = self._reference(inst)
        problems = list(problems)
        if code != ref_code:
            problems.append(f"{inst.sub} {inst.path.name}: exit {code}, in-process {ref_code}: {stderr}")
        elif data != ref_data:
            problems.append(f"{inst.sub} {inst.path.name}: output differs from in-process run")
        # exit 2 (no circumcenter at tolerance) counts against found_frac
        return code == 0, problems

    def trace_layers(self, inst, tr):
        """In-process timings of the layers one invocation goes through."""
        with tr.span("instances.load_instance"):
            obj = load_instance(inst.path)
        out = self._out_path(inst, "traced")
        with tr.span("cli.main", sub=inst.sub):
            cli.main(self._argv(inst, out))
        if inst.sub == "figure":
            with tr.span("figures.render_figure"):
                render_figure(obj, show="feuerbach")
        elif out.exists():
            report = json.loads(out.read_text())
            with tr.span("instances.dump_report"):
                dump_report(report)


@dataclass
class GridInstance:
    index: int
    norm: Norm
    simplex: Simplex
    step: float
    cells: int
    bytes: int

    @property
    def stratum(self):
        return f"{kind_name(self.norm)}.d{self.simplex.dim}"


class OracleGrid:
    """grid_oracle_circumcenters on d=2 and d=3 simplices under euclidean,
    linf and polyhedral norms, with the grid step a fixed fraction of the
    diameter."""

    NORMS = ("euclidean", "linf", "polyhedral")
    STEPS_PER_DIAMETER = {2: 120, 3: 17}
    unit = "oracle call"
    rate = "mean"
    cycle = len(STEPS_PER_DIAMETER) * len(NORMS)

    def __init__(self, seed, workdir):
        self._gen = self._generate(seed)
        self._ready = list(itertools.islice(self._gen, self.cycle))

    def _generate(self, seed):
        rng = np.random.default_rng(seed)
        for i in itertools.count():
            d = (2, 3)[i % 2]
            norm = parse_norm_name(self.NORMS[(i // 2) % len(self.NORMS)], d, rng)
            T = random_simplex(d, rng)
            step = T.diameter / self.STEPS_PER_DIAMETER[d]
            cells, nbytes = self.grid_size(T, step)
            yield GridInstance(i, norm, T, step, cells, nbytes)

    @staticmethod
    def grid_size(T, step):
        """Cells and bytes of the oracle's grid arrays, computed from their
        sizes (meshgrid, stacked mesh, defect, radius, mask, labels, and one
        chunk of differences and distances); the norm's own temporaries are
        not counted.  The default box (the vertices' bounding box grown by
        the diameter) and the chunk length (cell_cap // (10 (d + 1))) follow
        grid_oracle_circumcenters and must be kept in step with it."""
        V, d, diam = T.vertices, T.dim, T.diameter
        lo, hi = V.min(axis=0) - diam, V.max(axis=0) + diam
        cells = math.prod(len(np.arange(lo[k], hi[k] + step, step)) for k in range(d))
        cell_cap = inspect.signature(grid_oracle_circumcenters).parameters["cell_cap"].default
        chunk = min(cells, max(1, cell_cap // (10 * (d + 1))))
        per_cell = 8 * d + 8 * d + 8 + 8 + 1 + 4
        return cells, cells * per_cell + chunk * (d + 1) * (8 * d + 8)

    def instances(self):
        return itertools.chain(self._ready, self._gen)

    def run(self, inst, tr):
        with tr.span("circumcenter.grid_oracle_circumcenters", d=inst.simplex.dim,
                     cells=inst.cells, bytes=inst.bytes):
            return grid_oracle_circumcenters(tr.wrap(inst.norm), inst.simplex, inst.step)

    def check(self, inst, clusters):
        V, problems = inst.simplex.vertices, []
        for p, r in clusters:
            defect = np.abs(inst.norm(V - p) - r).max()
            # the oracle keeps cells with defect <= 2 steps; allow for rounding
            if defect > 2.0 * inst.step * (1 + 1e-12):
                problems.append(f"cluster defect {defect / inst.step:.3g} steps")
        if inst.norm.kind == "euclidean":
            problems += self._check_euclidean(inst, clusters)
        return bool(clusters), problems

    @staticmethod
    def _check_euclidean(inst, clusters):
        """A cluster lies near the exact center whenever the oracle's box holds it.

        The grid point nearest M has defect <= sqrt(d) * step, so its
        cluster's best point r does too.  To first order the defect grows at
        least like s * |r - M| / sqrt(d+1), with s the smallest singular value
        of the centred unit vectors from the vertices to M; the bound below
        doubles that distance and adds one step.
        """
        T, step = inst.simplex, inst.step
        V, d, diam = T.vertices, T.dim, T.diameter
        M = solve_circumcenter(inst.norm, T).center
        if np.any(M < V.min(axis=0) - diam + step) or np.any(M > V.max(axis=0) + diam - step):
            return []
        U = (M - V) / np.linalg.norm(M - V, axis=1)[:, None]
        s = np.linalg.svd(U - U.mean(axis=0), compute_uv=False)[-1]
        bound = (2.0 * math.sqrt(d * (d + 1)) / s + 1.0) * step
        near = min((np.linalg.norm(p - M) for p, _ in clusters), default=math.inf)
        if near > bound:
            return [f"no cluster within {bound / step:.3g} steps of the exact center "
                    f"(nearest {near / step:.3g})"]
        return []


WORKLOADS = {"mixed-batch": MixedBatch, "smooth-certify": SmoothCertify,
             "cli-cold": CliCold, "oracle-grid": OracleGrid}
