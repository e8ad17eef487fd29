"""Benchmark of minkcenters: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload mixed-batch --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; the library is imported from its `src`
directory.  With ``--trace 0`` the run measures the workload with tracing
off and reports the end-to-end metrics named in BENCHMARK.json.  With
``--trace 1`` it runs the workload untraced for half the time, then again
traced over the same inputs, and reports the per-layer metrics; the spans go
to ``perfbench/out/trace-<workload>-<seed>.json``.

Set-up time is measured in fresh processes that import the library and
generate the workload's first inputs.  These probes are spread over the run,
one before each of SETUP_RUNS equal slices of the timed loop, so that the
VM's second-to-second speed drift does not hit them all at once.

Every output is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it holds run details (environment, sample counts, the tail percentile, the
first failures).  The exit code is 0 when every check passed, 1 when one
failed, and 2 when the benchmark cannot run (for example without `src`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import NullTracer, Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 6    # fresh processes per run whose set-up time is measured
IMPORT_RUNS = 3   # fresh processes per traced run timing `import minkcenters.cli`
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency
TAIL_PERCENTILE = 90  # higher percentiles swing by a third between seeds on smooth-certify
MAX_LISTED = 5    # failures and misses listed in the details line


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mixed-batch", "smooth-certify", "cli-cold", "oracle-grid"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, default=0,
                   help="stop after this many instances (0: run for --seconds)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Record:
    """Outcome of one pass over a workload's instances."""

    def __init__(self):
        self.instances = []
        self.latencies = []
        self.found = 0
        self.failed = 0
        self.problems = []
        self.not_found = []

    def extend(self, other):
        self.instances += other.instances
        self.latencies += other.latencies
        self.found += other.found
        self.failed += other.failed
        self.problems += other.problems
        self.not_found += other.not_found


def run_pass(wl, instances, tr, seconds=None, limit=0):
    """Closed loop: the next instance starts when the previous one is checked.

    Only the workload's ``run`` is timed; checks and (when traced) the extra
    layer calls run after it, inside the instance's root span.
    """
    rec = Record()
    deadline = None if seconds is None else time.perf_counter() + seconds
    for inst in instances:
        with tr.span("instance", index=inst.index):
            t0 = time.perf_counter()
            try:
                result, error = wl.run(inst, tr), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, exc
            rec.latencies.append(time.perf_counter() - t0)
            if error is None and tr.on and hasattr(wl, "trace_layers"):
                wl.trace_layers(inst, tr)
        rec.instances.append(inst)
        if error is None:
            try:
                found, problems = wl.check(inst, result)
            except Exception as exc:
                found, problems = False, [f"check raised {exc!r}"]
        else:
            found, problems = False, [f"raised {error!r}"]
        rec.found += found
        if not found and error is None:
            rec.not_found.append(inst.index)
        if problems:
            rec.failed += 1
            rec.problems += [f"instance {inst.index}: {p}" for p in problems]
        if limit and len(rec.instances) >= limit:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return rec


def tail(latencies):
    """(value, percentile, samples beyond) at the 90th percentile, or at the
    highest percentile with TAIL_BEYOND samples beyond it when that is lower;
    the maximum when there are no more than TAIL_BEYOND samples."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    k = min(int(TAIL_PERCENTILE / 100 * (n - 1)), n - 1 - TAIL_BEYOND)
    return s[k], 100.0 * k / (n - 1), n - 1 - k


def mean_rate(instances, latencies):
    """Instances per second over the whole run."""
    return len(latencies) / sum(latencies)


def stratum_rate(instances, latencies):
    """Instances per second for one cycle made of each stratum's median instance.

    Medians per stratum keep the rate steady against the rare instance that
    takes seconds; the mean rate is reported alongside in the details.
    """
    by_stratum = defaultdict(list)
    for inst, t in zip(instances, latencies):
        by_stratum[inst.stratum].append(t)
    return len(by_stratum) / sum(statistics.median(ts) for ts in by_stratum.values())


def child_seconds(cmd, env=None):
    """Wall time from starting a process to its first line of output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if code != 0 or not line:
        raise RuntimeError(f"{cmd[1:]} exited {code}")
    return elapsed, line.strip()


def setup_probe(args):
    """Set-up time of one fresh process that imports the library and
    generates this workload's first inputs, as the run itself does."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    return child_seconds(cmd)[0]


def import_seconds():
    """Median in-process time of `import minkcenters.cli` in fresh processes."""
    from workloads import src_env

    code = ("import time; t = time.perf_counter(); import minkcenters.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(float(child_seconds([sys.executable, "-c", code], src_env())[1])
                             for _ in range(IMPORT_RUNS))


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "commit": commit,
    }


def spec_metrics(key):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def timed_slices(args, wl):
    """The timed loop in SETUP_RUNS slices of equal loop time, with one set-up
    probe before each; returns the merged record and the probe times.

    With --limit the loop runs in one slice, after all the probes.
    """
    slices = 1 if args.limit else SETUP_RUNS
    probes = [setup_probe(args) for _ in range(SETUP_RUNS - slices)]
    instances = wl.instances()
    rec = Record()
    elapsed = 0.0
    for k in range(slices):
        probes.append(setup_probe(args))
        t0 = time.perf_counter()
        part = run_pass(wl, instances, NullTracer(),
                        max(0.0, args.seconds * (k + 1) / slices - elapsed), args.limit)
        elapsed += time.perf_counter() - t0
        rec.extend(part)
    return rec, probes


def peak_rss_mb(wl):
    """Peak RSS of the process that does the workload's work: the CLI
    processes on cli-cold, this process elsewhere."""
    kb = getattr(wl, "child_maxrss_kb", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def end_to_end(args, wl):
    rec, probes = timed_slices(args, wl)
    lat = rec.latencies
    n = len(lat)
    tail_s, tail_pct, beyond = tail(lat)
    rate = {"mean": mean_rate, "stratum-median": stratum_rate}[wl.rate]
    values = {
        "setup_s": statistics.median(probes),
        "instances_per_s": rate(rec.instances, lat),
        "found_frac": rec.found / n,
        "lat_p50_ms": 1e3 * statistics.median(lat),
        "lat_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": peak_rss_mb(wl),
    }
    details = {"instance": wl.unit, "found": rec.found, "rate": wl.rate,
               "mean_instances_per_s": mean_rate(rec.instances, lat),
               "stratum_median_instances_per_s": stratum_rate(rec.instances, lat),
               "setup_probes_s": probes,
               "fail_frac": rec.failed / n,
               "lat_tail_percentile": tail_pct, "lat_tail_samples_beyond": beyond}
    if args.workload == "oracle-grid":
        details["oracle_cells_per_s"] = sum(i.cells for i in rec.instances) / sum(lat)
    return rec, values, details


def per_layer(args, wl):
    """Untraced for half the time, then traced over exactly the same inputs."""
    plain = run_pass(wl, wl.instances(), NullTracer(), args.seconds / 2, args.limit)
    tr = Tracer()
    traced = run_pass(wl, plain.instances, tr)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    tr.write(trace_path)
    values = layer_metrics(tr.spans)
    values["cli.import_s"] = import_seconds()
    n = len(plain.latencies)
    values["trace.overhead_instances_per_s"] = (
        n / sum(traced.latencies) - n / sum(plain.latencies))
    rec = Record()
    rec.extend(plain)
    rec.extend(traced)
    rec.not_found = plain.not_found
    return rec, values, {"traced_instances": n, "spans": len(tr.spans),
                         "trace_file": str(trace_path.relative_to(ROOT))}


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "minkcenters").is_dir():
        print(f"error: no minkcenters package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import minkcenters  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import minkcenters from {src}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            rec, values, details = per_layer(args, wl)
            units = spec_metrics("per_layer")
        else:
            rec, values, details = end_to_end(args, wl)
            units = spec_metrics("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   attempted=len(rec.instances), failed=rec.failed,
                   problems=rec.problems[:MAX_LISTED], not_found=rec.not_found[:MAX_LISTED],
                   environment=environment())
    print(json.dumps(details))
    result = {"correct": rec.failed == 0, "attempted": len(rec.instances),
              "failed": rec.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result), flush=True)
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
