"""Smoke check: every workload at a tiny size, untraced and traced.

    python3 perfbench/smoke.py [--seconds 2] [--seed 1]

Fails (exit 1) when a run exits non-zero, when an output check fails, or
when the result line does not carry exactly the metrics BENCHMARK.json names
for that mode, each a finite number with its declared unit.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def check_run(spec, workload, trace, seconds, seed):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stdout.strip()[-2000:]} {proc.stderr.strip()[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    missing, extra = declared.keys() - metrics.keys(), metrics.keys() - declared.keys()
    if missing or extra:
        problems.append(f"missing metrics {sorted(missing)}, undeclared {sorted(extra)}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r}")
        elif name in declared and m.get("unit") != declared[name]:
            problems.append(f"{name} unit {m.get('unit')!r}, declared {declared[name]!r}")
        elif not trace and value == 0:
            problems.append(f"end-to-end metric {name} reads 0")
    return problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(spec, w["name"], trace, args.seconds, args.seed)
            failed += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {w['name']} --trace {trace}"
                  + "".join(f"\n     {p}" for p in problems), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
