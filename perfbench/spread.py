"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads mixed-batch,cli-cold]
                                [--seconds 22] [--out perfbench/baseline/NAME.json]
                                [--compare perfbench/baseline/EARLIER.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every end-to-end metric its median, quartiles and spread (the
distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) against the metric's bound
in BENCHMARK.json.  A spread above the bound is flagged OVER, and one above
a third of it WIDE; either makes the exit code 1.  With --compare, each
median is also set against the same workload's median in an earlier --out
file, and a change for the worse by more than the bound is flagged WORSE.
With --out, the raw values, the run details and the summary are written as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", type=Path)
    p.add_argument("--compare", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    flagged = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            details, result = run_once(workload, seed, args.seconds)
            runs.append({"seed": seed, "details": details, "result": result})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            s = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            summary[name] = s
            flags = []
            if s["spread"] > bound:
                flags.append("OVER")
            elif s["spread"] > bound / 3:
                flags.append("WIDE")
            line = (f"  {name:16s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                    f"  spread {s['spread']:.3f}  bound {bound}")
            if workload in earlier:
                before = earlier[workload]["summary"][name]["median"]
                s["earlier_median"] = before
                s["worse_by"] = ((s["median"] - before) / before if lower_better[name]
                                 else (before - s["median"]) / before) if before else 0.0
                line += f"  earlier {before:.5g} (worse by {s['worse_by']:+.3f})"
                if s["worse_by"] > bound:
                    flags.append("WORSE")
            flagged += bool(flags)
            print(line + "".join(f"  {f}" for f in flags))
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
