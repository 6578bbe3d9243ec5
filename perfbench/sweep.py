"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads train infer --seeds 1 2 3 4 5 \
        --out sweep.json

Runs are sequential, one process at a time. For every workload and metric
the summary gives the median, the quartiles (``statistics.quantiles`` with
n=4) and the spread, (Q3 - Q1) / median, which is what a metric's bound in
BENCHMARK.json is compared against. ``--seconds`` defaults to
BENCHMARK.json's ``run_seconds``; ``--trace 1`` summarises the per-layer
metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    detail = next((json.loads(line.split(" ", 1)[1]) for line in reversed(lines)
                   if line.startswith("perfbench-detail ")), {})
    return json.loads(lines[-1]), detail


def summarise(values):
    values = sorted(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values),
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["train", "infer", "volumetric"])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads:
        per_metric: dict[str, list] = {}
        details: dict[str, list] = {}
        runs = []
        for seed in args.seeds:
            result, detail = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "speed_probe_ms": detail.get("context", {}).get("speed_probe_ms")})
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            for name, metric in detail.get("detail", {}).items():
                details.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if args.trace == 0), flush=True)
        summary[workload] = {
            "metrics": {k: summarise(v) for k, v in per_metric.items()},
            "detail": {k: summarise(v) for k, v in details.items()},
            "runs": runs}
        for name, s in summary[workload]["metrics"].items():
            if args.trace == 0:
                print(f"  {name}: median {s['median']:.4g} "
                      f"[{s['q1']:.4g}, {s['q3']:.4g}] spread {s['spread']:.3f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": args.seconds, "seeds": args.seeds,
                       "trace": args.trace, "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
