"""Run the benchmark over several seeds and summarize each metric.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs ``run.py`` once per workload and seed, one after another, with the
``run_seconds`` from ``BENCHMARK.json``.  For every metric it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (quartile distance over the median), next to the metric's bound.
``--out`` writes the same summary, with every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            lines = out.stdout.splitlines()
            result = json.loads(lines[-1])
            result["record"] = json.loads(lines[-2])["record"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "unit": runs[0]["metrics"][name]["unit"], "values": values}
            if args.trace == 0:
                print(f"  {name:16s} median {median:.6g}  spread {spread:.3f}  bound {bounds.get(name)}")
        summary[workload] = {"correct": all(r["correct"] for r in runs), "metrics": metrics,
                             "records": [r["record"] for r in runs]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": args.seeds, "trace": args.trace, "workloads": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
