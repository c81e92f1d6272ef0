"""Benchmark of the ``mst`` toolkit: four closed-loop workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of ``tto_large``, ``transport_small``, ``verify_all`` and
``cli_readme``.  Each run is one client in a closed loop in its own
process, with BLAS pinned to one thread.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer span
metrics with ``--trace 1``.  The line before it holds the run's record
(versions, cores, seed, input properties, worst deviation, fail fraction).

Set-up time is measured ``SETUPS`` times in fresh processes (interpreter
start, ``import mst``, input generation, one warm-up op) and reported as
the median.  See ``README.md`` in this directory for the metrics and the
layer-to-workload map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 5
BUDGET_S = 170.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child(args, t0, extra, deadline):
    """Run ``worker.py`` to completion; return its last stdout line as JSON."""
    env = dict(os.environ, **{name: "1" for name in PINNED})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0)] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("benchmark process exceeded the time budget") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop and reap it
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark process failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "mst", "__init__.py")):
        print("error: src/mst not found; run from the root of an mst checkout", file=sys.stderr)
        return 2
    deadline = start + BUDGET_S
    try:
        setups = []
        for _ in range(SETUPS - 1):
            probe = child(args, time.monotonic(), ["--setup-only"], deadline)
            if not probe["warmup_ok"]:
                raise RuntimeError("warm-up op failed its check")
            setups.append(probe["setup_s"])
        result = child(args, time.monotonic(), [], deadline)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = result.pop("record")
    setups.append(record["setup_s_worker"])
    record["setup_s_samples"] = setups
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
