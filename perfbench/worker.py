"""One benchmark process: set up a workload, warm up, measure, report.

Started by ``run.py`` with BLAS pinned to one thread.  Set-up time is
counted from ``--t0``, a ``time.monotonic`` reading the parent took just
before starting this process (the clock is system-wide), to the end of the
warm-up op.  With ``--setup-only`` the process stops there.  Otherwise it
prints one JSON line with the measurement of its workload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import mst  # noqa: E402
import mst.cli  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# a deviation at or below this reads as 17 digits (exact results included);
# a failed op, with no correct digit, reads as 0
ERR_FLOOR = 1e-17


def digits(errs):
    return [-math.log10(min(max(e, ERR_FLOOR), 1.0)) for e in errs]


def run_op(op, context=contextlib.nullcontext()):
    """Time one op inside ``context``; check it outside the timed region
    and outside ``context``.  Returns ``(seconds, err)``."""
    with context:
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception:
            traceback.print_exc()
            return time.perf_counter() - start, math.inf
        elapsed = time.perf_counter() - start
    try:
        err = float(op.check(result))
    except Exception:
        traceback.print_exc()
        err = math.inf
    return elapsed, err


class Sample:
    """Latencies and deviations of one measured op sequence."""

    def __init__(self, workload):
        self.workload = workload
        self.times, self.errs, self.kinds = [], [], []

    def add(self, op, elapsed, err):
        self.times.append(elapsed)
        self.errs.append(err)
        self.kinds.append(op.kind)

    @property
    def failed(self) -> int:
        return sum(1 for e in self.errs if not e <= workloads.FAIL_TOL)

    def prefix_errs(self):
        return self.errs[: self.workload.prefix]


def measure(workload, seconds, tracer=None):
    """Run ops ``0, 1, ...`` in a closed loop until ``seconds`` of op time
    have passed, the workload's prefix is done and its rotation is whole.

    Untraced, a reference slice runs after every ``reference.EVERY_S``
    seconds of op time.  With a ``tracer`` every op runs twice on the same
    inputs, untraced and traced, in alternating order so neither side
    always runs warm, and no reference slice runs.
    Returns one ``Sample`` per side and, per op, the times of the
    reference slices that ran right after it.
    """
    sides = (None,) if tracer is None else (None, tracer)
    samples = {side: Sample(workload) for side in sides}
    refs = []
    busy = since_ref = 0.0
    k = 0
    while k < workload.prefix or busy < seconds or k % workload.period:
        for side in sides if k % 2 == 0 else sides[::-1]:
            op = workload.request(k)
            elapsed, err = run_op(op, side or contextlib.nullcontext())
            samples[side].add(op, elapsed, err)
            busy += elapsed
            since_ref += elapsed
        refs.append([])
        while tracer is None and since_ref >= reference.EVERY_S:
            refs[-1].append(reference.slice_s())
            since_ref -= reference.EVERY_S
        k += 1
    if tracer is None and not any(refs):
        refs[-1].append(reference.slice_s())
    return tuple(samples[side] for side in sides), refs


def local_refs(refs, window=reference.WINDOW):
    """Per op, the mean of the ``window`` reference slices nearest before
    it and the ``window`` nearest after it."""
    out = []
    for i in range(len(refs)):
        before = [t for block in refs[:i] for t in block][-window:]
        after = [t for block in refs[i:] for t in block][:window]
        out.append(statistics.fmean(before + after))
    return out


def percentile(values, q) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def by_position(times, period):
    """Times grouped by their op's position in the workload's rotation."""
    return [times[p::period] for p in range(period)]


def end_to_end(sample, norm) -> dict:
    """End-to-end metrics from op times in ``ref_s`` (``norm``).

    Both timing metrics start from each rotation position's median, so a
    burst of host load during a few ops does not move them: throughput is
    one rotation over the sum of the medians, the typical latency their
    geometric mean, which weighs every kind of op in the mix equally."""
    medians = [statistics.median(ts) for ts in by_position(norm, sample.workload.period)]
    return {
        "ops_per_ref_s": (len(medians) / sum(medians), "1/ref_s"),
        "op_gmean_ref_s": (statistics.geometric_mean(medians), "ref_s"),
        "err_mean_digits": (statistics.fmean(digits(sample.prefix_errs())), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def wall(sample, norm, refs) -> dict:
    """Percentiles of the same run, in wall seconds and in ``ref_s``, and
    the reference slices, for the record."""
    slices = [t for block in refs for t in block]
    return {
        "ops_per_s": len(sample.times) / sum(sample.times),
        "op_p50_s": statistics.median(sample.times),
        "op_p90_s": percentile(sample.times, 90),
        "op_p50_ref_s": statistics.median(norm),
        "op_p90_ref_s": percentile(norm, 90),
        "ref_mean_s": statistics.fmean(slices),
        "ref_slices": len(slices),
    }


def per_layer(workload, untraced, traced, recorder, names) -> dict:
    busy = sum(traced.times)
    out = {}
    for name in names:
        out[f"{name}.calls"] = (recorder.calls.get(name, 0), "count")
        out[f"{name}.self_frac"] = (recorder.self_s.get(name, 0.0) / busy, "frac")
    builds = recorder.calls.get("modelspace.ModelSpace", 0)
    distinct = len(recorder.keys.get("modelspace.ModelSpace", ()))
    out["modelspace.ModelSpace.distinct_frac"] = (distinct / builds if builds else 1.0, "frac")
    pool = getattr(workload, "pool", None) or workloads.tto_pool(mst, workload.seed)
    out["modelspace.gram_defect_max"] = (workloads.gram_defect_max(pool), "rel")
    out["trace.op_s"] = (busy, "s")
    out["trace.overhead_frac"] = (busy / sum(untraced.times) - 1.0, "frac")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](mst, args.seed)
    warm = workload.warmup()
    warm_result = warm.call()
    setup_s = time.monotonic() - args.t0
    warm_ok = warm.check(warm_result) <= workloads.FAIL_TOL
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "warmup_ok": warm_ok}))
        return 0
    reference.slice_s()

    if args.trace:
        recorder = spans.Recorder()
        tracer = spans.Tracer(mst, recorder)
        samples, _ = measure(workload, args.seconds, tracer)
        metrics = per_layer(workload, *samples, recorder, tracer.names())
        timing = {}
    else:
        samples, refs = measure(workload, args.seconds)
        norm = [t * reference.NOMINAL_S / r for t, r in zip(samples[0].times, local_refs(refs))]
        metrics = end_to_end(samples[0], norm)
        timing = wall(samples[0], norm, refs)

    main_sample = samples[0]
    err_max = max(main_sample.prefix_errs())
    kinds = {}
    for kind in main_sample.kinds:
        kinds[kind] = kinds.get(kind, 0) + 1
    attempted = sum(len(s.times) for s in samples)
    failed = sum(s.failed for s in samples)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(),
        "inputs": workload.inputs.record(),
        "ops": len(main_sample.times),
        "position_median_s": [statistics.median(t) for t in by_position(main_sample.times, workload.period)],
        "wall": timing,
        "op_kinds": kinds,
        "err_max": err_max if math.isfinite(err_max) else None,
        "err_ops": min(workload.prefix, len(main_sample.errs)),
        "fail_frac": failed / attempted,
        "warmup_ok": warm_ok,
        "setup_s_worker": setup_s,
    }
    print(json.dumps({"record": record, "correct": failed == 0 and warm_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
