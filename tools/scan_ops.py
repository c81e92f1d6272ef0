"""Scan benchmark ops for failures, or digest library outputs for diffing.

Usage, from the root of a checkout::

    python3 tools/scan_ops.py scan --workload cli_readme --ops 1680 --seeds 1-10
    python3 tools/scan_ops.py digest [--root DIR] > digest.txt

``scan`` runs ops ``0 <= k < ops`` of one benchmark workload at each seed
through the workload's own ``request`` and ``check`` (``perfbench/
workloads.py``, imported read-only), and prints one line for every op that
raises, exits non-zero or deviates from the oracle by more than the
benchmark's fail bound.  Ops are independent, so an op fails here exactly
when it fails inside a benchmark run that reaches it.

``digest`` prints one line per output item: exact ``repr`` for scalars and
a SHA-256 prefix for arrays and CLI output.  Diffing the digests of two
checkouts (``--root`` picks the checkout whose ``src/`` and ``perfbench/``
are imported) shows every output that is not bit-identical.  Items:

* ``transport_small`` ops 0-47, seeds 1-3: ``E``, ``F``, the transported
  symbol's numerator and denominator, residuals, condition numbers and the
  Brown-Halmos hypothesis flag;
* ``cli_readme`` ops 0-83, seeds 1-3: exit code and standard output;
* ``mst verify --suite all`` at suite seeds 2024, 0, 3027 and 4036: every
  check residual;
* ``tto_large`` ops 0-3, seed 1: the matrix.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys

# one BLAS thread, as in the benchmark, so every run takes the same path
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(root):
    """Import ``mst`` and the benchmark workloads from a checkout."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import mst
    import mst.cli
    import workloads

    return mst, workloads


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def scan(mst, workloads, name, ops, seeds) -> int:
    failures = 0
    for seed in seeds:
        workload = workloads.WORKLOADS[name](mst, seed)
        for k in range(ops):
            op = workload.request(k)
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    dev, note = float(op.check(op.call())), ""
                except Exception as exc:  # the benchmark counts these as failures
                    dev, note = math.inf, f" {type(exc).__name__}: {exc}"
            if not dev <= workloads.FAIL_TOL:
                failures += 1
                print(f"{name} seed {seed} op {k} {op.kind}: deviation {dev!r}{note}", flush=True)
    print(f"{name}: {failures} failing of {ops * len(seeds)} ops")
    return failures


def sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    elif isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def transport_items(result):
    if hasattr(result, "tilde_symbol"):  # equivalence_transform
        yield "E", sha(result.E.entries)
        yield "F", sha(result.F.entries)
        yield "tilde.num", sha(result.tilde_symbol.num.coeffs)
        yield "tilde.den", sha(result.tilde_symbol.den.coeffs)
        yield "residual", repr(result.residual)
        yield "cond_E", repr(result.cond_E)
        yield "cond_F", repr(result.cond_F)
    elif hasattr(result, "hypothesis_ok"):  # brown_halmos_product
        yield "residual", repr(result.residual)
        yield "hypothesis_ok", repr(result.hypothesis_ok)
    else:  # dual_equivalence
        yield "residual", repr(result)


def digest(mst, workloads):
    for seed in (1, 2, 3):
        workload = workloads.WORKLOADS["transport_small"](mst, seed)
        for k in range(48):
            op = workload.request(k)
            for key, value in transport_items(op.call()):
                print(f"transport_small/{seed}/{k}/{op.kind}/{key} {value}")
    for seed in (1, 2, 3):
        workload = workloads.WORKLOADS["cli_readme"](mst, seed)
        for k in range(84):
            op = workload.request(k)
            code, text = op.call()
            print(f"cli_readme/{seed}/{k}/{op.kind} exit {code} stdout {sha(text)}")
    for seed in (2024, 0, 3027, 4036):
        for report in mst.run_all(seed):
            for check in report.checks:
                print(f"verify/{seed}/{report.suite}/{check.name} {check.residual!r}")
    workload = workloads.WORKLOADS["tto_large"](mst, 1)
    for k in range(4):
        print(f"tto_large/1/{k} {sha(workload.request(k).call().entries)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("scan", "digest"))
    parser.add_argument("--root", default=ROOT, help="checkout to import (default: this one)")
    parser.add_argument("--workload", default="cli_readme")
    parser.add_argument("--ops", type=int, default=84)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    mst, workloads = load(os.path.abspath(args.root))
    if args.mode == "digest":
        digest(mst, workloads)
        return 0
    return 1 if scan(mst, workloads, args.workload, args.ops, seed_list(args.seeds)) else 0


if __name__ == "__main__":
    sys.exit(main())
