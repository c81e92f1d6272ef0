"""Scan benchmark ops for failures, digest library outputs for diffing, or
run the standing gates.

Usage, from the root of a checkout::

    python3 tools/scan_ops.py scan --workload cli_readme --ops 1680 --seeds 1-10
    python3 tools/scan_ops.py digest [--root DIR] > digest.txt
    python3 tools/scan_ops.py sweep [--root DIR]
    python3 tools/scan_ops.py gates [--root DIR]

``scan`` runs ops ``0 <= k < ops`` of one benchmark workload at each seed
through the workload's own ``request`` and ``check`` (``perfbench/
workloads.py``, imported read-only), and prints one line for every op that
raises, exits non-zero or deviates from the oracle by more than the
benchmark's fail bound.  Ops are independent, so an op fails here exactly
when it fails inside a benchmark run that reaches it.

``digest`` prints one line per output item: exact ``repr`` for scalars and
a SHA-256 prefix for arrays and CLI output, then, after ``~``, a second
SHA-256 prefix of the item with every float rounded to 8 significant
digits.  A scalar keeps 8 of its own digits; the entries of an array and
the numbers in a text (CLI or demo output) are rounded to one quantum, 8
significant digits of the largest magnitude among them, so entries that
should vanish and read ``1e-17`` or ``-3e-18`` round alike.  Diffing the
digests of two checkouts (``--root`` picks the checkout whose ``src/`` and
``perfbench/`` are imported) shows every output that is not bit-identical;
an item whose full hash differs while its rounded hash matches moved only
at rounding level, one whose rounded hash differs changed for real.  Items:

* ``transport_small`` ops 0-47, seeds 1-3: ``E``, ``F``, the transported
  symbol's numerator and denominator, residuals, condition numbers and the
  Brown-Halmos hypothesis flag;
* ``cli_readme`` ops 0-83, seeds 1-3: exit code and standard output;
* ``mst verify --suite all`` at suite seeds 2024, 0, 3027 and 4036: every
  check residual;
* ``run_all()`` at its default seed: the number of ``ModelSpace`` builds,
  counted by the benchmark's span recorder (``perfbench/spans.py``,
  imported read-only);
* ``tto_large`` ops 0-3, seed 1: the matrix;
* ``demos/*.py``: standard output of each demo script, run in process;
* ``api``: the sorted public names of ``mst``, each with the module whose
  ``__all__`` declares it (or that defines it).

``sweep`` measures ``tto_matrix``, ``conjugation_matrix`` and, at ``n <=
16``, ``crofoot_defect_matrix`` against the benchmark's quadrature oracle
(``perfbench/oracle.py``, imported read-only) over degrees ``n`` in {2, 4,
8, 16, 24, 32}, zero radius 0.5, 0.8 and 0.95 and 10 draws per cell; every
third draw repeats a zero.  The compression runs between two spaces, with a
symbol of degree 4 with two poles inside and two outside the circle at
margin 0.2 (``workloads.random_symbol``); the conjugation gets a random
unimodular constant; the Crofoot multiplier ``J`` of the domain space takes
a shift ``w`` drawn in the disk of the zero radius, and its defect matrix is
compared with ``G - I`` for the quadrature Gram matrix ``G`` of ``J e_k``,
on nodes counted from the zeros and the roots of ``J``'s denominator.  Each
line is one cell: the median and largest relative deviation and the median
call time of each function (``-`` where a function is not run), then two
checks that need no oracle: the number of the cell's draws in which
``multiplication_matrix`` rejects the canonical multiplier
``multiplier_between(domain, codomain)`` (it maps the domain onto the
codomain by construction, so every rejection is a false membership
residual), and the largest entry deviation of the domain's ``gram()`` from
the identity over the draws (the basis is orthonormal, so that is the error
of the compression rule itself).  One
``layer`` line per degree then gives the median time, over the 30 draws of
that degree, of the two exact-layer constructions under every cell: the
domain's ``ModelSpace(inner)`` and one ``RationalFn`` product ``symbol *
e_0`` with the first basis function, which is built before the clock
starts.  Each is one call between other work, so caches are cold.  One ``wh``
line per degree then gives, over 10 symbols ``1 + sum c_k z**k`` with ``0 <
|k| <= 2`` and ``sum |c_k| <= 0.8`` (the ``cli_readme`` family), the
largest relative deviation of ``MatrixFactorization.inverse`` from a
50-digit ``mpmath`` inverse of the exact Toeplitz section and the median
time of ``wiener_hopf_factorize`` plus ``inverse``.

``gates`` runs the checks every library change must pass and prints one
line per gate, its verdict and the number behind it:

* ``mst verify --suite all`` at suite seeds 2024, 0, 3027 and 4036, in
  process: each exits 0;
* ``scan`` of ``cli_readme`` ops below 1680 and ``transport_small`` ops
  below 1200 at seeds 1-10: no op fails (rerun ``scan`` for the failing
  ops);
* ``perfbench/selftest.py``, in a fresh process: every self-test passes;
* the span targets of ``perfbench/spans.py`` (imported read-only): each
  resolves on its owner, and a ``Tracer`` installs its wrappers and removes
  them again.

It then prints the line count of ``src/``, and exits 1 if any gate fails.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import inspect
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import time

# one BLAS thread, as in the benchmark, so every run takes the same path
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
from numpy.polynomial import polynomial as npp  # noqa: E402

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


ROUND_DIGITS = 8
# a decimal number in a text: sign, digits with an optional point, exponent
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def quantum(values) -> float:
    """The unit of the last of ``ROUND_DIGITS`` significant digits of the
    largest magnitude among ``values`` (1 when all vanish)."""
    top = float(np.max(np.abs(values), initial=0.0))
    if not math.isfinite(top) or top == 0.0:
        return 1.0
    return 10.0 ** (math.floor(math.log10(top)) - ROUND_DIGITS + 1)


def rounded_sha(data) -> str:
    """:func:`sha` of ``data`` with every float rounded: a scalar to its own
    ``ROUND_DIGITS`` significant digits, an array or the numbers in a text
    to one quantum (:func:`quantum`) for all of them."""
    if isinstance(data, np.ndarray):
        q = quantum(data)
        return sha(np.round(data / q) + 0.0)  # + 0.0: no -0.0
    if isinstance(data, str):
        q = quantum([float(m) for m in NUMBER.findall(data)])
        return sha(NUMBER.sub(lambda m: str(round(float(m.group()) / q)), data))
    if isinstance(data, (float, complex, np.floating, np.complexfloating)):
        z = complex(data)
        return sha(f"{z.real:.{ROUND_DIGITS - 1}e} {z.imag:.{ROUND_DIGITS - 1}e}")
    return sha(repr(data))


def item(key, data):
    """One digest line: exact ``repr`` of a scalar or :func:`sha` of an
    array or text, then the :func:`rounded_sha`."""
    exact = sha(data) if isinstance(data, (np.ndarray, str)) else repr(data)
    print(f"{key} {exact} ~{rounded_sha(data)}")


def transport_items(result):
    if hasattr(result, "tilde_symbol"):  # equivalence_transform
        yield "E", result.E.entries
        yield "F", result.F.entries
        yield "tilde.num", result.tilde_symbol.num.coeffs
        yield "tilde.den", result.tilde_symbol.den.coeffs
        yield "residual", result.residual
        yield "cond_E", result.cond_E
        yield "cond_F", result.cond_F
    elif hasattr(result, "hypothesis_ok"):  # brown_halmos_product
        yield "residual", result.residual
        yield "hypothesis_ok", result.hypothesis_ok
    else:  # dual_equivalence
        yield "residual", result


def digest(mst, workloads, root):
    for seed in (1, 2, 3):
        workload = workloads.WORKLOADS["transport_small"](mst, seed)
        for k in range(48):
            op = workload.request(k)
            for key, value in transport_items(op.call()):
                item(f"transport_small/{seed}/{k}/{op.kind}/{key}", value)
    for seed in (1, 2, 3):
        workload = workloads.WORKLOADS["cli_readme"](mst, seed)
        for k in range(84):
            op = workload.request(k)
            code, text = op.call()
            item(f"cli_readme/{seed}/{k}/{op.kind} exit {code} stdout", text)
    for seed in (2024, 0, 3027, 4036):
        for report in mst.run_all(seed):
            for check in report.checks:
                item(f"verify/{seed}/{report.suite}/{check.name}", check.residual)
    import spans

    recorder = spans.Recorder()
    with spans.Tracer(mst, recorder):
        mst.run_all()
    item("run_all/model_space_builds", recorder.calls.get("modelspace.ModelSpace", 0))
    workload = workloads.WORKLOADS["tto_large"](mst, 1)
    for k in range(4):
        item(f"tto_large/1/{k}", workload.request(k).call().entries)
    for path in sorted(glob.glob(os.path.join(root, "demos", "*.py"))):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(path, run_name="__main__")
        item(f"demos/{os.path.basename(path)} stdout", out.getvalue())
    print("api", " ".join(api_names(mst)))


def api_names(mst):
    """``module.name`` for every public name of ``mst``, sorted by name."""
    owners = {}
    for module_name, module in sorted(sys.modules.items()):
        if module_name.startswith("mst."):
            owners.update(dict.fromkeys(getattr(module, "__all__", ()), module_name[4:]))
    public = sorted(
        name for name, value in vars(mst).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    return [f"{owners.get(name) or getattr(mst, name).__module__[4:]}.{name}" for name in public]


GATE_VERIFY_SEEDS = (2024, 0, 3027, 4036)
GATE_SCANS = (("cli_readme", 1680), ("transport_small", 1200))
GATE_SCAN_SEEDS = "1-10"


def gates(mst, workloads, root) -> int:
    verdicts = []

    def gate(name, ok, detail):
        verdicts.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}", flush=True)

    for seed in GATE_VERIFY_SEEDS:
        code, text = workloads.run_cli(mst, ["verify", "--suite", "all", "--seed", str(seed)])
        suites = json.loads(text)["suites"] if text else []  # no output on an input error
        checks = [c["passed"] for suite in suites for c in suite["checks"]]
        gate(f"verify --suite all --seed {seed}", code == 0,
             f"exit {code}, {sum(checks)} of {len(checks)} checks pass")
    seeds = seed_list(GATE_SCAN_SEEDS)
    for name, ops in GATE_SCANS:
        with contextlib.redirect_stdout(io.StringIO()):
            failures = scan(mst, workloads, name, ops, seeds)
        gate(f"scan {name} ops < {ops} seeds {GATE_SCAN_SEEDS}", failures == 0,
             f"{failures} failing of {ops * len(seeds)} ops")
    selftest = subprocess.run([sys.executable, os.path.join(root, "perfbench", "selftest.py")],
                              cwd=root, capture_output=True, text=True)
    lines = selftest.stdout.splitlines()
    passed = sum(line.startswith("PASS") for line in lines)
    ran = passed + sum(line.startswith("FAIL") for line in lines)
    gate("perfbench/selftest.py", selftest.returncode == 0 and passed == ran > 0,
         f"exit {selftest.returncode}, {passed} of {ran} self-tests pass")
    gate("span targets", *span_round_trip(mst))
    sources = glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)
    count = 0
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            count += len(fh.readlines())
    print(f"src/ {count} lines in {len(sources)} files")
    return 0 if all(verdicts) else 1


def span_round_trip(mst):
    """``(ok, detail)``: every span target resolves on its owner, and the
    tracer's wrappers are installed and removed again."""
    import spans

    targets = spans.layer_targets(mst)
    missing = [name for name, owner, attr, _ in targets if attr not in owner.__dict__]
    if missing:
        return False, f"unresolved: {', '.join(missing)}"
    originals = [owner.__dict__[attr] for _, owner, attr, _ in targets]
    with spans.Tracer(mst, spans.Recorder()) as tracer:
        installed = len(tracer.patches)
    restored = all(owner.__dict__[attr] is original
                   for (_, owner, attr, _), original in zip(targets, originals))
    return restored, (f"{len(targets)} targets resolve, {installed} wrappers installed, "
                      f"{'all' if restored else 'not all'} removed")


SWEEP_DEGREES = (2, 4, 8, 16, 24, 32)
SWEEP_RADII = (0.5, 0.8, 0.95)
SWEEP_DRAWS = 10
CROFOOT_MAX_DEGREE = 16


def sweep_draw(workloads, n, radius, draw):
    rng = np.random.default_rng([n, int(100 * radius), draw])
    zeros = [workloads.disk_points(rng, n, radius) for _ in range(2)]
    if draw % 3 == 2 and n > 1:
        for z in zeros:
            z[-1] = z[0]
    num, poles = workloads.random_symbol(rng, 4, 2, 2)
    constant = np.exp(2j * np.pi * rng.uniform())
    w = complex(workloads.disk_points(rng, 1, radius)[0])
    return zeros, num, poles, constant, w


def timed(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def crofoot_cell(mst, oracle, k_dom, dom, constant, w):
    """Deviation and call time of ``crofoot_defect_matrix`` for the
    multiplier of shift ``w`` on ``k_dom``, against the quadrature Gram
    matrix of ``J e_k``."""
    j, _ = mst.crofoot_multiplier(k_dom, w)
    defect, seconds = timed(lambda: mst.modelspace.crofoot_defect_matrix(k_dom, j))
    poles = np.roots(j.den.coeffs[::-1]) if j.den.degree > 0 else []
    z = oracle.nodes(oracle.node_count(np.concatenate([dom, poles])))
    j_z = np.sqrt(1.0 - abs(w) ** 2) / (1.0 - np.conj(w) * oracle.blaschke(dom, z, constant))
    images = oracle.tm_basis(dom, z) * j_z
    reference = np.conj(images) @ images.T / z.size - np.eye(len(dom))
    return oracle.rel_dev(defect, reference), seconds


def cell_text(values):
    if values is None:
        return "-"
    dev, seconds = np.array(values).T
    return f"{np.median(dev):.2e} {np.max(dev):.2e} {np.median(seconds):.2e}"


def sweep(mst, workloads):
    oracle = workloads.oracle
    layer_s = {n: ([], []) for n in SWEEP_DEGREES}  # ModelSpace builds, products
    print("n radius | tto_matrix: median max deviation, median s"
          " | conjugation_matrix: median max deviation, median s"
          " | crofoot_defect_matrix: median max deviation, median s"
          " | multipliers rejected | gram() max deviation")
    for n in SWEEP_DEGREES:
        for radius in SWEEP_RADII:
            tto_rows, conj_rows, crofoot_rows = [], [], []
            rejected, gram_dev = 0, 0.0
            for draw in range(SWEEP_DRAWS):
                (dom, cod), num, poles, constant, w = sweep_draw(workloads, n, radius, draw)
                inner = mst.BlaschkeProduct(tuple(dom), constant)
                k_dom, build_s = timed(lambda: mst.ModelSpace(inner))
                k_cod = mst.ModelSpace(mst.BlaschkeProduct(tuple(cod)))
                symbol = mst.RationalFn(mst.ComplexPoly(num),
                                        mst.ComplexPoly(npp.polyfromroots(poles)))
                e_0 = k_dom.basis[0]
                layer_s[n][0].append(build_s)
                layer_s[n][1].append(timed(lambda: symbol * e_0)[1])
                tto, tto_s = timed(lambda: mst.tto_matrix(k_dom, k_cod, symbol).entries)
                z = oracle.nodes(oracle.node_count(np.concatenate([dom, cod, poles])))
                ref = oracle.compression(dom, cod, workloads.SampledSymbol(num, poles)(z), z)
                tto_rows.append((oracle.rel_dev(tto, ref), tto_s))
                conj, conj_s = timed(lambda: mst.conjugation_matrix(k_dom).J)
                e = oracle.tm_basis(dom, z)
                image = oracle.blaschke(dom, z, constant) * np.conj(z * e)
                conj_rows.append((oracle.rel_dev(conj, np.conj(e) @ image.T / z.size), conj_s))
                if n <= CROFOOT_MAX_DEGREE:
                    crofoot_rows.append(crofoot_cell(mst, oracle, k_dom, dom, constant, w))
                try:
                    mst.multiplication_matrix(k_dom, k_cod, mst.multiplier_between(k_dom, k_cod))
                except mst.MultiplierRangeViolation:
                    rejected += 1
                gram_dev = max(gram_dev, float(np.max(np.abs(k_dom.gram() - np.eye(n)))))
            print(f"{n:2d} {radius:.2f} | {cell_text(tto_rows)} | {cell_text(conj_rows)} "
                  f"| {cell_text(crofoot_rows or None)} | {rejected} | {gram_dev:.2e}", flush=True)
    print("layer n | ModelSpace(inner): median s | symbol * e_0: median s")
    for n, (builds, products) in layer_s.items():
        print(f"layer {n:2d} | {np.median(builds):.2e} | {np.median(products):.2e}", flush=True)
    print("wh n | MatrixFactorization.inverse: max deviation, median s of factorize + inverse")
    for n in SWEEP_DEGREES:
        print(wh_line(mst, oracle, n), flush=True)


def wh_line(mst, oracle, n):
    """The ``wh`` sweep line of degree ``n``."""
    import mpmath

    devs, times = [], []
    for draw in range(SWEEP_DRAWS):
        rng = np.random.default_rng([n, draw])
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c *= 0.8 * rng.uniform() / np.sum(np.abs(c))
        laurent = np.array([c[0], c[1], 1.0, c[2], c[3]])  # z^-2 .. z^2
        phi = mst.RationalFn(mst.ComplexPoly(laurent), mst.ComplexPoly.monomial(2))
        inverse, seconds = timed(lambda: mst.wiener_hopf_factorize(n, phi).inverse())
        with mpmath.workdps(50):
            section = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(max(0, i - 2), min(n, i + 3)):
                    section[i, j] = mpmath.mpc(laurent[2 + i - j])
            exact = section**-1
            reference = np.array([[complex(exact[i, j]) for j in range(n)] for i in range(n)])
        devs.append(oracle.rel_dev(inverse, reference))
        times.append(seconds)
    return f"wh {n:2d} | {max(devs):.2e} {np.median(times):.2e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("scan", "digest", "sweep", "gates"))
    parser.add_argument("--root", default=ROOT, help="checkout to import (default: this one)")
    parser.add_argument("--workload", default="cli_readme")
    parser.add_argument("--ops", type=int, default=84)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    mst, workloads = load(root)
    if args.mode == "digest":
        digest(mst, workloads, root)
        return 0
    if args.mode == "sweep":
        sweep(mst, workloads)
        return 0
    if args.mode == "gates":
        return gates(mst, workloads, root)
    return 1 if scan(mst, workloads, args.workload, args.ops, seed_list(args.seeds)) else 0


if __name__ == "__main__":
    sys.exit(main())
