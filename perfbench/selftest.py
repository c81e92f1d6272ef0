"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks the quadrature oracle against ``mpmath`` at 50 digits and against
itself at twice the nodes, the span recorder's self-time arithmetic on a
synthetic nested call, which reference slices scale each op, that tracing
wrappers leave ``mst`` untouched when removed, the negative controls (a perturbed matrix entry, a perturbed ``E``
factor and a non-zero exit code each count as a failed op), and that two
runs with the same seed report identical accuracy.  Prints one line per
check and exits non-zero if any fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npp

import worker  # puts src/ on the path and imports mst
import oracle
import spans
import workloads
from worker import mst

RESULTS = []


def check(name, ok, detail=""):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")


def mp_tto_entry(dom, cod, num, poles, i, j):
    """``<symbol e_j, f_i>`` by adaptive quadrature over the circle."""

    def basis(zeros, k, z):
        out = mpmath.sqrt(1 - abs(zeros[k]) ** 2) / (1 - mpmath.conj(zeros[k]) * z)
        for a in zeros[:k]:
            out *= (z - a) / (1 - mpmath.conj(a) * z)
        return out

    def integrand(t):
        z = mpmath.expj(t)
        s = mpmath.polyval(list(reversed(num)), z)
        for p in poles:
            s /= z - p
        return s * basis(dom, j, z) * mpmath.conj(basis(cod, i, z))

    cuts = [2 * mpmath.pi * q / 8 for q in range(9)]
    return mpmath.quad(integrand, cuts) / (2 * mpmath.pi)


def test_oracle_against_mpmath():
    rng = np.random.default_rng(11)
    dom, cod = workloads.disk_points(rng, 2), workloads.disk_points(rng, 2)
    num, poles = workloads.random_symbol(rng, 2, 1, 1)
    z = oracle.nodes(oracle.node_count(np.concatenate([dom, cod, poles])))
    ours = oracle.compression(dom, cod, workloads.SampledSymbol(num, poles)(z), z)
    with mpmath.workdps(50):
        mp = [mpmath.mpc(complex(x)) for x in num], [mpmath.mpc(complex(x)) for x in poles]
        zd, zc = [mpmath.mpc(complex(x)) for x in dom], [mpmath.mpc(complex(x)) for x in cod]
        exact = np.array([[complex(mp_tto_entry(zd, zc, mp[0], mp[1], i, j)) for j in range(2)]
                          for i in range(2)])
    dev = oracle.rel_dev(ours, exact)
    check("oracle vs mpmath (50 digits), degree 2", dev < 1e-14, f"dev {dev:.1e}, {z.size} nodes")
    symbol = mst.RationalFn(mst.ComplexPoly(num), mst.ComplexPoly(npp.polyfromroots(poles)))
    lib = mst.tto_matrix(mst.ModelSpace(mst.BlaschkeProduct(tuple(dom))),
                         mst.ModelSpace(mst.BlaschkeProduct(tuple(cod))), symbol).entries
    dev = oracle.rel_dev(lib, exact)
    check("mst.tto_matrix vs mpmath, degree 2", dev < 1e-12, f"dev {dev:.1e}")


def test_oracle_node_doubling():
    pool_zeros = [s.inner.zeros for s in workloads.tto_pool(mst, 0)]
    rng = np.random.default_rng(12)
    num, poles = workloads.random_symbol(rng, 4, 2, 2)
    symbol = workloads.SampledSymbol(num, poles)
    dom, cod = pool_zeros[3], pool_zeros[1]
    m = oracle.node_count(np.concatenate([dom, cod, poles]))
    a, b = (oracle.compression(dom, cod, symbol(z), z) for z in (oracle.nodes(m), oracle.nodes(2 * m)))
    dev = oracle.rel_dev(a, b)
    check("oracle converged: m vs 2m nodes, degree 16 with a repeated zero", dev < 1e-14,
          f"dev {dev:.1e}, m = {m}")


def test_self_time_arithmetic():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])  # outer[inner 2s, inner 3s] over 10s
    recorder = spans.Recorder(clock=lambda: next(ticks))
    inner = recorder.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    recorder.wrap("outer", body)()
    ok = (recorder.self_s == {"inner": 5.0, "outer": 5.0}
          and recorder.calls == {"inner": 2, "outer": 1} and recorder.current is None)
    check("span self time = duration - child spans", ok, f"{recorder.self_s}")


def test_local_reference():
    # ref slices after ops 0 and 2; each op is scaled by the slices nearest it
    refs = [[1.0, 2.0], [], [4.0]]
    got = worker.local_refs(refs, window=1), worker.local_refs(refs, window=2)
    ok = got == ([1.0, 3.0, 3.0], [1.5, 7.0 / 3.0, 7.0 / 3.0])
    check("reference slices nearest each op", ok, f"{got}")


def module_state():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if module is not None and (name == "mst" or name.startswith("mst."))
            for attr, value in list(module.__dict__.items())}


def test_tracer_install_remove():
    before = module_state()
    methods = (mst.RationalFn.__init__, mst.ComplexPoly.roots, mst.ModelSpace.__init__)
    recorder = spans.Recorder()
    tracer = spans.Tracer(mst, recorder)
    with tracer:
        wrapped = mst.modelspace._pair_with_conjugate is not before[("mst.modelspace", "_pair_with_conjugate")]
        mst.inner_product(mst.RationalFn.monomial(1), mst.RationalFn.monomial(1))
    after = module_state()
    same = after.keys() == before.keys() and all(after[k] is before[k] for k in before)
    same &= methods == (mst.RationalFn.__init__, mst.ComplexPoly.roots, mst.ModelSpace.__init__)
    check("tracer wraps every namespace and restores it", wrapped and same
          and recorder.calls.get("rational.pair") == 1, f"calls {recorder.calls}")


def failed_count(workload, op, result):
    sample = worker.Sample(workload)
    sample.add(op, 0.0, op.check(result))
    return sample.failed


def test_negative_controls():
    tto = workloads.TtoLarge(mst, 0)
    op = tto.request(0)
    result = op.call()
    clean = failed_count(tto, op, result)
    result.entries[3, 5] += 1e-5
    check("perturbed matrix entry counts as a failed op", clean == 0 and failed_count(tto, op, result) == 1)

    transport = workloads.TransportSmall(mst, 0)
    op = transport.request(0)
    result = op.call()
    clean = failed_count(transport, op, result)
    result.E.entries[0, 0] *= 1.0 + 1e-5
    check("perturbed E factor counts as a failed op", clean == 0 and failed_count(transport, op, result) == 1)

    cli = workloads.CliReadme(mst, 0)
    argv = ["tto", "--space", "blaschke(1.5)", "--symbol", "z"]
    op = workloads.Op("tto", lambda: workloads.run_cli(mst, argv), workloads.cli_check(lambda p: 0.0))
    result = op.call()
    check("non-zero exit code counts as a failed op", result[0] != 0 and failed_count(cli, op, result) == 1,
          f"exit code {result[0]}")


def run_bench(workload, seed):
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170).stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_accuracy_repeats():
    for workload in ("cli_readme", "transport_small"):
        (rec_a, res_a), (rec_b, res_b) = run_bench(workload, 5), run_bench(workload, 5)
        a = (rec_a["err_max"], res_a["metrics"]["err_mean_digits"]["value"])
        b = (rec_b["err_max"], res_b["metrics"]["err_mean_digits"]["value"])
        check(f"accuracy repeats exactly for a fixed seed ({workload})",
              a == b and res_a["correct"] and res_b["correct"], f"{a} / {b}")


def main() -> int:
    test_self_time_arithmetic()
    test_local_reference()
    test_tracer_install_remove()
    test_oracle_against_mpmath()
    test_oracle_node_doubling()
    test_negative_controls()
    test_accuracy_repeats()
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-tests passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
