"""The benchmark's span recorder still finds every library call site.

``perfbench/spans.py`` wraps library functions, methods and constructors
from outside, looking each one up by name on its owner.  A rename in the
library would break the traced benchmark run; this test installs the
recorder, makes traced calls, removes it and checks that every original is
back.  It reads ``perfbench/`` and writes nothing there.
"""

import importlib.util
import pathlib
import sys

import numpy as np

import mst
import mst.cli

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def transport():
    theta = mst.BlaschkeProduct((0.5, 1.0 / 3.0))
    eta = mst.BlaschkeProduct((0.0, 0.2j))
    symbol = mst.RationalFn(mst.ComplexPoly([1.0, 0.5]), mst.ComplexPoly([-2.0, 1.0]))
    return mst.equivalence_transform(theta, theta, eta, eta, symbol)


def test_tracer_installs_and_removes():
    spans = load_spans()
    targets = spans.layer_targets(mst)
    originals = {(owner, attr): owner.__dict__[attr] for _, owner, attr, _ in targets}
    untraced = transport()
    recorder = spans.Recorder()
    with spans.Tracer(mst, recorder) as tracer:
        assert len(tracer.patches) >= len(originals)
        traced = transport()
        assert mst.cli.run_command(["verify", "--suite", "blaschke"]) == 0
        # coordinates do not pair; a norm still runs the exact pairing
        assert mst.norm2(mst.RationalFn.monomial(1)) > 0.0
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original
    assert not tracer.patches
    assert np.array_equal(traced.E.entries, untraced.E.entries)
    assert np.array_equal(traced.F.entries, untraced.F.entries)
    for name in ("operators.equivalence_transform", "modelspace.multiplier_between",
                 "operators.tto_matrix", "modelspace.ModelSpace", "modelspace.coordinates",
                 "rational.pair", "cli.run_command", "verify.run_suite"):
        assert recorder.calls.get(name, 0) > 0, name


def test_model_space_builds_coefficients_only():
    # construction multiplies coefficient arrays; the reduced basis and the
    # inner function as a RationalFn are built on first read
    spans = load_spans()
    recorder = spans.Recorder()
    inner = mst.BlaschkeProduct((0.5, 1.0 / 3.0, -0.2j, 0.6 + 0.1j, 0.0, 0.5))
    with spans.Tracer(mst, recorder):
        space = mst.ModelSpace(inner)
        built = dict(recorder.calls)
        basis = space.basis
        read = dict(recorder.calls)
        rational = space.rational
    assert built["modelspace.ModelSpace"] == 1
    for name in ("rational.RationalFn", "rational.roots", "blaschke.to_rational"):
        assert built.get(name, 0) == 0, name
    assert read["rational.RationalFn"] == 6 and read["rational.roots"] > 0
    assert read.get("blaschke.to_rational", 0) == 0
    assert recorder.calls["blaschke.to_rational"] == 1
    assert len(basis) == 6 and space.basis is basis and space.rational is rational


def test_dual_equivalence_builds_nothing_exact():
    # the transport residual is computed on circle samples alone: no model
    # space is built and no Riesz split or exact pairing runs
    spans = load_spans()
    recorder = spans.Recorder()
    alpha = mst.BlaschkeProduct((0.5, 1.0 / 3.0))
    z2 = mst.BlaschkeProduct((0.0, 0.0))
    with spans.Tracer(mst, recorder):
        residual = mst.dual_equivalence(alpha, z2, z2, z2, mst.RationalFn.monomial(1))
    assert residual < 1e-12
    for name in ("modelspace.ModelSpace", "rational.pair", "rational.riesz_project"):
        assert recorder.calls.get(name, 0) == 0, name


def test_pairings_build_nothing_exact():
    # the pairing kernel reads coefficient arrays: an inner product or a norm
    # builds no RationalFn and runs no Riesz split, and a crofoot defect
    # matrix builds only its n reduced images, splitting each once, and
    # pairs them in one kernel call
    spans = load_spans()
    f = mst.RationalFn(mst.ComplexPoly([1.0, 0.5j, 0.2]), mst.ComplexPoly.from_roots([0.5, 2.0j]))
    g = mst.RationalFn(mst.ComplexPoly([0.3, 1.0]), mst.ComplexPoly.from_roots([-0.4j, 1.5]))
    space = mst.ModelSpace(mst.BlaschkeProduct((0.5, 1.0 / 3.0, -0.2j, 0.6 + 0.1j, 0.0, 0.5)))
    j, _ = mst.crofoot_multiplier(space, 0.3 - 0.4j)
    counts = {}
    for name, call in (("inner_product", lambda: mst.inner_product(f, g)),
                       ("norm2", lambda: mst.norm2(f)),
                       ("crofoot", lambda: mst.modelspace.crofoot_defect_matrix(space, j))):
        recorder = spans.Recorder()
        with spans.Tracer(mst, recorder):
            call()
        counts[name] = recorder.calls
        for layer in ("rational.riesz_project", "rational.circle_conjugate"):
            assert recorder.calls.get(layer, 0) == 0, (name, layer)
    for name in ("inner_product", "norm2"):
        assert counts[name].get("rational.RationalFn", 0) == 0, name
        assert counts[name]["rational.pair"] == 1, name
    assert counts["inner_product"]["rational.roots"] == 2
    assert counts["norm2"]["rational.roots"] == 1
    assert counts["crofoot"]["rational.RationalFn"] == space.dim
    assert counts["crofoot"]["rational.roots"] == 2 * space.dim
    assert counts["crofoot"]["rational.pair"] == 1
    # perfbench/selftest.py checks the tracer through this module attribute
    assert mst.modelspace._pair_with_conjugate is mst.rational._pair_with_conjugate


def test_wh_inverse_builds_nothing_exact():
    # with the factorization at hand, the inverse is one closed-form matrix
    # times the right-hand side's coefficients: no Riesz split, no model
    # space, no coordinate pass, and one RationalFn for the result
    spans = load_spans()
    phi = mst.RationalFn(mst.ComplexPoly([0.2, 0.1j, 1.0, -0.3]), mst.ComplexPoly.monomial(2))
    rhs = mst.RationalFn(mst.ComplexPoly([1.0, 0.5j, -0.25]))
    fact = mst.wiener_hopf_factorize(3, phi)
    recorder = spans.Recorder()
    with spans.Tracer(mst, recorder):
        mst.tto_inverse_via_wh(3, phi, rhs, fact)
    assert recorder.calls["wienerhopf.tto_inverse_via_wh"] == 1
    for name in ("rational.riesz_project", "modelspace.ModelSpace", "modelspace.coordinates"):
        assert recorder.calls.get(name, 0) == 0, name
    assert recorder.calls.get("rational.RationalFn", 0) <= 1


def test_model_suite_work_counts():
    # the scalar coefficient kernels make each call cheaper, not the calls
    # fewer: one model suite builds as many RationalFn and ModelSpace objects
    # and solves for as many roots as it did on the numpy kernels
    spans = load_spans()
    recorder = spans.Recorder()
    with spans.Tracer(mst, recorder):
        assert mst.verify.run_suite("model").passed
    assert recorder.calls["rational.RationalFn"] == 1659
    assert recorder.calls["rational.roots"] == 2611
    assert recorder.calls["modelspace.ModelSpace"] == 20


def test_complement_elements_are_counted():
    # a complement element is a plain dataclass record: its generated
    # __init__ is the span, and every kernel basis element goes through it
    spans = load_spans()
    recorder = spans.Recorder()
    z3 = mst.BlaschkeProduct((0.0, 0.0, 0.0))
    with spans.Tracer(mst, recorder):
        kernel = mst.dual_kernel(z3, z3)
    assert kernel.dim == 2
    assert recorder.calls["dual.dual_kernel"] == 1
    assert recorder.calls["dual.ComplementElement"] == kernel.dim
