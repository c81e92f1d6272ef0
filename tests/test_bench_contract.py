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
