"""Span recorder that times ``mst`` layers from outside the library.

The recorder wraps public functions, methods and constructors of the
``mst`` modules.  Each call opens a span with a ``time.perf_counter``
start and a link to the span that was open when it began; on exit the
span's duration is charged to its parent's child time and its self time
(duration minus child time) to its name.  Spans are aggregated per name as
they close, so memory stays flat on long runs.

``Tracer.install`` replaces the wrapped object in every ``mst`` module
namespace that imported it by name (and on the class, for methods), and
``Tracer.remove`` puts every original back, so untraced runs execute the
library's own code objects.
"""

from __future__ import annotations

import functools
import sys
import time


class Span:
    __slots__ = ("name", "start", "parent", "child_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.parent = parent
        self.child_s = 0.0


class Recorder:
    """Per-name call counts and self time; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.current = None
        self.calls = {}
        self.self_s = {}
        self.keys = {}

    def open(self, name) -> Span:
        span = Span(name, self.clock(), self.current)
        self.current = span
        return span

    def close(self, span: Span):
        duration = self.clock() - span.start
        self.current = span.parent
        if span.parent is not None:
            span.parent.child_s += duration
        self.calls[span.name] = self.calls.get(span.name, 0) + 1
        self.self_s[span.name] = self.self_s.get(span.name, 0.0) + duration - span.child_s

    def wrap(self, name, fn, key=None):
        """``fn`` inside a span; ``key(*args)`` collects distinct inputs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                self.keys.setdefault(name, set()).add(key(*args, **kwargs))
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced


def _space_key(self, inner, *args, **kwargs):
    return inner.zeros


def layer_targets(mst):
    """``(span name, owner, attribute, key)`` for every traced call site.

    ``owner`` is a module (functions, patched in every namespace holding
    them) or a class (constructors and methods, patched on the class).
    """
    rational, blaschke, modelspace = mst.rational, mst.blaschke, mst.modelspace
    operators, dual, wienerhopf = mst.operators, mst.dual, mst.wienerhopf
    serialize, cli, verify = mst.serialize, mst.cli, mst.verify
    targets = [
        ("rational.RationalFn", rational.RationalFn, "__init__", None),
        ("rational.riesz_project", rational, "riesz_project", None),
        ("rational.pair", rational, "_pair_with_conjugate", None),
        ("rational.circle_conjugate", rational, "circle_conjugate", None),
        ("rational.roots", rational.ComplexPoly, "roots", None),
        ("blaschke.to_rational", blaschke, "to_rational", None),
        ("blaschke.frostman_shift", blaschke, "frostman_shift", None),
        ("modelspace.ModelSpace", modelspace.ModelSpace, "__init__", _space_key),
        ("modelspace.coordinates", modelspace.ModelSpace, "coordinates", None),
        # contains() is a comparison on membership_residual(), so one span
        # covers both entry points without counting a contains() call twice
        ("modelspace.membership", modelspace.ModelSpace, "membership_residual", None),
        ("modelspace.multiplier_between", modelspace, "multiplier_between", None),
        ("operators.tto_matrix", operators, "tto_matrix", None),
        ("operators.multiplication_matrix", operators, "multiplication_matrix", None),
        ("operators.equivalence_transform", operators, "equivalence_transform", None),
        ("operators.brown_halmos_product", operators, "brown_halmos_product", None),
        ("dual.dual_apply", dual, "dual_apply", None),
        ("dual.ComplementElement", dual.ComplementElement, "__init__", None),
        ("dual.dual_kernel", dual, "dual_kernel", None),
        ("wienerhopf.wiener_hopf_factorize", wienerhopf, "wiener_hopf_factorize", None),
        ("wienerhopf.invert_direct", wienerhopf, "invert_direct", None),
        ("wienerhopf.tto_inverse_via_wh", wienerhopf, "tto_inverse_via_wh", None),
        ("cli.parse_shorthand", cli, "parse_shorthand", None),
        ("cli.run_command", cli, "run_command", None),
        ("verify.run_suite", verify, "run_suite", None),
    ]
    for fn_name in serialize.__all__:
        if fn_name.islower():
            targets.append(("serialize.all", serialize, fn_name, None))
    return targets


class Tracer:
    """Installs recorder wrappers into ``mst`` and removes them again."""

    def __init__(self, mst, recorder: Recorder):
        self.mst = mst
        self.recorder = recorder
        self.patches = []  # (owner, attribute, original)

    def names(self):
        return list(dict.fromkeys(name for name, *_ in layer_targets(self.mst)))

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "mst" or n.startswith("mst."))]
        try:
            for name, owner, attr, key in layer_targets(self.mst):
                original = owner.__dict__[attr]
                wrapper = self.recorder.wrap(name, original, key)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in modules:
                    for alias, value in list(module.__dict__.items()):
                        if value is original:
                            self._patch(module, alias, original, wrapper)
        except BaseException:
            self.remove()
            raise

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def remove(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False
