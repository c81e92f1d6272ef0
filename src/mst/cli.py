"""Batch front-end: parse problem inputs, dispatch, emit JSON or CSV.

Each subcommand is declared once, as one entry of ``COMMANDS``.  A space,
symbol or matrix argument may be ``@path``, which reads its text from a file.

Exit codes: 0 on success, 1 on input errors (malformed JSON or shorthand,
schema violations, non-finite or degenerate values), 2 on verification
failures (a residual above tolerance or a mathematically negative verdict).
Only the four commands with a verdict take ``--tol``, a finite number >= 0:
``equiv``, ``crofoot`` and ``conjugation-check`` (default 1e-9) and
``rank-equiv`` (default 1e-8).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from .blaschke import BlaschkeProduct, to_rational
from .dual import dual_kernel
from .modelspace import MEMBERSHIP_TOL, ModelSpace, crofoot_gram_check, crofoot_multiplier
from .operators import (
    NotEquivalentError,
    _relative_defect,
    conjugation_matrix,
    equivalence_transform,
    rank_equivalence,
    selfadjoint_residual,
    tto_matrix,
)
from .rational import ComplexPoly, RationalFn
from .serialize import (
    blaschke_from_json,
    blaschke_to_json,
    complement_element_to_json,
    complex_to_pair,
    factorization_to_json,
    format_complex,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    rational_from_json,
    rational_to_json,
)
from .verify import SUITE_NAMES, run_all, run_suite
from .wienerhopf import (
    DegreeCapExceeded,
    NoCanonicalFactorization,
    tto_inverse_via_wh,
    wiener_hopf_factorize,
)

__all__ = ["main", "run_command", "parse_shorthand", "ShorthandError"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2


class ShorthandError(ValueError):
    def __init__(self, message: str, position: int = 0):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


# -- shorthand parsing -------------------------------------------------------

_FLOAT = r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?"


def _parse_complex(text: str, offset: int = 0) -> complex:
    s = text.strip()
    if not s:
        raise ShorthandError("empty number", offset)
    if s in ("i", "+i", "j", "+j"):
        return 1j
    if s in ("-i", "-j"):
        return -1j
    if s[-1] in "ij":
        body = s[:-1]
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                re_part, im_part = body[:k], body[k:]
                if im_part in ("+", "-"):
                    im_part += "1"
                try:
                    return complex(float(re_part), float(im_part))
                except ValueError:
                    raise ShorthandError(f"bad complex literal {text!r}", offset) from None
        if body in ("", "+", "-"):
            body += "1"
        try:
            return complex(0.0, float(body))
        except ValueError:
            raise ShorthandError(f"bad imaginary literal {text!r}", offset) from None
    try:
        return complex(float(s), 0.0)
    except ValueError:
        raise ShorthandError(f"bad number {text!r}", offset) from None


def _split_top_level(s: str, separators: str, not_after: str = None):
    """Split ``s`` at its top-level characters in ``separators`` into
    ``(piece, offset)`` pairs; unbalanced parentheses raise.

    Without ``not_after`` the cut character is dropped.  With it (the rule
    for signed terms) a cut also needs the preceding character outside
    ``not_after``, and the cut character heads the next piece.
    """
    depth = 0
    start = 0
    pieces = []
    for k, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ShorthandError("unbalanced ')'", k)
        elif ch in separators and depth == 0 and k > start:
            if not_after is None:
                pieces.append((s[start:k], start))
                start = k + 1
            elif s[k - 1] not in not_after:
                pieces.append((s[start:k], start))
                start = k
    if depth != 0:
        raise ShorthandError("unbalanced '('", len(s) - 1)
    pieces.append((s[start:], start))
    return pieces


_TERM_RE = re.compile(
    rf"^(?P<coeff>\((?:[^()]*)\)|(?:{_FLOAT})?[ij]?)?\*?(?P<zpart>z(?:\^(?P<exp>[0-9]+))?)?$"
)


def _parse_poly(text: str, offset: int = 0) -> ComplexPoly:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        inner = s[1:-1]
        try:
            inner_terms = _split_top_level(inner, "+-", "eE")
        except ShorthandError:  # the parentheses close early, as in "(1)+(2)"
            inner_terms = []
        # unwrap only when the parentheses enclose the whole polynomial
        if inner_terms and ("z" in inner or len(inner_terms) > 1):
            return _parse_poly(inner, offset + 1)
    coeffs: dict[int, complex] = {}
    for raw, at in _split_top_level(s, "+-", "eE+-*/^("):
        t = raw.strip()
        if not t:
            raise ShorthandError("empty term", offset + at)
        sign = 1.0
        while t and t[0] in "+-":
            if t[0] == "-":
                sign = -sign
            t = t[1:].strip()
        match = _TERM_RE.match(t.replace(" ", ""))
        if not match or (not match.group("coeff") and not match.group("zpart")):
            raise ShorthandError(f"bad term {raw.strip()!r}", offset + at)
        coeff_text = match.group("coeff") or ""
        if coeff_text.startswith("("):
            coeff = _parse_complex(coeff_text[1:-1], offset + at)
        elif coeff_text in ("", None):
            coeff = 1.0 + 0.0j
        else:
            coeff = _parse_complex(coeff_text, offset + at)
        power = 0
        if match.group("zpart"):
            power = int(match.group("exp") or 1)
        coeffs[power] = coeffs.get(power, 0.0) + sign * coeff
    top = max(coeffs) if coeffs else 0
    dense = np.zeros(top + 1, dtype=complex)
    for p, c in coeffs.items():
        dense[p] = c
    return ComplexPoly(dense)


def parse_shorthand(s: str):
    """Parse ``z^n``, ``blaschke(z1, z2, ...)``, inline JSON, or a rational
    ``poly/poly`` with complex literals ``a+bi``."""
    text = s.strip()
    if not text:
        raise ShorthandError("empty input", 0)
    if text.startswith("{"):
        doc = json.loads(text)
        if "zeros" in doc:
            return blaschke_from_json(doc)
        return rational_from_json(doc)
    monomial = re.match(r"^z\^([0-9]+)$", text)
    if monomial:
        return BlaschkeProduct((0.0,) * int(monomial.group(1)))
    if text == "z":
        return BlaschkeProduct((0.0,))
    blaschke = re.match(r"^blaschke\((.*)\)$", text, flags=re.DOTALL)
    if blaschke:
        inner = blaschke.group(1).strip()
        if not inner:
            return BlaschkeProduct(())
        zeros = tuple(
            _parse_complex(piece, 9 + at) for piece, at in _split_top_level(inner, ",")
        )
        return BlaschkeProduct(zeros)
    pieces = _split_top_level(text, "/")
    if len(pieces) > 2:
        raise ShorthandError("more than one '/' at top level", pieces[2][1])
    num = _parse_poly(pieces[0][0], pieces[0][1])
    den = _parse_poly(pieces[1][0], pieces[1][1]) if len(pieces) == 2 else ComplexPoly([1.0])
    return RationalFn(num, den)


def _load(value: str, parse=None):
    """Parse an argument, read from the named file when it starts with ``@``,
    with ``parse`` (default: ``parse_shorthand``, looked up at each call)."""
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            value = fh.read()
    return (parse or parse_shorthand)(value)


def _as_blaschke(value: str) -> BlaschkeProduct:
    obj = _load(value)
    if isinstance(obj, RationalFn):
        raise ShorthandError("expected an inner function, got a rational symbol", 0)
    return obj


def _as_symbol(value: str) -> RationalFn:
    obj = _load(value)
    if isinstance(obj, BlaschkeProduct):
        return to_rational(obj)
    return obj


def _finite_float(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


# -- command handlers --------------------------------------------------------


def _cmd_tto(args):
    domain = ModelSpace(_as_blaschke(args.space))
    codomain = ModelSpace(_as_blaschke(args.codomain)) if args.codomain else domain
    matrix = tto_matrix(domain, codomain, _as_symbol(args.symbol))
    return matrix_to_json(matrix), matrix_to_csv(matrix.entries), EXIT_OK


def _cmd_equiv(args):
    spaces = (_as_blaschke(v) for v in (args.theta, args.alpha, args.eta, args.gamma))
    result = equivalence_transform(*spaces, _as_symbol(args.symbol))
    payload = {
        "E": matrix_to_json(result.E),
        "F": matrix_to_json(result.F),
        "tilde_symbol": rational_to_json(result.tilde_symbol),
        "residual": result.residual,
        "cond_E": result.cond_E,
        "cond_F": result.cond_F,
        "tolerance": args.tol,
    }
    csv = "key,value\nresidual,{}\ncond_E,{}\ncond_F,{}\n".format(
        result.residual, result.cond_E, result.cond_F
    )
    csv += "E\n" + matrix_to_csv(result.E.entries)
    csv += "F\n" + matrix_to_csv(result.F.entries)
    return payload, csv, EXIT_OK if result.residual <= args.tol else EXIT_VERIFY


def _cmd_dual_kernel(args):
    result = dual_kernel(_as_blaschke(args.theta), _as_blaschke(args.alpha))
    defect = result.membership_defect()
    if not defect < MEMBERSHIP_TOL:
        detail = f"kernel membership defect {defect!r} is not below {MEMBERSHIP_TOL!r}"
        return {"status": "formula-mismatch", "detail": detail}, None, EXIT_VERIFY
    payload = {
        "dim": result.dim,
        "k": result.k,
        "gamma": blaschke_to_json(result.gamma),
        "basis": [complement_element_to_json(e) for e in result.basis],
    }
    csv_lines = ["index,analytic,antianalytic"]
    for idx, e in enumerate(result.basis):
        csv_lines.append(
            f"{idx},{json.dumps(rational_to_json(e.analytic))!r},"
            f"{json.dumps(rational_to_json(e.antianalytic))!r}"
        )
    return payload, "\n".join(csv_lines) + "\n", EXIT_OK


def _cmd_wh_inverse(args):
    symbol = _as_symbol(args.symbol)
    try:
        fact = wiener_hopf_factorize(args.n, symbol)
    except NoCanonicalFactorization as exc:
        return {"status": "no-canonical-factorization", "detail": str(exc)}, None, EXIT_VERIFY
    except DegreeCapExceeded as exc:
        return {"status": "undetermined", "detail": str(exc)}, None, EXIT_VERIFY
    payload = factorization_to_json(fact)
    if args.rhs:
        payload["solution"] = rational_to_json(tto_inverse_via_wh(fact, _as_symbol(args.rhs)))
    csv = "entry,value\n" + "\n".join(
        f"g_plus_inv[{i}][{j}],\"{[format_complex(c) for c in fact.g_plus_inv[i][j].coeffs]}\""
        for i in range(2)
        for j in range(2)
    )
    return payload, csv + "\n", EXIT_OK


def _cmd_crofoot(args):
    space = ModelSpace(_as_blaschke(args.space))
    w = _parse_complex(args.w)
    j, target = crofoot_multiplier(space, w)
    gram_residual, vanishes = crofoot_gram_check(space, j)
    payload = {
        "multiplier": rational_to_json(j),
        "target": blaschke_to_json(target.inner),
        "gram_residual": gram_residual,
        "zero_symbol_check": bool(vanishes),
        "tolerance": args.tol,
    }
    csv = f"key,value\ngram_residual,{gram_residual}\nzero_symbol_check,{vanishes}\n"
    return payload, csv, EXIT_OK if gram_residual <= args.tol and vanishes else EXIT_VERIFY


def _cmd_conjugation_check(args):
    space = ModelSpace(_as_blaschke(args.space))
    c = conjugation_matrix(space)
    residual = selfadjoint_residual(tto_matrix(space, space, _as_symbol(args.symbol)), c)
    selfadjoint = residual <= args.tol
    payload = {
        "selfadjoint": selfadjoint,
        "residual": residual,
        "tolerance": args.tol,
        "conjugation": [[complex_to_pair(v) for v in row] for row in c.J],
    }
    csv = f"key,value\nresidual,{residual}\nselfadjoint,{selfadjoint}\n"
    return payload, csv, EXIT_OK if selfadjoint else EXIT_VERIFY


def _cmd_rank_equiv(args):
    a_entries, _, _ = matrix_from_json(_load(args.a, json.loads))
    b_entries, _, _ = matrix_from_json(_load(args.b, json.loads))
    try:
        e_mat, f_mat = rank_equivalence(a_entries, b_entries)
    except NotEquivalentError as exc:
        payload = {"equivalent": False, "detail": str(exc)}
        return payload, "equivalent,False\n", EXIT_OK
    residual = _relative_defect(a_entries, e_mat @ b_entries @ f_mat)
    payload = {
        "equivalent": True,
        "E": [[complex_to_pair(v) for v in row] for row in e_mat],
        "F": [[complex_to_pair(v) for v in row] for row in f_mat],
        "residual": residual,
        "tolerance": args.tol,
    }
    csv = f"equivalent,True\nresidual,{residual}\n"
    csv += "E\n" + matrix_to_csv(e_mat) + "F\n" + matrix_to_csv(f_mat)
    return payload, csv, EXIT_OK if residual <= args.tol else EXIT_VERIFY


def _cmd_verify(args):
    reports = run_all(args.seed) if args.suite == "all" else [run_suite(args.suite, args.seed)]
    suites = [
        {
            "suite": rep.suite,
            "passed": rep.passed,
            "max_residual": rep.max_residual,
            "checks": [{**dataclasses.asdict(c), "passed": c.passed} for c in rep.checks],
        }
        for rep in reports
    ]
    passed = all(rep.passed for rep in reports)
    lines = ["suite,check,residual,tolerance,direction,passed"]
    lines += [",".join(map(str, (s["suite"], *c.values()))) for s in suites for c in s["checks"]]
    payload = {"suites": suites, "passed": passed}
    return payload, "\n".join(lines) + "\n", EXIT_OK if passed else EXIT_VERIFY


class Command(NamedTuple):
    """One ``mst`` subcommand: its handler, help line, ``add_argument`` options
    by flag, and its ``--tol`` default (``None``: the command takes no ``--tol``)."""

    handler: Callable
    help: str
    arguments: dict
    tol: float | None = None


_REQUIRED = {"required": True}
_MATRIX = {"required": True, "help": "matrix JSON (inline or @file)"}

COMMANDS = {
    "tto": Command(_cmd_tto, "assemble a compressed multiplication matrix", {
        "--space": {"required": True, "help": "domain inner function"},
        "--codomain": {"help": "codomain inner function (defaults to the domain)"},
        "--symbol": {"required": True, "help": "rational symbol"}}),
    "equiv": Command(_cmd_equiv, "three-factor equivalence transport", dict.fromkeys(
        ("--theta", "--alpha", "--eta", "--gamma", "--symbol"), _REQUIRED), tol=1e-9),
    "dual-kernel": Command(_cmd_dual_kernel, "kernel of the dual compression",
                           dict.fromkeys(("--theta", "--alpha"), _REQUIRED)),
    "wh-inverse": Command(_cmd_wh_inverse, "triangular factorization and inverse", {
        "--n": {"type": int, "required": True},
        "--symbol": _REQUIRED,
        "--rhs": {"help": "apply the inverse to this model-space element"}}),
    "crofoot": Command(_cmd_crofoot, "isometric shift multiplier", {
        "--space": _REQUIRED,
        "--w": {"required": True, "help": "shift parameter (complex literal)"}}, tol=1e-9),
    "conjugation-check": Command(_cmd_conjugation_check, "complex selfadjointness test",
                                 dict.fromkeys(("--space", "--symbol"), _REQUIRED), tol=1e-9),
    "rank-equiv": Command(_cmd_rank_equiv, "equivalence factors from ranks",
                          dict.fromkeys(("--a", "--b"), _MATRIX), tol=1e-8),
    "verify": Command(_cmd_verify, "run a named invariant suite", {
        "--suite": {"required": True, "choices": SUITE_NAMES + ("all",)},
        "--seed": {"type": int, "default": 2024}}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mst`` argument parser, built once per process and reused (a
    parse keeps no state on the parser)."""
    parser = argparse.ArgumentParser(
        prog="mst",
        description="Model-space toolkit: assemble operator matrices, run "
        "equivalence transports, and verify the library invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, options in command.arguments.items():
            p.add_argument(flag, **options)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write output to this path instead of stdout")
        if command.tol is not None:
            p.add_argument("--tol", type=_finite_float, default=command.tol,
                           help="verdict tolerance, a finite number >= 0 (default %(default)s)")
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        payload, csv, code = COMMANDS[args.command].handler(args)
    except json.JSONDecodeError as exc:
        print(
            f"input error: line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.format == "csv" and csv is not None:
        text = csv
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
