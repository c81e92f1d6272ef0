"""Batch front-end: parse problem inputs, dispatch, emit JSON or CSV.

Exit codes: 0 on success, 1 on input errors (malformed JSON or shorthand,
schema violations, non-finite or degenerate values), 2 on verification
failures (a residual above tolerance or a mathematically negative verdict).
Tolerances come from ``--tol``, then the ``MST_TOL`` environment variable,
then per-command defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

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
    SchemaError,
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


def _read_argument(value: str) -> str:
    """The argument text, read from the named file when it starts with ``@``."""
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return value


def _load_argument(value: str):
    return parse_shorthand(_read_argument(value))


def _as_blaschke(value: str) -> BlaschkeProduct:
    obj = _load_argument(value)
    if isinstance(obj, RationalFn):
        raise ShorthandError("expected an inner function, got a rational symbol", 0)
    return obj


def _as_symbol(value: str) -> RationalFn:
    obj = _load_argument(value)
    if isinstance(obj, BlaschkeProduct):
        return to_rational(obj)
    return obj


def _load_matrix(value: str):
    return matrix_from_json(json.loads(_read_argument(value)))


def _tolerance(args, default: float) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("MST_TOL")
    if env is not None:
        try:
            return float(env)
        except ValueError:
            raise SchemaError(f"MST_TOL is not a number: {env!r}") from None
    return default


# -- command handlers --------------------------------------------------------


def _cmd_tto(args):
    domain = ModelSpace(_as_blaschke(args.space))
    codomain = ModelSpace(_as_blaschke(args.codomain)) if args.codomain else domain
    matrix = tto_matrix(domain, codomain, _as_symbol(args.symbol))
    return matrix_to_json(matrix), matrix_to_csv(matrix.entries), EXIT_OK


def _cmd_equiv(args):
    tol = _tolerance(args, 1e-9)
    result = equivalence_transform(
        _as_blaschke(args.theta),
        _as_blaschke(args.alpha),
        _as_blaschke(args.eta),
        _as_blaschke(args.gamma),
        _as_symbol(args.symbol),
    )
    payload = {
        "E": matrix_to_json(result.E),
        "F": matrix_to_json(result.F),
        "tilde_symbol": rational_to_json(result.tilde_symbol),
        "residual": result.residual,
        "cond_E": result.cond_E,
        "cond_F": result.cond_F,
        "tolerance": tol,
    }
    csv = "key,value\nresidual,{}\ncond_E,{}\ncond_F,{}\n".format(
        result.residual, result.cond_E, result.cond_F
    )
    csv += "E\n" + matrix_to_csv(result.E.entries)
    csv += "F\n" + matrix_to_csv(result.F.entries)
    code = EXIT_OK if result.residual <= tol else EXIT_VERIFY
    return payload, csv, code


def _cmd_dual_kernel(args):
    theta = _as_blaschke(args.theta)
    alpha = _as_blaschke(args.alpha)
    result = dual_kernel(theta, alpha)
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
        solution = tto_inverse_via_wh(fact, _as_symbol(args.rhs))
        payload["solution"] = rational_to_json(solution)
    csv = "entry,value\n" + "\n".join(
        f"g_plus_inv[{i}][{j}],\"{[format_complex(c) for c in fact.g_plus_inv[i][j].coeffs]}\""
        for i in range(2)
        for j in range(2)
    )
    return payload, csv + "\n", EXIT_OK


def _cmd_crofoot(args):
    tol = _tolerance(args, 1e-9)
    space = ModelSpace(_as_blaschke(args.space))
    w = _parse_complex(args.w)
    j, target = crofoot_multiplier(space, w)
    gram_residual, vanishes = crofoot_gram_check(space, j)
    payload = {
        "multiplier": rational_to_json(j),
        "target": blaschke_to_json(target.inner),
        "gram_residual": gram_residual,
        "zero_symbol_check": bool(vanishes),
        "tolerance": tol,
    }
    csv = f"key,value\ngram_residual,{gram_residual}\nzero_symbol_check,{vanishes}\n"
    code = EXIT_OK if gram_residual <= tol and vanishes else EXIT_VERIFY
    return payload, csv, code


def _cmd_conjugation_check(args):
    tol = _tolerance(args, 1e-9)
    space = ModelSpace(_as_blaschke(args.space))
    symbol = _as_symbol(args.symbol)
    c = conjugation_matrix(space)
    residual = selfadjoint_residual(tto_matrix(space, space, symbol), c)
    payload = {
        "selfadjoint": residual < tol,
        "residual": residual,
        "tolerance": tol,
        "conjugation": [[complex_to_pair(v) for v in row] for row in c.J],
    }
    csv = f"key,value\nresidual,{residual}\nselfadjoint,{residual < tol}\n"
    return payload, csv, EXIT_OK if residual < tol else EXIT_VERIFY


def _cmd_rank_equiv(args):
    tol = _tolerance(args, 1e-8)
    a_entries, _, _ = _load_matrix(args.a)
    b_entries, _, _ = _load_matrix(args.b)
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
        "tolerance": tol,
    }
    csv = f"equivalent,True\nresidual,{residual}\n"
    csv += "E\n" + matrix_to_csv(e_mat) + "F\n" + matrix_to_csv(f_mat)
    return payload, csv, EXIT_OK if residual <= tol else EXIT_VERIFY


def _cmd_verify(args):
    reports = run_all(args.seed) if args.suite == "all" else [run_suite(args.suite, args.seed)]
    payload = {
        "suites": [
            {
                "suite": rep.suite,
                "passed": rep.passed,
                "max_residual": rep.max_residual,
                "checks": [
                    {
                        "name": c.name,
                        "residual": c.residual,
                        "tolerance": c.tolerance,
                        "direction": c.direction,
                        "passed": c.passed,
                    }
                    for c in rep.checks
                ],
            }
            for rep in reports
        ],
        "passed": all(rep.passed for rep in reports),
    }
    lines = ["suite,check,residual,tolerance,direction,passed"]
    for rep in reports:
        for c in rep.checks:
            lines.append(
                f"{rep.suite},{c.name},{c.residual},{c.tolerance},{c.direction},{c.passed}"
            )
    return payload, "\n".join(lines) + "\n", EXIT_OK if payload["passed"] else EXIT_VERIFY


COMMANDS = {
    "tto": _cmd_tto,
    "equiv": _cmd_equiv,
    "dual-kernel": _cmd_dual_kernel,
    "wh-inverse": _cmd_wh_inverse,
    "crofoot": _cmd_crofoot,
    "conjugation-check": _cmd_conjugation_check,
    "rank-equiv": _cmd_rank_equiv,
    "verify": _cmd_verify,
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

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--tol", type=float, default=None, help="override the tolerance")

    p = sub.add_parser("tto", help="assemble a compressed multiplication matrix")
    p.add_argument("--space", required=True, help="domain inner function")
    p.add_argument("--codomain", help="codomain inner function (defaults to the domain)")
    p.add_argument("--symbol", required=True, help="rational symbol")
    common(p)

    p = sub.add_parser("equiv", help="three-factor equivalence transport")
    for name in ("theta", "alpha", "eta", "gamma"):
        p.add_argument(f"--{name}", required=True)
    p.add_argument("--symbol", required=True)
    common(p)

    p = sub.add_parser("dual-kernel", help="kernel of the dual compression")
    p.add_argument("--theta", required=True)
    p.add_argument("--alpha", required=True)
    common(p)

    p = sub.add_parser("wh-inverse", help="triangular factorization and inverse")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--symbol", required=True)
    p.add_argument("--rhs", help="apply the inverse to this model-space element")
    common(p)

    p = sub.add_parser("crofoot", help="isometric shift multiplier")
    p.add_argument("--space", required=True)
    p.add_argument("--w", required=True, help="shift parameter (complex literal)")
    common(p)

    p = sub.add_parser("conjugation-check", help="complex selfadjointness test")
    p.add_argument("--space", required=True)
    p.add_argument("--symbol", required=True)
    common(p)

    p = sub.add_parser("rank-equiv", help="equivalence factors from ranks")
    p.add_argument("--a", required=True, help="matrix JSON (inline or @file)")
    p.add_argument("--b", required=True, help="matrix JSON (inline or @file)")
    common(p)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=2024)
    common(p)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        payload, csv, code = COMMANDS[args.command](args)
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
