"""JSON and CSV wire formats.

All numbers travel as ``[re, im]`` pairs; Python's float repr guarantees a
bit-exact round trip for every double.  Parsers reject unknown fields so a
malformed document fails loudly before any computation runs.
"""

from __future__ import annotations

import numpy as np

from .blaschke import BlaschkeProduct
from .dual import ComplementElement
from .operators import OperatorMatrix
from .rational import ComplexPoly, RationalFn
from .wienerhopf import MatrixFactorization

__all__ = [
    "SchemaError",
    "poly_to_json",
    "poly_from_json",
    "rational_to_json",
    "rational_from_json",
    "blaschke_to_json",
    "blaschke_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "matrix_to_csv",
    "complement_element_to_json",
    "factorization_to_json",
    "complex_to_pair",
    "pair_to_complex",
    "format_complex",
]


class SchemaError(ValueError):
    """A document does not match its schema."""


def complex_to_pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise SchemaError(f"expected an [re, im] pair, got {pair!r}")
    re, im = pair
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise SchemaError(f"pair entries must be numbers, got {pair!r}")
    return complex(re, im)


def _reject_unknown(doc: dict, allowed: set, what: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be an object, got {type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"unknown fields in {what}: {sorted(unknown)}")


def poly_to_json(p: ComplexPoly) -> list:
    return [complex_to_pair(c) for c in p.coeffs]


def poly_from_json(doc) -> ComplexPoly:
    if not isinstance(doc, list):
        raise SchemaError("polynomial must be an array of [re, im] pairs")
    return ComplexPoly([pair_to_complex(pair) for pair in doc])


def rational_to_json(f: RationalFn) -> dict:
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def rational_from_json(doc) -> RationalFn:
    _reject_unknown(doc, {"num", "den"}, "rational")
    if "num" not in doc or "den" not in doc:
        raise SchemaError("rational needs both 'num' and 'den'")
    return RationalFn(poly_from_json(doc["num"]), poly_from_json(doc["den"]))


def blaschke_to_json(b: BlaschkeProduct) -> dict:
    return {
        "zeros": [complex_to_pair(z) for z in b.zeros],
        "constant": complex_to_pair(b.constant),
    }


def blaschke_from_json(doc) -> BlaschkeProduct:
    _reject_unknown(doc, {"zeros", "constant"}, "blaschke")
    if "zeros" not in doc or not isinstance(doc["zeros"], list):
        raise SchemaError("blaschke needs a 'zeros' array")
    zeros = tuple(pair_to_complex(pair) for pair in doc["zeros"])
    constant = pair_to_complex(doc.get("constant", [1.0, 0.0]))
    return BlaschkeProduct(zeros, constant)


def matrix_to_json(m: OperatorMatrix) -> dict:
    rows, cols = m.entries.shape
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[complex_to_pair(v) for v in row] for row in m.entries],
        "domain": blaschke_to_json(m.domain.inner),
        "codomain": blaschke_to_json(m.codomain.inner),
    }


def matrix_from_json(doc):
    """Entries plus the two space tags; returns ``(entries, domain, codomain)``
    with the spaces as Blaschke products (or ``None`` when untagged)."""
    _reject_unknown(doc, {"rows", "cols", "entries", "domain", "codomain"}, "matrix")
    if "entries" not in doc:
        raise SchemaError("matrix needs an 'entries' field")
    entries = np.array(
        [[pair_to_complex(v) for v in row] for row in doc["entries"]], dtype=complex
    )
    if entries.size == 0:
        entries = entries.reshape((0, 0))
    if "rows" in doc and doc["rows"] != entries.shape[0]:
        raise SchemaError("row count does not match the entries")
    if "cols" in doc and doc["cols"] != entries.shape[1]:
        raise SchemaError("column count does not match the entries")
    domain = blaschke_from_json(doc["domain"]) if "domain" in doc else None
    codomain = blaschke_from_json(doc["codomain"]) if "codomain" in doc else None
    return entries, domain, codomain


def format_complex(z: complex) -> str:
    z = complex(z)
    re = z.real + 0.0  # drop negative zero
    im = z.imag + 0.0
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def matrix_to_csv(entries: np.ndarray) -> str:
    lines = []
    for row in np.atleast_2d(entries):
        lines.append(",".join(format_complex(v) for v in row))
    return "\n".join(lines) + "\n"


def complement_element_to_json(e: ComplementElement) -> dict:
    return {
        "theta": blaschke_to_json(e.theta),
        "analytic": rational_to_json(e.analytic),
        "antianalytic": rational_to_json(e.antianalytic),
    }


def factorization_to_json(fact: MatrixFactorization) -> dict:
    return {
        "n": fact.n,
        "phi": rational_to_json(fact.phi),
        "g_plus_inv": [[poly_to_json(p) for p in row] for row in fact.g_plus_inv],
        "g_minus_inv": [[rational_to_json(f) for f in row] for row in fact.g_minus_inv],
        "det": complex_to_pair(fact.det),
        "residual": fact.residual,
        "degree_bound": fact.degree_bound,
    }
