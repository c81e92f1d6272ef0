"""Finite Blaschke products and their explicit manipulations.

A finite Blaschke product is determined by a multiset of zeros in the open
disk and a unimodular constant.  It is the generic inner function at this
package's scale: unimodular on the circle, analytic on the closed disk,
with as many zeros (counting multiplicity) as its degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rational import (
    CLUSTER_TOL,
    ComplexPoly,
    RationalFn,
    circle_conjugate,
    circle_gap,
    sup_on_circle,
)

__all__ = [
    "BlaschkeProduct",
    "MonomialFactorization",
    "to_rational",
    "monomial_factorization",
    "frostman_shift",
    "generalized_frostman_shift",
    "blaschke_gcd",
    "blaschke_quotient",
    "unimodularity_defect",
    "frostman_shift_defect",
    "generalized_shift_factor_defect",
    "gcd_quotient_defect",
]

_ZERO_MARGIN = 1e-10
_CONST_TOL = 1e-12


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product: zeros in the open disk, unimodular constant.

    The zero order is preserved; downstream basis constructions depend on it.
    """

    zeros: tuple = ()
    constant: complex = 1.0 + 0.0j

    def __post_init__(self):
        zs = tuple(complex(z) for z in (self.zeros if self.zeros is not None else ()))
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "constant", complex(self.constant))
        # both tests are written so that a NaN fails them
        for z in zs:
            if not abs(z) < 1.0 - _ZERO_MARGIN:
                raise ValueError(f"Blaschke zero {z} is not strictly inside the disk")
        if not abs(abs(self.constant) - 1.0) <= _CONST_TOL:
            raise ValueError(f"constant {self.constant} is not unimodular")

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full_like(z, self.constant)
        for a in self.zeros:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        return out

    def isclose(self, other: "BlaschkeProduct", tol: float = CLUSTER_TOL) -> bool:
        if self.degree != other.degree:
            return False
        if abs(self.constant - other.constant) > 1e-9:
            return False
        mine, theirs = _match_multisets(self.zeros, other.zeros, tol)
        return len(mine) == self.degree

    def same_space(self, other: "BlaschkeProduct", tol: float = CLUSTER_TOL) -> bool:
        """Zeros agree as multisets; the constant is irrelevant for the space."""
        if self.degree != other.degree:
            return False
        mine, _ = _match_multisets(self.zeros, other.zeros, tol)
        return len(mine) == self.degree


class MonomialFactorization(NamedTuple):
    """``B = minus * z**power * plus`` with ``minus`` invertible in the
    conjugate-analytic algebra and ``plus`` invertible analytic."""

    minus: RationalFn
    power: int
    plus: RationalFn

    def reconstruction_defect(self, b: BlaschkeProduct) -> float:
        """Largest deviation of ``minus * z**power * plus`` from ``b``, the
        product this factorization came from, over 32 circle points."""
        return circle_gap(self.minus * RationalFn.monomial(self.power) * self.plus, b)


def _match_multisets(a, b, tol):
    a = list(a)
    b = list(b)
    pairs = sorted(
        ((abs(a[i] - b[j]), i, j) for i in range(len(a)) for j in range(len(b))),
        key=lambda t: t[0],
    )
    used_a, used_b = {}, set()
    for dist, i, j in pairs:
        if dist >= tol:
            break
        if i in used_a or j in used_b:
            continue
        used_a[i] = j
        used_b.add(j)
    return used_a, used_b


def _denominator_poly(zeros) -> ComplexPoly:
    d = ComplexPoly([1.0])
    for a in zeros:
        d = d * ComplexPoly([1.0, -np.conj(a)])
    return d


def to_rational(b: BlaschkeProduct) -> RationalFn:
    """``constant * prod (z - a_j) / (1 - conj(a_j) z)`` as a reduced quotient."""
    num = ComplexPoly.from_roots(np.array(b.zeros, dtype=complex), lead=b.constant)
    return RationalFn(num, _denominator_poly(b.zeros))


def monomial_factorization(b: BlaschkeProduct) -> MonomialFactorization:
    """Split ``B`` as ``minus * z**n * plus``.

    ``minus = c * z**(-n) * prod(z - a_j)`` has all roots and poles weakly
    inside, so it is invertible among bounded conjugate-analytic functions;
    ``plus = prod 1/(1 - conj(a_j) z)`` is invertible analytic on the closed
    disk.  The unimodular constant rides along with ``minus``.
    """
    n = b.degree
    num = ComplexPoly.from_roots(np.array(b.zeros, dtype=complex), lead=b.constant)
    minus = RationalFn(num, ComplexPoly.monomial(n))
    plus = RationalFn(ComplexPoly([1.0]), _denominator_poly(b.zeros))
    return MonomialFactorization(minus, n, plus)


def unimodularity_defect(f) -> float:
    """Largest deviation of ``|f|`` from one over 32 circle points."""
    return sup_on_circle(lambda z: np.abs(f(z)) - 1.0, 32)


def frostman_shift(b: BlaschkeProduct, a: complex) -> BlaschkeProduct:
    """The shift ``(B - a) / (1 - conj(a) B)`` re-expressed with its zeros.

    The zeros are the solutions of ``B(z) = a``; the degree is preserved and
    every root stays in the open disk.  The unimodular constant is fixed so
    the result equals the shifted function exactly, not just up to phase.
    """
    a = complex(a)
    if abs(a) >= 1.0:
        raise ValueError("shift parameter must lie in the open unit disk")
    rational = to_rational(b)
    n = b.degree
    if n == 0:
        value = (b.constant - a) / (1.0 - np.conj(a) * b.constant)
        return BlaschkeProduct((), value / abs(value))
    target_num = rational.num - a * rational.den
    roots = target_num.roots()
    if roots.size != n or np.any(np.abs(roots) >= 1.0 - _ZERO_MARGIN):
        raise ArithmeticError("shifted zeros left the open disk; input too close to degenerate")
    raw = BlaschkeProduct(tuple(roots), 1.0)
    probe = 1.0 + 0.0j
    target_value = (complex(b(probe)) - a) / (1.0 - np.conj(a) * complex(b(probe)))
    constant = target_value / complex(raw(probe))
    constant /= abs(constant)
    return BlaschkeProduct(tuple(roots), constant)


def frostman_shift_defect(b: BlaschkeProduct, a: complex, shifted: BlaschkeProduct) -> float:
    """Largest deviation of ``shifted``, the product ``frostman_shift(b, a)``
    returns, from ``(B - a) / (1 - conj(a) B)`` over 32 circle points."""
    return circle_gap(shifted, lambda z: (b(z) - a) / (1.0 - np.conj(a) * b(z)))


def generalized_frostman_shift(b: BlaschkeProduct, h: RationalFn):
    """Shift by a small analytic symbol ``h``: ``(B - hbar) / (1 - h B)``.

    Returns ``(shifted, minus, plus)`` where ``shifted = minus * B * plus``,
    ``minus = 1 - hbar * Bbar`` is invertible conjugate-analytic and
    ``plus = 1 / (1 - h B)`` is invertible analytic.  The shifted function is
    unimodular on the circle but need not be inner.
    """
    for p in h.poles():
        if abs(p) < 1.0:
            raise ValueError("shift symbol must be analytic on the closed disk")
    if sup_on_circle(h) >= 1.0:
        raise ValueError("shift symbol must have sup norm < 1 (sampled estimate)")
    theta = to_rational(b)
    hbar = circle_conjugate(h)
    theta_bar = circle_conjugate(theta)
    shifted = (theta - hbar) / (RationalFn.one() - h * theta)
    minus = RationalFn.one() - hbar * theta_bar
    plus = (RationalFn.one() - h * theta).inverse()
    return shifted, minus, plus


def generalized_shift_factor_defect(
    b: BlaschkeProduct, shifted: RationalFn, minus: RationalFn, plus: RationalFn
) -> float:
    """Largest deviation of ``minus * B * plus`` from ``shifted`` over 32
    circle points, for the triple :func:`generalized_frostman_shift`
    returns."""
    return circle_gap(minus * to_rational(b) * plus, shifted)


def blaschke_gcd(b1: BlaschkeProduct, b2: BlaschkeProduct) -> BlaschkeProduct:
    """Zeros common to both factors (multiset intersection, clustered)."""
    matched, _ = _match_multisets(b1.zeros, b2.zeros, CLUSTER_TOL)
    zeros = tuple(
        0.5 * (b1.zeros[i] + b2.zeros[j]) for i, j in sorted(matched.items())
    )
    return BlaschkeProduct(zeros, 1.0)


def blaschke_quotient(b: BlaschkeProduct, divisor: BlaschkeProduct) -> BlaschkeProduct:
    """Remove the divisor's zeros from ``b`` (must divide within tolerance)."""
    matched, used = _match_multisets(divisor.zeros, b.zeros, CLUSTER_TOL)
    if len(matched) != divisor.degree:
        raise ValueError("divisor zeros are not contained in the product")
    remaining = tuple(z for j, z in enumerate(b.zeros) if j not in used)
    return BlaschkeProduct(remaining, b.constant / divisor.constant)


def gcd_quotient_defect(b: BlaschkeProduct, g: BlaschkeProduct) -> float:
    """Largest deviation of ``g * blaschke_quotient(b, g)`` from ``b`` over
    32 circle points."""
    q = blaschke_quotient(b, g)
    return circle_gap(b, lambda z: g(z) * q(z))
