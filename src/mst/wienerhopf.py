"""Triangular Wiener-Hopf factorization and closed-form inverses.

For the monomial inner function of degree ``n`` and a Laurent-polynomial
symbol, the two-by-two triangular matrix symbol with the conjugate monomial
and the monomial on the diagonal admits a canonical factorization exactly
when the compressed operator is invertible.  The factorization is found by
solving a linear system for the polynomial entries of the inverse analytic
factor: each entry of the product must lose its positive frequencies, and
the anti-analytic factor is pinned to the identity at infinity.  The inverse
compression is then a closed-form matrix
(:meth:`MatrixFactorization.inverse`); the system and the inverse are both
built from Toeplitz sections (:func:`_section`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct
from .modelspace import ModelSpace
from .operators import OperatorMatrix, tto_matrix
from .rational import ComplexPoly, RationalFn, _valuation, circle_gap, sup_on_circle

__all__ = [
    "MatrixFactorization",
    "NoCanonicalFactorization",
    "DegreeCapExceeded",
    "SingularOperator",
    "wiener_hopf_factorize",
    "tto_inverse_via_wh",
    "invert_direct",
]

SOLVE_GATE = 1e-10
COND_LIMIT = 1e10


class NoCanonicalFactorization(ArithmeticError):
    """No canonical factorization: the compressed operator is singular."""


class DegreeCapExceeded(ArithmeticError):
    """No factorization at the degree bound the symbol fixes, and the
    operator is not verified singular (undetermined)."""


class SingularOperator(ArithmeticError):
    """Direct inversion refused: the section is numerically singular."""


@dataclass
class MatrixFactorization:
    """Canonical factorization data for the triangular matrix symbol.

    ``g_plus_inv`` holds the polynomial entries of the inverse analytic
    factor; ``g_minus_inv`` the rational entries of the inverse
    anti-analytic factor, normalized to the identity at infinity.
    """

    n: int
    phi: RationalFn
    g_plus_inv: list
    g_minus: list
    g_minus_inv: list
    det: complex
    residual: float
    degree_bound: int

    def recombination_defect(self) -> float:
        """Largest :func:`circle_gap` of ``G_minus @ G_plus`` from the symbol
        matrix ``[[conj(z)^n, 0], [phi, z^n]]`` over its four entries, with
        ``G_plus`` the adjugate of ``g_plus_inv`` over its determinant."""
        inv_det = 1.0 / self.det
        p = self.g_plus_inv
        g_plus = [
            [RationalFn(p[1][1]) * inv_det, RationalFn(-p[0][1]) * inv_det],
            [RationalFn(-p[1][0]) * inv_det, RationalFn(p[0][0]) * inv_det],
        ]
        g = [
            [RationalFn.monomial(-self.n), RationalFn.zero()],
            [self.phi, RationalFn.monomial(self.n)],
        ]
        return max(
            circle_gap(lambda z: sum(self.g_minus[i][k](z) * g_plus[k][j](z) for k in range(2)),
                       g[i][j])
            for i in range(2)
            for j in range(2)
        )

    def inverse(self) -> np.ndarray:
        """The ``n`` x ``n`` matrix of the inverse compression on the
        monomial basis, in closed form from ``g_plus_inv``.

        An analytic ``p`` maps ``z**n H^2`` into itself, so ``P_K p P_+ = P_K
        p P_K`` and the inverse ``P_K (p11 P_+ m12 + p12 P_+ m22)``, with
        ``m12 = -zbar**n p12 / det`` and ``m22 = zbar**n p11 / det``, is
        ``(L(p12) U(p11) - L(p11) U(p12)) / det`` for the sections ``L(p)``
        of multiplication by ``p`` and ``U(q)`` by ``zbar**n q``
        (Gohberg-Semencul form).
        """
        n, ((p11, p12), _) = self.n, self.g_plus_inv
        l11, l12 = (_section(p.coeffs, 0, n, n) for p in (p11, p12))
        u11, u12 = (_section(p.coeffs, -n, n, n) for p in (p11, p12))
        return (l12 @ u11 - l11 @ u12) / self.det

    def inverse_column_defects(self, direct: OperatorMatrix) -> np.ndarray:
        """Per column, the largest deviation of :meth:`inverse` from
        ``direct``, the dense inverse from :func:`invert_direct`."""
        return np.max(np.abs(self.inverse() - direct.entries), axis=0)


def _laurent_data(phi: RationalFn):
    """Coefficients and offset of a Laurent polynomial: the denominator
    must be a monomial (:func:`~mst.rational._valuation` equal to its
    degree), so any pole off the origin is rejected."""
    m = phi.den.degree
    if _valuation(phi.den) != m:
        raise ValueError("symbol must be a Laurent polynomial (poles only at the origin)")
    return np.asarray(phi.num.coeffs, dtype=complex), -m


def _section(coeffs, lo: int, rows: int, cols: int) -> np.ndarray:
    """The ``rows`` x ``cols`` section of multiplication by ``sum_k
    coeffs[k] z**(k + lo)`` on ascending coefficients: entry ``(i, j)`` is
    the coefficient of ``z**(i - j)``."""
    k = np.arange(rows)[:, None] - np.arange(cols) - lo
    inside = (k >= 0) & (k < len(coeffs))
    out = np.zeros((rows, cols), dtype=complex)
    out[inside] = np.asarray(coeffs, dtype=complex)[k[inside]]
    return out


def _system(n: int, coeffs: np.ndarray, lo: int, bound: int):
    """The frequency-constraint system at one degree bound, in the unknowns
    ``p11, p12, p21, p22`` of degree at most ``bound``.

    The pins put ``zbar**n p11 = 1`` and ``zbar**n p12 = 0`` at the
    nonnegative frequencies; the lower row asks ``phi p11 + z**n p21`` and
    ``phi p12 + z**n p22 - 1`` to lose them.  Rows that constrain nothing
    are dropped.
    """
    width = bound + 1
    t_max = max(lo + len(coeffs) - 1, n) + bound
    pin, o = np.eye(width)[n:], np.zeros((bound - n + 1, width))
    conv, shift = _section(coeffs, lo, t_max + 1, width), _section([1.0], n, t_max + 1, width)
    z = np.zeros_like(conv)
    matrix = np.block([[pin, o, o, o], [o, pin, o, o], [conv, z, shift, z], [z, conv, z, shift]])
    vector = np.zeros(len(matrix), dtype=complex)
    vector[[0, len(matrix) - t_max - 1]] = 1.0
    keep = matrix.any(axis=1) | (vector != 0)
    return matrix[keep], vector[keep]


def _try_degree(n: int, coeffs: np.ndarray, lo: int, bound: int):
    """Solve the :func:`_system` at one degree bound.

    Returns the four polynomial entries and the solve residual, or ``None``
    when the least-squares residual exceeds the gate.
    """
    matrix, vector = _system(n, coeffs, lo, bound)
    solution, *_ = np.linalg.lstsq(matrix, vector, rcond=None)
    residual = float(np.max(np.abs(matrix @ solution - vector)))
    scale = 1.0 + float(np.max(np.abs(coeffs))) if coeffs.size else 1.0
    if residual > SOLVE_GATE * scale:
        return None
    return [ComplexPoly(part) for part in np.split(solution, 4)], residual


def wiener_hopf_factorize(n: int, phi: RationalFn) -> MatrixFactorization:
    """Canonical factorization of the triangular symbol for degree ``n``.

    Solves once, at the degree bound ``max(n, top power of phi)``: ``p11``
    is monic of degree ``n`` and ``p21`` carries the top power of ``phi``,
    so no other bound is consistent.  The solve must also produce a
    constant nonzero determinant for the analytic factor.  Otherwise the
    direct compressed matrix decides the verdict: verified singularity
    raises :class:`NoCanonicalFactorization`, anything else
    :class:`DegreeCapExceeded` (undetermined).
    """
    if n < 1:
        raise ValueError("the monomial degree must be at least 1")
    coeffs, lo = _laurent_data(phi)
    bound = max(n, lo + len(coeffs) - 1)
    attempt = _try_degree(n, coeffs, lo, bound)
    if attempt is not None:
        parts, residual = attempt
        p11, p12, p21, p22 = parts
        det = p11 * p22 - p12 * p21
        det0 = complex(det(0.0)) if not det.is_zero else 0.0
        tail = det - ComplexPoly([det0])
        tail_norm = float(np.max(np.abs(tail.coeffs))) if not tail.is_zero else 0.0
        if not (abs(det0) < 1e-8 or tail_norm > 1e-8 * max(1.0, abs(det0))):
            return _assemble(n, phi, parts, det0, residual, bound)
    try:
        invert_direct(n, phi)
    except SingularOperator:
        raise NoCanonicalFactorization(
            "no canonical factorization: the compressed operator is singular"
        ) from None
    raise DegreeCapExceeded(f"no factorization at the degree bound {bound}; result undetermined")


def _assemble(n, phi, parts, det0, residual, bound) -> MatrixFactorization:
    p11, p12, p21, p22 = (RationalFn(p) for p in parts)
    zbar_n = RationalFn.monomial(-n)
    z_n = RationalFn.monomial(n)
    g_minus = [
        [zbar_n * p11, zbar_n * p12],
        [phi * p11 + z_n * p21, phi * p12 + z_n * p22],
    ]
    inv_det = 1.0 / det0
    g_minus_inv = [
        [g_minus[1][1] * inv_det, -g_minus[0][1] * inv_det],
        [-g_minus[1][0] * inv_det, g_minus[0][0] * inv_det],
    ]
    return MatrixFactorization(
        n=n,
        phi=phi,
        g_plus_inv=[[parts[0], parts[1]], [parts[2], parts[3]]],
        g_minus=g_minus,
        g_minus_inv=g_minus_inv,
        det=det0,
        residual=residual,
        degree_bound=bound,
    )


def tto_inverse_via_wh(factorization: MatrixFactorization, f: RationalFn) -> RationalFn:
    """The closed-form inverse (:meth:`MatrixFactorization.inverse`) applied
    to the coefficients of one element.

    ``f`` must lie in the monomial model space of the factorization's
    degree ``n`` (a polynomial of degree below ``n``).  The result ``g``
    satisfies ``compression(phi) g = f`` up to the module tolerance.
    """
    n = factorization.n
    if f.den.degree != 0 or (not f.is_zero and f.num.degree >= n):
        raise ValueError("right-hand side must be a polynomial of degree below n")
    rhs = np.zeros(n, dtype=complex)
    rhs[: len(f.num.coeffs)] = f.num.coeffs / f.den.coeffs[0]
    return RationalFn(ComplexPoly(factorization.inverse() @ rhs))


def invert_direct(n: int, phi: RationalFn) -> OperatorMatrix:
    """Direct dense inverse of the compressed operator (the oracle).

    The section is singular when its smallest singular value is at most
    ``sup |phi| / COND_LIMIT``: its norm is at most ``sup |phi|``, so this
    refuses every section of condition number beyond ``COND_LIMIT``, and it
    also refuses a section that reads a rounding-level value where the exact
    one is 0, whatever its condition number.  The larger of the sampled
    ``sup |phi|`` and the largest singular value stands for ``sup |phi|``.
    """
    space = ModelSpace(BlaschkeProduct((0.0,) * n))
    matrix = tto_matrix(space, space, phi)
    sigma = np.linalg.svd(matrix.entries, compute_uv=False)
    floor = max(sigma[0], sup_on_circle(phi)) / COND_LIMIT
    if not np.all(np.isfinite(sigma)) or sigma[-1] <= floor:
        raise SingularOperator(
            f"smallest singular value {sigma[-1]:.3e} at most sup|phi| / {COND_LIMIT:.0e}"
        )
    return OperatorMatrix(np.linalg.inv(matrix.entries), space, space)
