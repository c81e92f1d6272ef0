"""Triangular Wiener-Hopf factorization and closed-form inverses.

For the monomial inner function of degree ``n`` and a Laurent-polynomial
symbol, the two-by-two triangular matrix symbol with the conjugate monomial
and the monomial on the diagonal admits a canonical factorization exactly
when the compressed operator is invertible.  The factorization is found by
solving a linear system for the polynomial entries of the inverse analytic
factor: each entry of the product must lose its positive frequencies, and
the anti-analytic factor is pinned to the identity at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct
from .modelspace import ModelSpace
from .operators import OperatorMatrix, tto_matrix
from .rational import ComplexPoly, RationalFn, _valuation, riesz_project, unit_circle_samples

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
    """The degree-bound search hit its cap without a verdict (undetermined)."""


class SingularOperator(ArithmeticError):
    """Direct inversion refused: condition number beyond the trust limit."""


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
        """Largest deviation of ``G_minus @ G_plus`` from the symbol matrix
        ``[[conj(z)^n, 0], [phi, z^n]]`` over 32 circle points, with
        ``G_plus`` the adjugate of ``g_plus_inv`` over its determinant."""
        zs = unit_circle_samples(32)
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
        worst = 0.0
        for i in range(2):
            for j in range(2):
                val = sum(self.g_minus[i][k](zs) * g_plus[k][j](zs) for k in range(2))
                worst = max(worst, float(np.max(np.abs(val - g[i][j](zs)))))
        return worst

    def inverse_column_defects(self, direct: OperatorMatrix) -> np.ndarray:
        """Per column ``j``, the largest deviation of the coordinates of the
        formula inverse applied to ``z**j`` from column ``j`` of ``direct``,
        the dense inverse from :func:`invert_direct`.  The formula projects
        in ``direct.domain``."""
        space = direct.domain
        defects = np.zeros(self.n)
        for j in range(self.n):
            coords = space.coordinates(_apply_inverse(space, self, RationalFn.monomial(j)))
            defects[j] = np.max(np.abs(coords - direct.entries[:, j]))
        return defects


def _as_symbol(phi) -> RationalFn:
    """A scalar, ``ComplexPoly`` or ``RationalFn`` symbol as a ``RationalFn``."""
    if isinstance(phi, RationalFn):
        return phi
    return RationalFn(phi if isinstance(phi, ComplexPoly) else ComplexPoly([phi]))


def _laurent_data(phi: RationalFn):
    """Coefficients and offset of a Laurent polynomial; rejects true poles."""
    for r in phi.den.roots():
        if abs(r) > 1e-8:
            raise ValueError("symbol must be a Laurent polynomial (poles only at the origin)")
    m = phi.den.degree
    coeffs = np.asarray(phi.num.coeffs, dtype=complex)
    return coeffs, -m


def _try_degree(n: int, coeffs: np.ndarray, lo: int, bound: int):
    """Assemble and solve the frequency-constraint system at one degree bound.

    Returns the four polynomial entries and the solve residual, or ``None``
    when the least-squares residual exceeds the gate.
    """
    width = bound + 1
    hi = lo + len(coeffs) - 1

    def p_index(which: int, power: int) -> int:
        return which * width + power

    rows = []
    rhs = []

    def add_row(entries, value):
        row = np.zeros(4 * width, dtype=complex)
        for idx, c in entries:
            row[idx] += c
        rows.append(row)
        rhs.append(value)

    # diagonal conjugate-monomial entries: coefficient at power t is p[t+n]
    for which, target in ((0, 1.0), (1, 0.0)):
        for t in range(0, bound - n + 1):
            add_row([(p_index(which, t + n), 1.0)], target if t == 0 else 0.0)
    # lower row: phi * p1x + z^n * p2x, nonpositive content with pinned value
    for which_top, which_bottom, target in ((0, 2, 0.0), (1, 3, 1.0)):
        t_max = max(hi, n) + bound
        for t in range(0, t_max + 1):
            entries = []
            for j, c in enumerate(coeffs):
                power = t - (lo + j)
                if 0 <= power <= bound and c != 0:
                    entries.append((p_index(which_top, power), c))
            if 0 <= t - n <= bound:
                entries.append((p_index(which_bottom, t - n), 1.0))
            if not entries and (t > 0 or target == 0.0):
                continue
            add_row(entries, target if t == 0 else 0.0)

    matrix = np.vstack(rows)
    vector = np.asarray(rhs, dtype=complex)
    solution, *_ = np.linalg.lstsq(matrix, vector, rcond=None)
    residual = float(np.max(np.abs(matrix @ solution - vector)))
    scale = 1.0 + float(np.max(np.abs(coeffs))) if coeffs.size else 1.0
    if residual > SOLVE_GATE * scale:
        return None
    parts = [ComplexPoly(solution[k * width : (k + 1) * width]) for k in range(4)]
    return parts, residual


def wiener_hopf_factorize(n: int, phi) -> MatrixFactorization:
    """Canonical factorization of the triangular symbol for degree ``n``.

    Searches degree bounds upward from ``n``.  A successful solve must also
    produce a constant nonzero determinant for the analytic factor.  If the
    cap is reached, the direct compressed matrix decides the verdict:
    verified singularity raises :class:`NoCanonicalFactorization`, anything
    else :class:`DegreeCapExceeded` (undetermined).
    """
    if n < 1:
        raise ValueError("the monomial degree must be at least 1")
    phi = _as_symbol(phi)
    coeffs, lo = _laurent_data(phi)
    if coeffs.size:
        width = len(coeffs) - 1 - _valuation(phi.num)
    else:
        width = 0
    cap = n + 2 * width + 4
    for bound in range(n, cap + 1):
        attempt = _try_degree(n, coeffs, lo, bound)
        if attempt is None:
            continue
        parts, residual = attempt
        p11, p12, p21, p22 = parts
        det = p11 * p22 - p12 * p21
        det0 = complex(det(0.0)) if not det.is_zero else 0.0
        tail = det - ComplexPoly([det0])
        tail_norm = float(np.max(np.abs(tail.coeffs))) if not tail.is_zero else 0.0
        if abs(det0) < 1e-8 or tail_norm > 1e-8 * max(1.0, abs(det0)):
            continue
        return _assemble(n, phi, parts, det0, residual, bound)
    try:
        invert_direct(n, phi)
    except SingularOperator:
        raise NoCanonicalFactorization(
            "no canonical factorization: the compressed operator is singular"
        ) from None
    raise DegreeCapExceeded(
        f"no factorization found up to the degree cap {cap}; result undetermined"
    )


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


def tto_inverse_via_wh(
    n: int, phi, f: RationalFn, factorization: MatrixFactorization = None
) -> RationalFn:
    """Apply the factorization-based inverse formula to one element.

    ``f`` must lie in the monomial model space (a polynomial of degree
    below ``n``).  The result ``g`` satisfies ``compression(phi) g = f`` up
    to the module tolerance.  A ``factorization`` passed in must be the one
    of ``n`` and ``phi``; any other raises ``ValueError``.
    """
    if factorization is None:
        factorization = wiener_hopf_factorize(n, phi)
    elif factorization.n != n or not factorization.phi.isclose(_as_symbol(phi)):
        raise ValueError("the factorization belongs to a different degree or symbol")
    if f.den.degree != 0 or (not f.is_zero and f.num.degree >= n):
        raise ValueError("right-hand side must be a polynomial of degree below n")
    return _apply_inverse(ModelSpace(BlaschkeProduct((0.0,) * n)), factorization, f)


def _apply_inverse(space: ModelSpace, factorization: MatrixFactorization, f: RationalFn):
    """The inverse formula on ``f``, projected in ``space``, the monomial
    model space of degree ``factorization.n``."""
    g11_plus = RationalFn(factorization.g_plus_inv[0][0])
    g12_plus = RationalFn(factorization.g_plus_inv[0][1])
    g12_minus = factorization.g_minus_inv[0][1]
    g22_minus = factorization.g_minus_inv[1][1]
    term1 = g11_plus * riesz_project(g12_minus * f).analytic
    term2 = g12_plus * riesz_project(g22_minus * f).analytic
    return space.project(term1 + term2)


def invert_direct(n: int, phi) -> OperatorMatrix:
    """Direct dense inverse of the compressed operator (the oracle)."""
    phi = _as_symbol(phi)
    space = ModelSpace(BlaschkeProduct((0.0,) * n))
    matrix = tto_matrix(space, space, phi)
    cond = np.linalg.cond(matrix.entries)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularOperator(f"condition number {cond:.3e} beyond the trust limit")
    return OperatorMatrix(np.linalg.inv(matrix.entries), space, space)
