"""Finite-dimensional model spaces, their bases, kernels, and multipliers.

The model space attached to a finite Blaschke product ``B`` is the
orthogonal complement of ``B * H^2`` inside the Hardy space; its dimension
equals the degree of ``B``.  A space stores its orthonormal basis, the
Takenaka-Malmquist family of partial products over the zeros in constructor
order, as coefficient arrays; ``RationalFn`` views are built on first read.
Coordinates come from the generalized backward shift: a Riesz split gives
``g_0 = P_+ f``, then ``c_k = sqrt(1 - |a_k|^2) g_k(a_k)`` and ``g_{k+1} =
P_+(conj(b_{a_k}) g_k)`` strips one zero at a time from the numerator.  A
whole compression is one pass of the same engine (``coordinates(symbol,
over=domain)``): one root solve of the symbol's denominator, the splits of
every ``symbol * e_j`` gathered into one stacked linear solve, and the
shift run on all columns at once, with no ``RationalFn`` built per column.
The shift loops over the zeros only: one table of their powers gives every
value ``g_k(a_k)`` as one row-times-matrix product and every division by
``z - a_k`` as one product by a Toeplitz matrix of powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npp

from .blaschke import BlaschkeProduct, frostman_shift, to_rational
from .rational import (
    POLE_TOL,
    CirclePoleError,
    ComplexPoly,
    RationalFn,
    _diagonals,
    _factors,
    _gap_norm,
    _pair_with_conjugate,
    _reflect,
    _split_solve,
    _trim,
    circle_conjugate,
    inner_product,
    norm2,
    sup_on_circle,
)

__all__ = [
    "ModelSpace",
    "KernelPair",
    "NoMultiplierError",
    "basis_samples",
    "reproducing_kernels",
    "multiplier_between",
    "projection_transport_defect",
    "annihilator_defect",
    "crofoot_multiplier",
    "crofoot_defect_matrix",
    "crofoot_gram_check",
    "crofoot_isometry_check",
]

MEMBERSHIP_TOL = 1e-9
#: relative bound of the zero-symbol verdict (:func:`_entries_vanish`)
ZERO_SYMBOL_TOL = 1e-10


class NoMultiplierError(ValueError):
    """No bounded invertible multiplier exists between the two spaces."""


class ModelSpace:
    """Model space of a finite Blaschke product, stored as basis coefficients.

    Attributes
    ----------
    inner : BlaschkeProduct
        The defining inner function.
    dim : int
        Degree of the inner function (0 gives the zero space).
    L : ndarray, shape (dim, dim), read-only
        Column ``k`` holds the ascending coefficients of the numerator of
        ``e_k`` over the full denominator ``prod (1 - conj(a_j) z)``, so
        ``L`` changes from the basis to the monomials ``1, z, ...``.
    basis, rational : tuple of RationalFn, RationalFn
        The orthonormal Takenaka-Malmquist functions, one per zero, and the
        inner function, as reduced quotients built on first read.
    """

    def __init__(self, inner: BlaschkeProduct):
        self.inner = inner
        n = self.dim = inner.degree
        # coefficient arrays, trimmed wherever a ComplexPoly product would be
        outers = [_trim([1.0, -np.conj(a)]) for a in inner.zeros]  # 1 - conj(a_k) z
        parts = []
        tail_num = _ONE  # prod_{j<k} (z - a_j)
        tail_den = _ONE  # prod_{j<=k} (1 - conj(a_j) z)
        for a, outer in zip(inner.zeros, outers):
            if a and 1.0 / abs(a) - 1.0 < POLE_TOL:  # the pole 1 / conj(a_k) of e_k
                raise CirclePoleError(f"pole 1/conj({a}) lies within {POLE_TOL} of the unit circle")
            weight = float(np.sqrt(1.0 - abs(a) ** 2))
            tail_den = _trim(np.convolve(tail_den, outer))
            parts.append((_trim(tail_num * weight), tail_den))
            tail_num = _trim(np.convolve(tail_num, np.array([-a, 1.0], dtype=complex)))
        # the unreduced numerator and denominator coefficients of each e_k,
        # which the compression engine multiplies into a symbol's
        self._parts = tuple(parts)
        # Every element of the space is a polynomial of degree < n over the
        # full denominator; cofactors lift each basis numerator to it.  This
        # keeps linear combinations in a single reduced fraction instead of
        # stacking near-identical factors that no longer cancel numerically.
        self._den_full = ComplexPoly(tail_den)
        self.L = np.zeros((n, n), dtype=complex)
        cofactor = _ONE  # prod_{j>k} (1 - conj(a_j) z)
        for k in range(n - 1, -1, -1):
            lifted = _trim(np.convolve(parts[k][0], cofactor))
            self.L[: lifted.size, k] = lifted
            cofactor = _trim(np.convolve(cofactor, outers[k]))
        self.L.setflags(write=False)

    @cached_property
    def basis(self) -> tuple:
        return tuple(RationalFn(num, den) for num, den in self._parts)

    @cached_property
    def rational(self) -> RationalFn:
        return to_rational(self.inner)

    def coordinates(self, f: RationalFn, over: "ModelSpace" = None, residuals: bool = False):
        """Coordinates ``<f, e_k>`` of ``P f``.  With ``over`` a domain
        space, the matrix of the compression of multiplication by ``f`` from
        ``over`` to this space instead: column ``j`` holds the coordinates of
        ``f * e_j``.  With ``residuals``, also the membership residual of
        ``f`` (of each ``f * e_j``) as a second return value.

        One engine serves both (:func:`_compress`): one root solve of ``f``'s
        denominator, one stacked Riesz split of every ``f * e_j`` and the
        generalized backward shift run on all columns at once.
        """
        parts = over._parts if over is not None else ((_ONE, _ONE),)
        coords, res = _compress(self, f, parts, residuals)
        if over is None:
            coords, res = coords[:, 0], res[0]
        return (coords, res) if residuals else coords

    def from_coordinates(self, coords) -> RationalFn:
        num = ComplexPoly()
        for k, c in enumerate(coords):
            if c != 0:
                num = num + ComplexPoly(self.L[:, k] * complex(c))
        if num.is_zero:
            return RationalFn.zero()
        return RationalFn(num, self._den_full)

    def project(self, f: RationalFn) -> RationalFn:
        return self.from_coordinates(self.coordinates(f))

    def complement_project(self, f: RationalFn) -> RationalFn:
        return f - self.project(f)

    def membership_residual(self, f: RationalFn) -> float:
        """Relative distance from ``f`` to the space."""
        return self.coordinates(f, residuals=True)[1]

    def contains(self, f: RationalFn, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.membership_residual(f) < tol

    def gram(self) -> np.ndarray:
        """The compression of the symbol ``1``: the basis is analytic, so
        the backward shift runs on it without a split."""
        return self.coordinates(RationalFn.one(), over=self)

    def same_space(self, other: "ModelSpace") -> bool:
        return self.inner.same_space(other.inner)

    def __repr__(self):
        return f"ModelSpace(degree={self.dim}, zeros={self.inner.zeros!r})"


_ONE = np.ones(1, dtype=complex)


def _columns(arrays) -> np.ndarray:
    """Coefficient arrays as the zero-padded columns of one matrix."""
    out = np.zeros((max(len(c) for c in arrays), len(arrays)), dtype=complex)
    for j, c in enumerate(arrays):
        out[: len(c), j] = c
    return out


def _backward_shift(zeros, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Coordinates of every column ``g_j = num[:, j] / den[:, j]``, analytic
    with its poles outside the closed disk, in the basis of the zeros: with
    ``c_k = sqrt(1 - |a_k|^2) g(a_k)``, the step ``g <- (g(z) (1 - conj(a_k)
    z) - (1 - |a_k|^2) g(a_k)) / (z - a_k)`` keeps each denominator.

    Written as ``-conj(a_k) g + (1 - |a_k|^2) (g - g(a_k)) / (z - a_k)``,
    the step divides only the gap ``g - g(a_k)``, so its rounding is scaled
    down with ``1 - |a_k|^2`` where ``|a_k|`` nears 1.  One table of the
    powers of every zero, built by repeated products in extended precision
    and rounded once, serves all steps: ``g(a_k)`` is one row of it times
    the numerators, and the division by ``z - a_k`` one product by the
    upper-triangular Toeplitz matrix of the powers of ``a_k``, applied once
    more to the remainder of its own result."""
    rows = max(num.shape[0], den.shape[0] - 1, 1)
    acc = np.zeros((rows, num.shape[1]), dtype=complex)
    acc[: num.shape[0]] = num
    # the power a_k**i in column rows - 1 + i, zeros to the left of the 1;
    # the products run in extended precision, so each power is rounded once
    wide = np.ones((len(zeros), rows + 1), dtype=np.clongdouble)
    wide[:, 1:] = np.array(zeros, dtype=complex)[:, None]
    powers = np.zeros((len(zeros), 2 * rows), dtype=complex)
    powers[:, rows - 1 :] = np.cumprod(wide, axis=1)
    den_at_zeros = powers[:, rows - 1 : rows - 1 + den.shape[0]] @ den
    quotients = powers[:, _diagonals(rows).T]  # entry (i, l): a_k**(l - i)
    coords = np.zeros((len(zeros), num.shape[1]), dtype=complex)
    gap = np.zeros((rows + 1, num.shape[1]), dtype=complex)
    for k, a in enumerate(zeros):
        weight2 = 1.0 - abs(a) ** 2
        value = powers[k, rows - 1 : 2 * rows - 1] @ acc / den_at_zeros[k]
        coords[k] = np.sqrt(weight2) * value
        # 1 - conj(a) z = weight2 - conj(a) (z - a); the numerator of the
        # gap g - g(a) over the column's denominator
        gap[:rows] = acc
        gap[rows] = 0.0
        gap[: den.shape[0]] -= value * den
        quotient = quotients[k] @ gap[1:]
        # what (z - a) * quotient misses of the gap, above the constant term
        rest = gap[1:] - quotient
        rest[:-1] += a * quotient[1:]
        quotient += quotients[k] @ rest
        acc = weight2 * quotient - np.conj(a) * acc
    return coords


def _compress(space: ModelSpace, f: RationalFn, parts, residuals: bool):
    """Coordinates in ``space`` of every ``f * p_j / T_j`` (``parts`` holds
    the pairs ``(p_j, T_j)`` of coefficients), one column each, and with
    ``residuals`` their membership residuals.

    One root solve splits ``f = N / (D_in D_out)``.  The poles of ``1 / T_j``
    lie outside the disk, so ``P_+ (f p_j / T_j) = W_j / (D_out T_j)`` with
    ``W_j D_in + A_j (D_out T_j) = N p_j``, solved for all ``j`` in one stack
    (:func:`rational._split_solve`) with nothing reduced; the backward shift
    then reads the coordinates off every ``W_j / (D_out T_j)`` together.  The
    residual of a column is ``sqrt(||A_j / D_in||^2 + ||W_j / (D_out T_j) - P
    f_j||^2) / (1 + ||f_j||)``, the distance measured against the
    coordinates found by the exact pairing kernel on the arrays at hand
    (:func:`rational._pair_with_conjugate`: ``D_in`` inside, ``Q_j``,
    ``D_full`` and ``D_out`` outside), so it stays independent of the
    recursion and builds no ``RationalFn``.
    """
    count = len(parts)
    coords = np.zeros((space.dim, count), dtype=complex)
    res = np.zeros(count)
    if f.is_zero or count == 0 or not (space.dim or residuals):
        return coords, res
    num, d_in, d_out = _factors(f)
    mi = len(d_in) - 1
    rhs = [np.convolve(num, p) for p, _ in parts]
    dens = [np.convolve(d_out, t) for _, t in parts]
    if mi == 0:
        nums, antis = _columns(rhs), None
    else:
        sol = _split_solve([d_in] * count, rhs, dens)
        nums, antis = sol[mi:], sol[:mi]
    if space.dim:
        coords = _backward_shift(space.inner.zeros, nums, _columns(dens))
    if residuals:
        # f_j's analytic part minus P f_j = (L c_j) / D_full is (W_j D_full
        # - Q_j L c_j) / (Q_j D_full); its norm and that of A_j / D_in are
        # one kernel call for all columns
        full = space._den_full.coeffs
        parts = []
        for j, q in enumerate(dens):
            gap = np.convolve(nums[:, j], full)
            if space.dim:
                gap = npp.polysub(gap, np.convolve(q, space.L @ coords[:, j]))
            parts.append((gap, _ONE, np.convolve(q, full)))
        if antis is not None:
            parts += [(antis[:, j], d_in, _ONE) for j in range(count)]
        r2 = np.maximum(_pair_with_conjugate(parts, [_reflect(u) for u in parts]).real, 0.0)
        r2 = r2.reshape(-1, count).sum(axis=0)
        res[:] = np.sqrt(r2) / (1.0 + np.sqrt(r2 + np.sum(np.abs(coords) ** 2, axis=0)))
    return coords, res


def basis_samples(inner: BlaschkeProduct, z) -> np.ndarray:
    """Values at the points ``z`` of the basis of the model space of
    ``inner``, one row per element, by the product recurrence ``e_k =
    sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) * prod_{j<k} b_{a_j}(z)`` over the
    zeros; no :class:`ModelSpace` is built."""
    z = np.asarray(z, dtype=complex)
    out = np.empty((inner.degree, z.size), dtype=complex)
    tail = np.ones(z.size, dtype=complex)
    for k, a in enumerate(inner.zeros):
        outer = 1.0 - np.conj(a) * z
        out[k] = np.sqrt(1.0 - abs(a) ** 2) / outer * tail
        tail = tail * (z - a) / outer
    return out


@dataclass(frozen=True)
class KernelPair:
    """Reproducing kernel and its conjugate companion at one point."""

    k: RationalFn
    k_tilde: RationalFn
    point: complex

    def reproducing_defect(self, f: RationalFn) -> float:
        """``|<f, k> - f(point)|``, zero for every ``f`` in the space."""
        return abs(inner_product(f, self.k) - complex(f(self.point)))


def reproducing_kernels(space: ModelSpace, point: complex) -> KernelPair:
    """Kernel pair at ``point``:

    ``k = (1 - conj(B(point)) B(z)) / (1 - conj(point) z)`` and
    ``k_tilde = (B(z) - B(point)) / (z - point)``.

    Boundary points are allowed: the numerators vanish where the
    denominators do and the reduction cancels the factor.
    """
    point = complex(point)
    if abs(point) > 1.0 + 1e-12:
        raise ValueError("kernel point must lie in the closed unit disk")
    theta = space.rational
    value = complex(theta(point)) if space.dim > 0 else complex(space.inner.constant)
    k = (RationalFn.one() - np.conj(value) * theta) / RationalFn(
        ComplexPoly([1.0, -np.conj(point)])
    )
    k_tilde = (theta - value) / RationalFn(ComplexPoly([-point, 1.0]))
    return KernelPair(k, k_tilde, point)


def check_multiplier_degrees(source: int, target: int):
    """Multipliers exist only between spaces of equal nonzero dimension."""
    if source != target or source == 0:
        raise NoMultiplierError(
            f"no multiplier between spaces of dimensions {source} and {target}"
        )


def multiplier_between(source: ModelSpace, target: ModelSpace) -> RationalFn:
    """Canonical invertible multiplier carrying ``source`` onto ``target``.

    Built from the outer denominators: ``a = prod(1 - conj(s_j) z) /
    prod(1 - conj(t_j) z)`` over the source and target zeros, so ``a`` and
    ``1/a`` are analytic on the closed disk and ``a(0) = 1`` pins the
    constant (multipliers are unique up to one).  Spaces of different
    dimensions admit no multiplier at all.  The range property holds by
    construction, so it is not re-checked here.
    """
    check_multiplier_degrees(source.dim, target.dim)
    return RationalFn(source._den_full, target._den_full)


def projection_transport_defect(
    source: ModelSpace, target: ModelSpace, a: RationalFn, f: RationalFn
) -> float:
    """Relative defect of the two projection identities of a multiplier
    ``a`` from ``source`` onto ``target``, applied to ``f``:
    ``P_target f = a P_source (a^-1 P_target f)`` and ``P_target f =
    P_target (conj(a)^-1 P_source (conj(a) f))``.  The larger of the two
    deviations, divided by ``1 + ||P_target f||``."""
    lhs = target.project(f)
    a_bar = circle_conjugate(a)
    forward = a * source.project(a.inverse() * lhs)
    rhs = target.project(a_bar.inverse() * source.project(a_bar * f))
    return max(_gap_norm(forward, lhs), _gap_norm(rhs, lhs)) / (1.0 + norm2(lhs))


def annihilator_defect(source: ModelSpace, a: RationalFn, g: RationalFn) -> float:
    """``||P_source (conj(a) g)|| / (1 + ||g||)``: zero when ``g`` is
    orthogonal to the target space of the multiplier ``a``, because
    ``conj(a)`` carries that annihilator into the source's.  The basis is
    orthonormal, so the projection's norm is that of its coordinates, which
    no coefficient trim rounds to 0."""
    coords = source.coordinates(circle_conjugate(a) * g)
    return float(np.linalg.norm(coords)) / (1.0 + norm2(g))


def crofoot_multiplier(space: ModelSpace, w: complex):
    """Isometric multiplier ``sqrt(1 - |w|^2) / (1 - conj(w) B)`` onto the
    model space of the shifted product.  Returns ``(J, target_space)``."""
    w = complex(w)
    if abs(w) >= 1.0:
        raise ValueError("shift parameter must lie in the open unit disk")
    factor = float(np.sqrt(1.0 - abs(w) ** 2))
    j = factor * (RationalFn.one() - np.conj(w) * space.rational).inverse()
    target = ModelSpace(frostman_shift(space.inner, w))
    return j, target


def crofoot_defect_matrix(space: ModelSpace, j: RationalFn) -> np.ndarray:
    """``G - I`` for the Gram matrix ``G`` of ``j * e_k``: minus the
    compression of ``1 - |j|^2``, zero exactly when multiplication by ``j``
    is isometric on the space.  Unlike the exact compression of that
    degree-doubled symbol, it keeps its digits when the poles of ``j`` come
    near the circle.

    Each image ``j * e_k`` is built reduced once, from ``j`` and the basis
    coefficients, and split at the circle once (:func:`rational._factors`);
    its conjugate's factors are the reflections.  All ``n^2`` pairings are
    one call of the pairing kernel, one stacked split solve
    (:func:`rational._pair_with_conjugate`): at degree ``n`` that is ``n``
    ``RationalFn`` builds and ``2n`` root solves, with no Riesz split.
    Reducing each image matters: one common denominator for all of them
    loses digits when the poles of ``j`` near the circle.
    """
    images = [_factors(RationalFn(j.num * ComplexPoly(p), j.den * ComplexPoly(t)))
              for p, t in space._parts]
    conj_images = [_reflect(v) for v in images]
    gram = _pair_with_conjugate(images * space.dim, [v for v in conj_images for _ in images])
    return gram.reshape(space.dim, space.dim) - np.eye(space.dim)


def _entries_vanish(entries: np.ndarray, symbol: RationalFn, tol: float) -> bool:
    """The zero-symbol verdict on the compressed entries of ``symbol``."""
    if entries.size == 0:
        return True
    bound = tol * (1.0 + sup_on_circle(symbol, 32))
    return float(np.max(np.abs(entries))) < bound


def crofoot_gram_check(space: ModelSpace, j: RationalFn) -> tuple:
    """``(residual, vanishes)`` from one :func:`crofoot_defect_matrix`: its
    Frobenius norm, and the zero-symbol verdict on its entries for the
    symbol ``1 - |j|^2`` at ``ZERO_SYMBOL_TOL`` (the defect matrix is minus
    the compression of that symbol)."""
    defect = crofoot_defect_matrix(space, j)

    def symbol(z):  # 1 - |j|^2, only ever sampled on the circle
        return 1.0 - np.abs(j(z)) ** 2

    return float(np.linalg.norm(defect)), _entries_vanish(defect, symbol, ZERO_SYMBOL_TOL)


def crofoot_isometry_check(b: BlaschkeProduct, h: RationalFn, k: complex) -> bool:
    """Whether the generalized Crofoot multiplier ``k / (1 - h B)`` maps the
    model space isometrically onto its image.

    The criterion is that the compression of ``1 - |J|^2`` to the model
    space vanishes; it is read entrywise from :func:`crofoot_defect_matrix`
    at ``ZERO_SYMBOL_TOL``, the bound of ``operators.is_zero_symbol``.
    Constant ``h`` with ``|k|^2 = 1 - |h|^2`` always passes; whether any
    non-constant ``h`` admits a valid ``k`` is checked per instance only,
    never answered in general.
    """
    k = complex(k)
    if k == 0:
        raise ValueError("the constant k must be nonzero")
    for p in h.poles():
        if abs(p) < 1.0:
            raise ValueError("h must be analytic on the closed disk")
    if sup_on_circle(h) >= 1.0:
        raise ValueError("h must have sup norm < 1 (sampled estimate)")
    space = ModelSpace(b)
    j = k * (RationalFn.one() - h * space.rational).inverse()
    return crofoot_gram_check(space, j)[1]
