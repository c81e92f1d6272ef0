"""Finite-dimensional model spaces, their bases, kernels, and multipliers.

The model space attached to a finite Blaschke product ``B`` is the
orthogonal complement of ``B * H^2`` inside the Hardy space; its dimension
equals the degree of ``B``.  The cached orthonormal basis is the
Takenaka-Malmquist family built from partial products over the zeros in
constructor order, so every basis element is an explicit rational function.
Coordinates come from the generalized backward shift: one Riesz split gives
``g_0 = P_+ f``, then ``c_k = sqrt(1 - |a_k|^2) g_k(a_k)`` and ``g_{k+1} =
P_+(conj(b_{a_k}) g_k)`` strips one zero at a time from the numerator, so a
projection costs one split instead of one exact pairing per basis element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .blaschke import BlaschkeProduct, _denominator_poly, frostman_shift, to_rational
from .rational import (
    ComplexPoly,
    RationalFn,
    _deflate,
    _pair_with_conjugate,
    circle_conjugate,
    inner_product,
    norm2,
    riesz_project,
    sup_on_circle,
)

__all__ = [
    "ModelSpace",
    "KernelPair",
    "NoMultiplierError",
    "build_space",
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
    """Model space of a finite Blaschke product with its cached basis.

    Attributes
    ----------
    inner : BlaschkeProduct
        The defining inner function.
    basis : tuple of RationalFn
        Orthonormal Takenaka-Malmquist functions, one per zero.
    dim : int
        Degree of the inner function (0 gives the zero space).
    L : ndarray, shape (dim, dim)
        Column ``k`` holds the ascending coefficients of the numerator of
        ``e_k`` over the full denominator ``prod (1 - conj(a_j) z)``, so
        ``L`` changes from the basis to the monomials ``1, z, ...``.
    """

    def __init__(self, inner: BlaschkeProduct):
        self.inner = inner
        self.rational = to_rational(inner)
        n = inner.degree
        factors = [ComplexPoly([1.0, -np.conj(a)]) for a in inner.zeros]
        basis = []
        tm_nums = []
        tail_num = ComplexPoly([1.0])  # prod_{j<k} (z - a_j)
        tail_den = ComplexPoly([1.0])  # prod_{j<=k} (1 - conj(a_j) z)
        for k, a in enumerate(inner.zeros):
            weight = float(np.sqrt(1.0 - abs(a) ** 2))
            tail_den = tail_den * factors[k]
            tm_nums.append(tail_num.scaled(weight))
            basis.append(RationalFn(tm_nums[-1], tail_den))
            tail_num = tail_num * ComplexPoly([-a, 1.0])
        self.basis = tuple(basis)
        self.dim = n
        # Every element of the space is a polynomial of degree < n over the
        # full denominator; cofactors lift each basis numerator to it.  This
        # keeps linear combinations in a single reduced fraction instead of
        # stacking near-identical factors that no longer cancel numerically.
        self._den_full = tail_den
        self.L = np.zeros((n, n), dtype=complex)
        cofactor = ComplexPoly([1.0])  # prod_{j>k} (1 - conj(a_j) z)
        for k in range(n - 1, -1, -1):
            lifted = (tm_nums[k] * cofactor).coeffs
            self.L[: lifted.size, k] = lifted
            cofactor = cofactor * factors[k]

    def basis_samples(self, z) -> np.ndarray:
        """Basis values at the points ``z``, one row per element, by the
        product recurrence ``e_k = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) *
        prod_{j<k} b_{a_j}(z)`` rather than the coefficient polynomials."""
        z = np.asarray(z, dtype=complex)
        out = np.empty((self.dim, z.size), dtype=complex)
        tail = np.ones(z.size, dtype=complex)
        for k, a in enumerate(self.inner.zeros):
            outer = 1.0 - np.conj(a) * z
            out[k] = np.sqrt(1.0 - abs(a) ** 2) / outer * tail
            tail = tail * (z - a) / outer
        return out

    def coordinates(self, f: RationalFn) -> np.ndarray:
        """Coordinates ``<f, e_k>`` of ``P f``, by the generalized backward
        shift: one Riesz split of ``f``, then one deflation per zero.

        With ``g_0 = P_+ f``, ``c_k = sqrt(1 - |a_k|^2) g_k(a_k)`` and
        ``g_{k+1} = P_+(conj(b_{a_k}) g_k) = (g_k(z) (1 - conj(a_k) z) -
        (1 - |a_k|^2) g_k(a_k)) / (z - a_k)``.  Every ``g_k`` keeps the
        outside-pole denominator of ``g_0``, so a step only updates the
        numerator and divides it by ``z - a_k`` (``rational._deflate``).
        """
        coords = np.zeros(self.dim, dtype=complex)
        g = riesz_project(f).analytic if self.dim else RationalFn.zero()
        if g.is_zero:
            return coords
        num, den = g.num.coeffs, g.den.coeffs
        den_at_zeros = npp.polyval(np.array(self.inner.zeros, dtype=complex), den)
        for k, a in enumerate(self.inner.zeros):
            weight2 = 1.0 - abs(a) ** 2
            value = npp.polyval(a, num) / den_at_zeros[k]
            coords[k] = np.sqrt(weight2) * value
            step = np.zeros(max(len(num) + 1, len(den)), dtype=complex)
            step[: len(num)] += num
            step[1 : len(num) + 1] -= np.conj(a) * num
            step[: len(den)] -= (weight2 * value) * den
            num = _deflate(step, a)
        return coords

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

    def _coordinates_and_residual(self, f: RationalFn):
        """``coordinates(f)`` and ``membership_residual(f)`` from one
        coordinate pass."""
        coords = self.coordinates(f)
        return coords, norm2(f - self.from_coordinates(coords)) / (1.0 + norm2(f))

    def membership_residual(self, f: RationalFn) -> float:
        """Relative distance from ``f`` to the space."""
        return self._coordinates_and_residual(f)[1]

    def contains(self, f: RationalFn, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.membership_residual(f) < tol

    def gram(self) -> np.ndarray:
        n = self.dim
        g = np.zeros((n, n), dtype=complex)
        for j, e in enumerate(self.basis):
            g[:, j] = self.coordinates(e)
        return g

    def same_space(self, other: "ModelSpace") -> bool:
        return self.inner.same_space(other.inner)

    def __repr__(self):
        return f"ModelSpace(degree={self.dim}, zeros={self.inner.zeros!r})"


def build_space(b: BlaschkeProduct) -> ModelSpace:
    return ModelSpace(b)


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


def multiplier_between(source: ModelSpace, target: ModelSpace) -> RationalFn:
    """Canonical invertible multiplier carrying ``source`` onto ``target``.

    Built from the outer denominators: ``a = prod(1 - conj(s_j) z) /
    prod(1 - conj(t_j) z)`` over the source and target zeros, so ``a`` and
    ``1/a`` are analytic on the closed disk and ``a(0) = 1`` pins the
    constant (multipliers are unique up to one).  Spaces of different
    dimensions admit no multiplier at all.  The range property holds by
    construction, so it is not re-checked here.
    """
    if source.dim != target.dim or source.dim == 0:
        raise NoMultiplierError(
            f"no multiplier between spaces of dimensions {source.dim} and {target.dim}"
        )
    return RationalFn(
        _denominator_poly(source.inner.zeros), _denominator_poly(target.inner.zeros)
    )


def projection_transport_defect(
    source: ModelSpace, target: ModelSpace, a: RationalFn, f: RationalFn
) -> float:
    """Relative defect of the two projection identities of a multiplier
    ``a`` from ``source`` onto ``target``, applied to ``f``:
    ``P_target f = a P_source (a^-1 P_target f)`` and ``P_target f =
    P_target (conj(a)^-1 P_source (conj(a) f))``.  The larger of the two
    deviations, divided by ``1 + ||P_target f||``."""
    lhs = target.project(f)
    scale = 1.0 + norm2(lhs)
    a_bar = circle_conjugate(a)
    forward = norm2(a * source.project(a.inverse() * lhs) - lhs) / scale
    rhs = target.project(a_bar.inverse() * source.project(a_bar * f))
    return max(forward, norm2(rhs - lhs) / scale)


def annihilator_defect(source: ModelSpace, a: RationalFn, g: RationalFn) -> float:
    """``||P_source (conj(a) g)|| / (1 + ||g||)``: zero when ``g`` is
    orthogonal to the target space of the multiplier ``a``, because
    ``conj(a)`` carries that annihilator into the source's."""
    return norm2(source.project(circle_conjugate(a) * g)) / (1.0 + norm2(g))


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
    near the circle."""
    images = [j * e for e in space.basis]
    conj_images = [circle_conjugate(v) for v in images]
    gram = np.array([[_pair_with_conjugate(u, vb) for vb in conj_images] for u in images]).T
    return gram - np.eye(space.dim)


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
    symbol = RationalFn.one() - j * circle_conjugate(j)
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
