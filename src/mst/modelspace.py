"""Finite-dimensional model spaces, their bases, kernels, and multipliers.

The model space attached to a finite Blaschke product ``B`` is the
orthogonal complement of ``B * H^2`` inside the Hardy space; its dimension
equals the degree of ``B``.  A space stores its orthonormal basis, the
Takenaka-Malmquist family of partial products over the zeros in constructor
order, as coefficient arrays; ``RationalFn`` views are built on first read.
Coordinates, compressions, membership residuals, Gram matrices and the
Crofoot defect matrix all come from one exact quadrature, the Clark rule
(:func:`_clark_rule`): for a finite Blaschke product ``Theta`` with
``Theta(0) = 0`` and a unimodular ``lambda``, the points where ``Theta =
lambda``, weighted by ``1 / |Theta'|``, integrate ``f * conj(g)`` exactly for
every ``f, g`` in the model space of ``Theta`` (Clark, J. Analyse Math.
1972; Garcia, Mashreghi & Ross, *Introduction to Model Spaces and their
Operators*, 2016, ch. 11).  A compression picks ``Theta`` to hold both
spaces' zeros and the poles of the symbol (:func:`_symbol_zeros`, one root
solve), then is one weighted product of basis samples at the nodes; no
``RationalFn`` is built per column and nothing is split.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blaschke import BlaschkeProduct, frostman_shift, to_rational
from .rational import (
    POLE_TOL,
    CirclePoleError,
    ComplexPoly,
    RationalFn,
    _gap_norm,
    _pair_with_conjugate,  # unused here; perfbench/selftest.py reads it from this module
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
        # from which ``basis`` builds its reduced quotients
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

        Every pairing is exact on the Clark rule of ``Theta = z * theta *
        domain * symbol``, with multiplicity: this space's zeros, the
        domain's, and the zeros :func:`_symbol_zeros` takes from ``f``'s one
        root solve.  With ``E`` and ``E_dom`` the basis samples at the nodes
        and ``w`` the weights, the coordinates are ``(conj(E) * w) @ (f *
        E_dom)^T``.  The residual of a column is the sampled gap ``r^2 =
        sum w |f_j - sum_k c_k e_k|^2``, also exact, over ``1 + sqrt(r^2 +
        sum |c_k|^2)``, the norm of ``f_j``.
        """
        count = 1 if over is None else over.dim
        coords = np.zeros((self.dim, count), dtype=complex)
        res = np.zeros(count)
        if not f.is_zero and count and (self.dim or residuals):
            domain = () if over is None else over.inner.zeros
            zeros = np.concatenate((self.inner.zeros, domain, _symbol_zeros(f)))
            nodes, weights = _clark_rule(zeros, 1.0)
            images = np.atleast_2d(
                f(nodes) * (1.0 if over is None else basis_samples(over.inner, nodes)))
            e = basis_samples(self.inner, nodes)
            coords = (np.conj(e) * weights) @ images.T
            if residuals:
                r2 = np.abs(images - coords.T @ e) ** 2 @ weights
                res = np.sqrt(r2) / (1.0 + np.sqrt(r2 + np.sum(np.abs(coords) ** 2, axis=0)))
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
        """The compression of the symbol ``1``: the basis Gram matrix on the
        Clark rule, so its distance from the identity is the rule's error."""
        return self.coordinates(RationalFn.one(), over=self)

    def same_space(self, other: "ModelSpace") -> bool:
        return self.inner.same_space(other.inner)

    def __repr__(self):
        return f"ModelSpace(degree={self.dim}, zeros={self.inner.zeros!r})"


_ONE = np.ones(1, dtype=complex)


def _clark_rule(zeros, phase: complex):
    """Nodes and weights of the Clark rule of ``Theta = z prod b_a`` over
    ``zeros`` (with multiplicity) at the unimodular ``phase``: the points
    ``zeta`` on the circle with ``Theta(zeta) = phase`` and the weights ``1 /
    |Theta'(zeta)|``.  For all ``f, g`` in the model space of ``Theta``,
    ``sum_m w_m f(zeta_m) conj(g(zeta_m))`` is ``<f, g>`` exactly.

    The nodes are the eigenvalues of the Clark unitary ``S + phase e_0 c^H``
    in the Takenaka-Malmquist basis of ``a = (0, zeros)``, projected onto the
    circle.  The compressed shift ``S`` is lower triangular, with ``S[j, j]
    = a_j`` and ``S[i, j] = w_i w_j prod_{j<k<i} (-conj(a_k))`` for ``w =
    sqrt(1 - |a|^2)``, and ``c_k = w_k prod_{j>k} (-a_j)``.  The weights are
    ``1 / sum_a (1 - |a|^2) / |zeta - a|^2``, a sum of positive terms.
    """
    a = np.concatenate(([0.0], np.asarray(zeros, dtype=complex)))
    w = np.sqrt(1.0 - np.abs(a) ** 2)
    steps = np.arange(a.size)
    # row i > j + 1 of column j multiplies in -conj(a_{i-1})
    factors = np.where(steps[:, None] > steps + 1, -np.conj(np.roll(a, 1))[:, None], 1.0)
    u = np.tril(np.cumprod(factors, axis=0), -1) * np.outer(w, w) + np.diag(a)
    tails = np.append(np.cumprod(-a[:0:-1])[::-1], 1.0)  # prod_{j>k} (-a_j)
    u[0] += phase * np.conj(w * tails)
    nodes = np.linalg.eigvals(u)
    nodes /= np.abs(nodes)
    weights = 1.0 / ((1.0 - np.abs(a) ** 2) @ np.abs(nodes - a[:, None]) ** -2)
    return nodes, weights


def _symbol_zeros(f: RationalFn) -> np.ndarray:
    """The zeros a symbol ``f`` adds to a Clark rule's ``Theta``, all from
    one root solve of its denominator: ``max(0, deg num - deg den)`` at the
    origin, the poles inside the disk and the reflections ``1 / conj(p)`` of
    those outside.  With them, ``f`` times an element of a model space
    whose zeros ``Theta`` holds splits into an element of the model space of
    ``Theta`` and the conjugate of ``z`` times another."""
    poles = f.poles()
    outside = np.abs(poles) >= 1.0
    excess = max(0, f.num.degree - f.den.degree)
    return np.concatenate((np.zeros(excess), poles[~outside], 1.0 / np.conj(poles[outside])))


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
    is isometric on the space.

    Every image ``j * e_k`` lies in the model space of ``z`` times the
    space's inner function and the Blaschke factors of ``j``'s poles
    (:func:`_symbol_zeros`), so ``G`` is exact on that product's Clark rule:
    one root solve of ``j``'s denominator, basis samples times ``j`` at the
    nodes, and no ``RationalFn`` built.
    """
    nodes, weights = _clark_rule(np.concatenate((space.inner.zeros, _symbol_zeros(j))), 1.0)
    images = j(nodes) * basis_samples(space.inner, nodes)
    return (np.conj(images) * weights) @ images.T - np.eye(space.dim)


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
