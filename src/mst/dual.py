"""Dual compressions on the complement of a model space.

The complement of a finite-dimensional model space inside ``L^2`` splits as
``B H^2`` plus the anti-analytic half; it is infinite dimensional, so no
matrix represents an operator on it faithfully.  Elements are explicit
rational representatives carrying a split, compressed exactly; the transport
identity is checked on a documented probe family wholly on circle samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .blaschke import (
    BlaschkeProduct,
    blaschke_gcd,
    blaschke_quotient,
    monomial_factorization,
    to_rational,
)
from .modelspace import ModelSpace, basis_samples, check_multiplier_degrees
from .operators import _numeric_rank
from .rational import (
    ComplexPoly,
    RationalFn,
    antianalytic_residual,
    circle_conjugate,
    circle_node_count,
    fourier_block,
    norm2,
    riesz_project,
    unit_circle_samples,
)

__all__ = [
    "ComplementElement",
    "DualKernel",
    "dual_apply",
    "dual_kernel",
    "dual_equivalence",
    "hankel_rank",
]

SPLIT_TOL = 1e-10
MEMBER_TOL = 1e-9


@dataclass(frozen=True)
class ComplementElement:
    """Element of the complement of a model space, as a verified split.

    ``analytic`` must lie in ``B H^2`` (analytic, orthogonal to the model
    space) and ``antianalytic`` in the strictly negative-frequency half.
    """

    theta: BlaschkeProduct
    analytic: RationalFn
    antianalytic: RationalFn

    def __post_init__(self):
        space = ModelSpace(self.theta)
        if antianalytic_residual(self.antianalytic) > SPLIT_TOL * (1.0 + norm2(self.antianalytic)):
            raise ValueError("antianalytic part has nonnegative frequencies")
        ana_split = riesz_project(self.analytic)
        if norm2(ana_split.antianalytic) > SPLIT_TOL * (1.0 + norm2(self.analytic)):
            raise ValueError("analytic part has negative frequencies")
        if norm2(space.project(self.analytic)) > MEMBER_TOL * (1.0 + norm2(self.analytic)):
            raise ValueError("analytic part is not orthogonal to the model space")

    @classmethod
    def _trusted(cls, theta, analytic, antianalytic) -> "ComplementElement":
        """An element whose split the caller built as a complement member
        by construction, so the validation is skipped."""
        element = object.__new__(cls)
        object.__setattr__(element, "theta", theta)
        object.__setattr__(element, "analytic", analytic)
        object.__setattr__(element, "antianalytic", antianalytic)
        return element

    def total(self) -> RationalFn:
        return self.analytic + self.antianalytic

    def __call__(self, z):
        return self.total()(z)


def dual_apply(
    target: ModelSpace, symbol: RationalFn, f: ComplementElement
) -> ComplementElement:
    """Apply the complement compression of ``symbol`` from the complement
    that ``f`` lives on to the complement of ``target``.

    Multiplies, removes the component in ``target``
    (:meth:`ModelSpace.complement_project`), and splits the remainder back
    into its analytic and anti-analytic halves.  The remainder is orthogonal
    to ``target``, so its halves form a complement element by construction
    and are not re-validated.  Callers build ``target`` once and reuse it.
    """
    split = riesz_project(target.complement_project(symbol * f.total()))
    return ComplementElement._trusted(target.inner, split.analytic, split.antianalytic)


@dataclass(frozen=True)
class DualKernel:
    """Kernel data for the complement compression of ``alpha * (z - 1)`` on
    the complement of the theta-space."""

    basis: tuple
    dim: int
    k: int
    gamma: BlaschkeProduct
    theta: BlaschkeProduct
    alpha: BlaschkeProduct

    def membership_defect(self) -> float:
        """Largest ``membership_residual(alpha (z - 1) e)`` in the theta-space
        and ``antianalytic_residual(e)`` over the basis elements ``e``."""
        if not self.basis:
            return 0.0
        space = ModelSpace(self.theta)
        symbol = to_rational(self.alpha) * RationalFn(ComplexPoly([-1.0, 1.0]))
        return max(
            max(space.membership_residual(symbol * e.total()), antianalytic_residual(e.total()))
            for e in self.basis
        )


def dual_kernel(theta: BlaschkeProduct, alpha: BlaschkeProduct) -> DualKernel:
    """Kernel of the complement compression of ``alpha(z) (z - 1)``.

    With ``gamma`` the common inner factor of ``theta`` and ``z * alpha``
    and ``k`` the leftover degree, the kernel has dimension
    ``max(0, n - 1 - k)`` and is spanned by explicit anti-analytic
    functions, built in closed form and not re-verified here
    (:meth:`DualKernel.membership_defect` checks them).
    """
    n = theta.degree
    if n < 1:
        raise ValueError("theta must have degree >= 1")
    z_alpha = BlaschkeProduct((0.0,) + alpha.zeros, alpha.constant)
    gamma = blaschke_gcd(theta, z_alpha)
    k = theta.degree - gamma.degree
    if n <= k + 1:
        return DualKernel((), 0, k, gamma, theta, alpha)
    theta_over_gamma = blaschke_quotient(theta, gamma)
    plus = monomial_factorization(theta).plus
    conj_plus = circle_conjugate(plus)
    theta_rat = to_rational(theta)
    # conj of the leftover numerator: prod (z - w_j) reversed on the circle
    p_leftover = RationalFn(ComplexPoly.from_roots(np.array(theta_over_gamma.zeros)))
    conj_p = circle_conjugate(p_leftover)
    alpha_bar = circle_conjugate(to_rational(alpha))
    seed = conj_plus * theta_rat * conj_p * alpha_bar * RationalFn.monomial(-2)
    basis = tuple(
        ComplementElement._trusted(theta, RationalFn.zero(), seed * RationalFn.monomial(-j))
        for j in range(n - 1 - k)
    )
    return DualKernel(basis, len(basis), k, gamma, theta, alpha)


def _outer_samples(b: BlaschkeProduct, z: np.ndarray) -> np.ndarray:
    """``prod (1 - conj(a_j) z)`` over the zeros of ``b`` at the points ``z``."""
    return np.prod(1.0 - np.conj(np.array(b.zeros))[:, None] * z, axis=0)


def dual_equivalence(
    theta: BlaschkeProduct,
    alpha: BlaschkeProduct,
    eta: BlaschkeProduct,
    gamma: BlaschkeProduct,
    symbol: RationalFn,
    probes: int = 10,
    seed: int = 0,
    _tilde_override: RationalFn = None,
) -> float:
    """Residual of the three-factor transport identity on the complements.

    With ``a1 = prod(1 - conj(eta_j) z) / prod(1 - conj(theta_j) z)`` the
    multiplier carrying the eta-space onto the theta-space and ``a2`` the
    one carrying the gamma-space onto the alpha-space, the chain

    ``compression(symbol) = compression(conj(a2)^-1) o
    compression(tilde) o compression(conj(a1))``

    with ``tilde = a2^-1 * symbol * conj(a1)^-1`` maps the theta-complement
    through the eta- and gamma-complements to the alpha-complement.  The
    returned value is the worst pointwise residual at the 32 circle points
    of ``unit_circle_samples(32)`` over the probe family.
    ``_tilde_override`` exists for negative controls.  Everything is
    sampled on ``circle_node_count`` nodes, each compression projecting with
    :func:`basis_samples`; a probe ``theta p + q / z^3`` (random ``p`` of
    degree 1, ``q`` of degree 2) is normalized by ``||p|| + ||q||``, the
    norms of its halves by Parseval.  Mismatched or zero degrees of the
    pairs (eta, theta) and (gamma, alpha) raise :class:`NoMultiplierError`.
    """
    check_multiplier_degrees(eta.degree, theta.degree)
    check_multiplier_degrees(gamma.degree, alpha.degree)
    singular = [theta.zeros, alpha.zeros, eta.zeros, gamma.zeros, symbol.poles()]
    if _tilde_override is not None:
        singular.append(_tilde_override.poles())
    m = circle_node_count(np.concatenate(singular))
    z = unit_circle_samples(m)
    e_alpha, e_eta, e_gamma = (basis_samples(b, z) for b in (alpha, eta, gamma))

    def compress(e, symbol_at, f_at):
        g = symbol_at * f_at
        return g - ((e.conj() @ g) / m) @ e

    symbol_at, theta_at = symbol(z), theta(z)
    a1_bar_at = np.conj(_outer_samples(eta, z) / _outer_samples(theta, z))
    a2_at = _outer_samples(gamma, z) / _outer_samples(alpha, z)
    tilde_at = symbol_at / (a2_at * a1_bar_at)
    if _tilde_override is not None:
        tilde_at = _tilde_override(z)
    rng = np.random.default_rng(seed)
    points = slice(None, None, m // 32)  # the nodes of unit_circle_samples(32)
    worst = 0.0
    for _ in range(probes):
        p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        scale = 1.0 / max(np.linalg.norm(p) + np.linalg.norm(q), 1e-12)
        f = scale * (theta_at * npp.polyval(z, p) + npp.polyval(z, q) / z**3)
        lhs = compress(e_alpha, symbol_at, f)
        step1 = compress(e_eta, a1_bar_at, f)
        step2 = compress(e_gamma, tilde_at, step1)
        step3 = compress(e_alpha, a2_at, step2)
        residual = float(np.max(np.abs(lhs[points] - step3[points])))
        worst = max(worst, residual)
    return worst


def hankel_rank(symbol: RationalFn, max_n: int) -> int:
    """Numerical rank of the finite Hankel section of the symbol.

    Entry ``(i, j)`` holds the Fourier coefficient at ``-i - j - 1``; the
    rank stabilizes at the number of poles inside the disk (with
    multiplicity) once the section is large enough.
    """
    if max_n < 1:
        return 0
    width = 2 * max_n - 1
    coeffs = fourier_block(symbol, width)[width - 1 :: -1]  # f(-1) .. f(-width)
    h = np.empty((max_n, max_n), dtype=complex)
    for i in range(max_n):
        h[i, :] = coeffs[i : i + max_n]
    return _numeric_rank(np.linalg.svd(h, compute_uv=False))
