"""Matrix realizations of truncated Toeplitz operators and their
equivalences, conjugations, and rank-based normal forms.

Operators are stored as dense matrices in the orthonormal bases of their
domain and codomain model spaces, so operator identities become matrix
identities with quantified residuals.  Entry ``(i, j)`` is always the
pairing of the operator applied to the ``j``-th domain basis element
against the ``i``-th codomain basis element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct
from .modelspace import (
    MEMBERSHIP_TOL,
    ZERO_SYMBOL_TOL,
    ModelSpace,
    _clark_rule,
    _entries_vanish,
    basis_samples,
    multiplier_between,
)
from .rational import RationalFn, circle_conjugate

__all__ = [
    "OperatorMatrix",
    "ConjugationMatrix",
    "MultiplierRangeViolation",
    "NotEquivalentError",
    "EquivalenceTransform",
    "BrownHalmosCheck",
    "tto_matrix",
    "multiplication_matrix",
    "multiplier_inverse_defect",
    "is_zero_symbol",
    "equivalence_transform",
    "transport_spaces",
    "brown_halmos_product",
    "conjugation_matrix",
    "selfadjoint_residual",
    "is_complex_selfadjoint",
    "conjugation_pullback",
    "pullback_compatibility_defect",
    "rank_equivalence",
    "kernel_and_range",
    "subspace_angle",
    "unitarity_defect",
]

RANK_TOL = 1e-10


class MultiplierRangeViolation(ValueError):
    """The multiplier pushes some domain basis element outside the codomain."""


class NotEquivalentError(ValueError):
    """The two matrices have different ranks, so no equivalence exists."""


@dataclass
class OperatorMatrix:
    """Dense matrix tagged with its domain and codomain model spaces."""

    entries: np.ndarray
    domain: ModelSpace
    codomain: ModelSpace

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        if not self.domain.same_space(other.codomain):
            raise ValueError("composition mismatch: inner spaces differ")
        return OperatorMatrix(self.entries @ other.entries, other.domain, self.codomain)

    def cond(self) -> float:
        if self.entries.size == 0:
            return 1.0
        return float(np.linalg.cond(self.entries))


def tto_matrix(domain: ModelSpace, codomain: ModelSpace, symbol: RationalFn) -> OperatorMatrix:
    """Compression of multiplication by ``symbol`` between the two spaces:
    column ``j`` holds the codomain coordinates of ``symbol * e_j``, all
    columns from one root solve of the symbol's denominator and one exact
    Clark rule (:meth:`ModelSpace.coordinates` with ``over``)."""
    return OperatorMatrix(codomain.coordinates(symbol, over=domain), domain, codomain)


def multiplication_matrix(
    domain: ModelSpace, codomain: ModelSpace, a: RationalFn
) -> OperatorMatrix:
    """Exact matrix of ``f -> a f`` when ``a`` maps the domain into the
    codomain; rejects symbols whose image of some basis element has a
    membership residual of at least ``MEMBERSHIP_TOL``; the matrix and the
    residuals come from one pass (:meth:`ModelSpace.coordinates`)."""
    entries, residuals = codomain.coordinates(a, over=domain, residuals=True)
    for j, residual in enumerate(residuals):
        if residual >= MEMBERSHIP_TOL:
            raise MultiplierRangeViolation(
                f"a * (basis element {j}) leaves the codomain (residual {residual:.3e})"
            )
    return OperatorMatrix(entries, domain, codomain)


def multiplier_inverse_defect(domain: ModelSpace, codomain: ModelSpace, a: RationalFn) -> float:
    """Largest entry deviation in the two inverse identities of a
    multiplier ``a`` from ``domain`` onto ``codomain``: ``M_a M_{1/a} = I``,
    and the compression of ``1/conj(a)`` equals ``(M_a^H)^-1``."""
    m = multiplication_matrix(domain, codomain, a)
    m_inv = multiplication_matrix(codomain, domain, a.inverse())
    product = float(np.max(np.abs((m @ m_inv).entries - np.eye(domain.dim))))
    t = tto_matrix(domain, codomain, circle_conjugate(a).inverse())
    return max(product, float(np.max(np.abs(t.entries - np.linalg.inv(m.entries.conj().T)))))


def is_zero_symbol(
    domain: ModelSpace, codomain: ModelSpace, symbol: RationalFn, tol: float = ZERO_SYMBOL_TOL
) -> bool:
    """Whether the compressed operator vanishes.

    For rational symbols this decides membership in the sum of the
    conjugate-shifted Hardy spaces attached to the two inner functions.
    """
    return _entries_vanish(tto_matrix(domain, codomain, symbol).entries, symbol, tol)


def _relative_defect(a: np.ndarray, b: np.ndarray) -> float:
    """``||a - b|| / (1 + ||a||)`` in the Frobenius norm: the defect of a
    matrix identity relative to its reference side ``a``."""
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(a)))


@dataclass
class EquivalenceTransform:
    """Factors realizing ``A = E @ B @ F`` across model spaces.

    ``tilde_symbol`` is the transported symbol; ``residual`` is the relative
    Frobenius defect of the identity on the given data.  ``A`` and ``B`` are
    the two compressions that residual compares: ``A`` of the symbol from
    the theta-space to the alpha-space, ``B`` of ``tilde_symbol`` from the
    eta-space to the gamma-space.
    """

    E: OperatorMatrix
    F: OperatorMatrix
    tilde_symbol: RationalFn
    residual: float
    cond_E: float
    cond_F: float
    A: OperatorMatrix
    B: OperatorMatrix


def equivalence_transform(
    theta: BlaschkeProduct,
    alpha: BlaschkeProduct,
    eta: BlaschkeProduct,
    gamma: BlaschkeProduct,
    symbol: RationalFn,
) -> EquivalenceTransform:
    """Transport a compressed multiplication across multiplier pairs.

    Multiplier orientation (fixed here once and for all): ``a1`` multiplies
    the eta-space onto the theta-space and ``a2`` the gamma-space onto the
    alpha-space.  Then with ``tilde = conj(a2) * symbol * a1``,

    ``A(theta->alpha, symbol) = E @ A(eta->gamma, tilde) @ F``,

    where ``F`` is multiplication by ``1/a1`` from the theta-space to the
    eta-space and ``E`` is the compression of ``1/conj(a2)`` from the
    gamma-space to the alpha-space.  Both factors are invertible; their
    condition numbers are reported.  Each distinct inner function gets one
    :class:`ModelSpace`; :func:`transport_spaces` takes built spaces.
    """
    spaces = {}
    for inner in (theta, alpha, eta, gamma):
        if inner not in spaces:
            spaces[inner] = ModelSpace(inner)
    return transport_spaces(*(spaces[b] for b in (theta, alpha, eta, gamma)), symbol)


def transport_spaces(
    k_theta: ModelSpace, k_alpha: ModelSpace, k_eta: ModelSpace, k_gamma: ModelSpace,
    symbol: RationalFn,
) -> EquivalenceTransform:
    """:func:`equivalence_transform` on built spaces.

    Both factors are closed-form changes of basis.  With ``a1 = D_eta /
    D_theta`` (``D`` the full basis denominator of a space), ``e_k / a1`` is
    the theta-space numerator ``L_theta[:, k]`` over ``D_eta``, so ``F``
    solves ``L_eta F = L_theta`` (:attr:`ModelSpace.L`).  ``E`` pairs
    ``e_j / conj(a2)`` against ``e_i``, which is the adjoint of
    multiplication by ``1/a2`` from the alpha-space to the gamma-space:
    ``E = solve(L_gamma, L_alpha)^H``.  Both compressions of the symbols stay
    exact and are taken on the basis ``e_j``, not on ``L``
    (:func:`tto_matrix`), so ``residual`` checks the closed form
    independently; they are returned as ``A`` and ``B``.
    """
    a1 = multiplier_between(k_eta, k_theta)
    a2 = multiplier_between(k_gamma, k_alpha)
    tilde = circle_conjugate(a2) * symbol * a1
    e_mat = OperatorMatrix(np.linalg.solve(k_gamma.L, k_alpha.L).conj().T, k_gamma, k_alpha)
    f_mat = OperatorMatrix(np.linalg.solve(k_eta.L, k_theta.L), k_theta, k_eta)
    lhs = tto_matrix(k_theta, k_alpha, symbol)
    mid = tto_matrix(k_eta, k_gamma, tilde)
    residual = _relative_defect(lhs.entries, (e_mat @ mid @ f_mat).entries)
    return EquivalenceTransform(
        e_mat, f_mat, tilde, residual, e_mat.cond(), f_mat.cond(), lhs, mid
    )


@dataclass
class BrownHalmosCheck:
    """Residual of the product-splitting identity plus the hypothesis side.

    ``side`` names the inclusion that established the hypothesis: ``"phi"``
    for ``phi * k1`` inside ``mid``, ``"psi"`` for ``conj(psi) * k2`` inside
    ``mid``, ``None`` when neither holds.  Without a side the residual is
    still reported but the identity carries no guarantee.
    """

    residual: float
    side: str | None

    @property
    def hypothesis_ok(self) -> bool:
        return self.side is not None


def brown_halmos_product(
    k1: ModelSpace, mid: ModelSpace, k2: ModelSpace, psi: RationalFn, phi: RationalFn
) -> BrownHalmosCheck:
    """Check that the compression of ``psi * phi`` factors through ``mid``.

    The defect is ``P_k2 psi (I - P_mid) phi`` on ``k1``.  It vanishes when
    ``phi * k1 rest mid`` and, since ``<psi (I - P_mid) phi f, g> = <(I -
    P_mid) phi f, conj(psi) g>``, also when ``conj(psi) * k2 rest mid``.
    Either inclusion is the checkable hypothesis: every image of a basis
    element has a membership residual in ``mid`` below ``MEMBERSHIP_TOL``.
    The pass of ``phi`` over ``k1`` into ``mid`` gives both the right factor
    and its residuals; the ``conj(psi)`` side runs only when that side
    fails, and the check reports the side that held first.
    """
    product = tto_matrix(k1, k2, psi * phi).entries
    left = tto_matrix(mid, k2, psi).entries
    right, residuals = mid.coordinates(phi, over=k1, residuals=True)
    side = "phi" if np.all(residuals < MEMBERSHIP_TOL) else None
    if side is None:
        _, residuals = mid.coordinates(circle_conjugate(psi), over=k2, residuals=True)
        side = "psi" if np.all(residuals < MEMBERSHIP_TOL) else None
    return BrownHalmosCheck(_relative_defect(product, left @ right), side)


@dataclass
class ConjugationMatrix:
    """Antilinear map ``v -> J conj(v)`` on one model space."""

    J: np.ndarray
    space: ModelSpace

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=complex)

    def involution_defect(self) -> float:
        n = self.J.shape[0]
        return float(np.linalg.norm(self.J @ np.conj(self.J) - np.eye(n)))


def unitarity_defect(matrix: np.ndarray) -> float:
    """``||M^H M - I||`` in the Frobenius norm; zero exactly when the
    columns of ``matrix`` are orthonormal."""
    return float(np.linalg.norm(matrix.conj().T @ matrix - np.eye(matrix.shape[1])))


def conjugation_matrix(space: ModelSpace) -> ConjugationMatrix:
    """The canonical conjugation of the space: ``f -> B * conj(z f)`` on the
    circle.

    ``J[i, k] = <C e_k, e_i>`` pairs two elements of the space, so it is
    exact on the Clark rule of ``z * B``'s zeros (``modelspace._clark_rule``,
    phase 1).  At its nodes ``z B(z) = c``, the constant of ``B``, so ``C e_k
    = c conj(z)^2 conj(e_k)`` there, and ``J = c (conj(E) * w conj(z)^2) @
    conj(E)^T`` for the basis samples ``E`` and weights ``w``: symmetric, with
    no split and no pairing."""
    if space.dim < 1:
        raise ValueError("conjugation needs a space of dimension >= 1")
    nodes, weights = _clark_rule(space.inner.zeros, 1.0)
    e = np.conj(basis_samples(space.inner, nodes))
    j = space.inner.constant * (e * (weights * np.conj(nodes) ** 2)) @ e.T
    return ConjugationMatrix(j, space)


def selfadjoint_residual(a: OperatorMatrix, c: ConjugationMatrix) -> float:
    """Relative defect ``||J conj(A) J^-1 - A^H|| / (1 + ||A||)``; zero
    exactly when ``a`` is complex selfadjoint for the conjugation."""
    if a.entries.shape[0] != a.entries.shape[1]:
        raise ValueError("operator must be square")
    if not a.domain.same_space(c.space):
        raise ValueError("operator and conjugation live on different spaces")
    return _relative_defect(a.entries.conj().T, c.J @ np.conj(a.entries) @ np.linalg.inv(c.J))


def is_complex_selfadjoint(
    a: OperatorMatrix, c: ConjugationMatrix, tol: float = 1e-9
) -> bool:
    """Whether conjugating ``a`` by the antilinear map gives its adjoint:
    :func:`selfadjoint_residual` at most ``tol``."""
    return selfadjoint_residual(a, c) <= tol


def conjugation_pullback(c: ConjugationMatrix, f: OperatorMatrix) -> ConjugationMatrix:
    """Transport a conjugation along an invertible intertwiner ``f``: ``J' =
    F^-1 J conj(F)`` on the domain of ``f``.  It is antilinear-unitary only
    when ``J conj(F F^H) = F F^H J`` (:func:`pullback_compatibility_defect`);
    the caller is expected to test the returned candidate.
    """
    if not c.space.same_space(f.codomain):
        raise ValueError("conjugation must live on the codomain of the intertwiner")
    mat = f.entries
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("intertwiner must be square")
    if np.linalg.cond(mat) > 1e12:
        raise np.linalg.LinAlgError("intertwiner is numerically singular")
    return ConjugationMatrix(np.linalg.inv(mat) @ c.J @ np.conj(mat), f.domain)


def pullback_compatibility_defect(c: ConjugationMatrix, f: OperatorMatrix) -> float:
    """Size of ``J conj(F F^H) - F F^H J``; zero exactly when the candidate
    of :func:`conjugation_pullback` is antilinear-unitary."""
    frame = f.entries @ f.entries.conj().T
    return float(np.linalg.norm(c.J @ np.conj(frame) - frame @ c.J))


def _numeric_rank(s: np.ndarray) -> int:
    """Count of the descending singular values ``s`` above ``RANK_TOL * s[0]``."""
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def rank_equivalence(a, b):
    """Invertible factors ``(E, F)`` with ``A = E B F`` when the ranks agree.

    Built from the two singular value decompositions: the nonzero singular
    values of ``B`` are rescaled onto those of ``A`` and the unitary frames
    are swapped.  Raises :class:`NotEquivalentError` on a rank mismatch.
    """
    a_mat = np.asarray(a.entries if isinstance(a, OperatorMatrix) else a, dtype=complex)
    b_mat = np.asarray(b.entries if isinstance(b, OperatorMatrix) else b, dtype=complex)
    if a_mat.shape != b_mat.shape or a_mat.shape[0] != a_mat.shape[1]:
        raise ValueError("matrices must be square and of equal size")
    n = a_mat.shape[0]
    ua, sa, vha = np.linalg.svd(a_mat)
    ub, sb, vhb = np.linalg.svd(b_mat)
    ra = _numeric_rank(sa)
    rb = _numeric_rank(sb)
    if ra != rb:
        raise NotEquivalentError(f"rank {ra} != rank {rb}")
    d = np.ones(n)
    d[:ra] = sa[:ra] / sb[:ra]
    e_mat = ua @ np.diag(d) @ ub.conj().T
    f_mat = vhb.conj().T @ vha
    return e_mat, f_mat


def kernel_and_range(a):
    """Null-space basis (right singular vectors) and numerical rank."""
    a_mat = np.asarray(a.entries if isinstance(a, OperatorMatrix) else a, dtype=complex)
    if a_mat.size == 0:
        return [], 0
    _, s, vh = np.linalg.svd(a_mat)
    rank = _numeric_rank(s)
    kernel = [vh[i].conj() for i in range(rank, vh.shape[0])]
    return kernel, rank


def subspace_angle(vectors_a, vectors_b) -> float:
    """Largest principal angle (radians) between the spans of two vector lists.

    Taken as ``arctan2(sine, cosine)`` with the sine ``||Q_u - Q_v Q_v^H
    Q_u||_2`` and the cosine the smallest singular value of ``Q_u^H Q_v``
    (Knyazev and Argentati, SIAM J. Sci. Comput. 2002): the cosine alone
    cannot resolve angles below ``sqrt(2 eps)``, about 2e-8.  Two empty
    spans are at angle 0, an empty and a nonempty one at ``pi / 2``.
    """
    if not len(vectors_a) or not len(vectors_b):
        return 0.0 if len(vectors_a) == len(vectors_b) else np.pi / 2
    u = np.column_stack([np.asarray(v, dtype=complex) for v in vectors_a])
    v = np.column_stack([np.asarray(w, dtype=complex) for w in vectors_b])
    qu, _ = np.linalg.qr(u)
    qv, _ = np.linalg.qr(v)
    s = np.linalg.svd(qu.conj().T @ qv, compute_uv=False)
    sine = np.linalg.norm(qu - qv @ (qv.conj().T @ qu), 2)
    return float(np.arctan2(sine, np.min(s)))
