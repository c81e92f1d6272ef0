"""Operator matrices: compressions, equivalences, conjugations, rank."""

import numpy as np
import pytest

from mst.blaschke import BlaschkeProduct
from mst.modelspace import (
    ModelSpace,
    basis_samples,
    crofoot_multiplier,
    multiplier_between,
)
import mst.operators
from mst.operators import (
    MultiplierRangeViolation,
    NotEquivalentError,
    OperatorMatrix,
    brown_halmos_product,
    conjugation_matrix,
    conjugation_pullback,
    equivalence_transform,
    is_complex_selfadjoint,
    is_zero_symbol,
    kernel_and_range,
    multiplication_matrix,
    multiplier_inverse_defect,
    pullback_compatibility_defect,
    rank_equivalence,
    subspace_angle,
    transport_spaces,
    tto_matrix,
    unitarity_defect,
)
from mst.rational import ComplexPoly, RationalFn, circle_conjugate, unit_circle_samples
from mst.sampling import random_blaschke, random_disk_points, random_rational

THIRD = 1.0 / 3.0
Z2 = BlaschkeProduct((0.0, 0.0))
Z3 = BlaschkeProduct((0.0, 0.0, 0.0))
ALPHA = BlaschkeProduct((0.5, THIRD))
Z = RationalFn.monomial(1)
ONE = RationalFn.one()

K_Z2 = ModelSpace(Z2)
K_Z3 = ModelSpace(Z3)
K_ALPHA = ModelSpace(ALPHA)
A_MULT = multiplier_between(K_Z2, K_ALPHA)  # 1/((1 - z/2)(1 - z/3))


def two_pass_brown_halmos(k1, mid, k2, psi, phi):
    """The product-splitting residual and hypothesis by separate passes:
    per-element membership on either side, then the three compressions."""
    psi_bar = circle_conjugate(psi)
    side = None
    if all(mid.contains(phi * e) for e in k1.basis):
        side = "phi"
    elif all(mid.contains(psi_bar * e) for e in k2.basis):
        side = "psi"
    product = tto_matrix(k1, k2, psi * phi).entries
    right = tto_matrix(k1, mid, phi).entries
    diff = product - tto_matrix(mid, k2, psi).entries @ right
    residual = float(np.linalg.norm(diff) / (1.0 + np.linalg.norm(product)))
    return residual, side


def assert_matches_two_pass(check, *args):
    residual, side = two_pass_brown_halmos(*args)
    assert check.residual == residual
    assert check.side == side
    assert check.hypothesis_ok == (side is not None)


def example_symbol_65():
    # (z - 1/2)(z - 1/3)(z^2 + 1) / z^2
    num = ComplexPoly.from_roots([0.5, THIRD]) * ComplexPoly([1.0, 0.0, 1.0])
    return RationalFn(num, ComplexPoly.monomial(2))


class TestTTOMatrix:
    def test_toeplitz_example(self):
        m = tto_matrix(K_Z2, K_Z2, ONE + (5.0 / 6.0) * Z)
        assert np.max(np.abs(m.entries - np.array([[1.0, 0.0], [5.0 / 6.0, 1.0]]))) < 1e-12

    def test_shift_compression(self):
        m = tto_matrix(K_Z2, K_Z2, Z)
        assert np.max(np.abs(m.entries - np.array([[0.0, 0.0], [1.0, 0.0]]))) < 1e-14

    def test_zero_symbol_matrix(self):
        m = tto_matrix(K_Z2, K_Z2, RationalFn.monomial(2))
        assert np.max(np.abs(m.entries)) < 1e-14


class TestMultiplicationMatrix:
    def test_identity(self):
        m = multiplication_matrix(K_Z2, K_Z2, ONE)
        assert np.max(np.abs(m.entries - np.eye(2))) < 1e-12

    def test_inverse_pair_example(self):
        assert multiplier_inverse_defect(K_Z2, K_ALPHA, A_MULT) < 1e-9
        m = multiplication_matrix(K_Z2, K_ALPHA, A_MULT)
        m_inv = multiplication_matrix(K_ALPHA, K_Z2, A_MULT.inverse())
        assert np.max(np.abs((m_inv @ m).entries - np.eye(2))) < 1e-9

    def test_embedding_column(self):
        k_z = ModelSpace(BlaschkeProduct((0.0,)))
        m = multiplication_matrix(k_z, K_Z2, Z)
        assert m.entries.shape == (2, 1)
        assert np.max(np.abs(m.entries - np.array([[0.0], [1.0]]))) < 1e-14

    def test_range_violation(self):
        with pytest.raises(MultiplierRangeViolation):
            multiplication_matrix(K_Z2, K_Z2, Z)  # z * z = z^2 leaves the space

    def test_adjoint_inverse_transport(self):
        # compression of 1/conj(a) equals the inverse adjoint of mult by a
        rng = np.random.default_rng(3)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            src = ModelSpace(random_blaschke(rng, degree=d))
            dst = ModelSpace(random_blaschke(rng, degree=d))
            a = multiplier_between(src, dst)
            assert multiplier_inverse_defect(src, dst, a) < 1e-9

    def test_inverse_defect_negative_control(self, monkeypatch):
        # a compression off by 1e-3 in one entry breaks the adjoint identity
        exact = mst.operators.tto_matrix

        def perturbed(domain, codomain, symbol):
            out = exact(domain, codomain, symbol)
            out.entries[0, 0] += 1e-3
            return out

        monkeypatch.setattr(mst.operators, "tto_matrix", perturbed)
        assert multiplier_inverse_defect(K_Z2, K_ALPHA, A_MULT) > 5e-4


class TestZeroSymbol:
    def test_two_sided_shift_sum(self):
        phi = circle_conjugate(RationalFn.monomial(2)) * RationalFn.monomial(-1)
        phi = phi + RationalFn.monomial(3) * RationalFn.monomial(3)
        # phi = conj(z^2) * zbar + z^3 * z^3 on (K_z2 -> K_z3)
        assert is_zero_symbol(K_Z2, K_Z3, phi)

    def test_identity_not_zero(self):
        assert not is_zero_symbol(K_Z2, K_Z2, ONE)

    def test_antianalytic_beyond_domain(self):
        assert is_zero_symbol(K_Z2, K_Z3, RationalFn.monomial(-2))


class TestEquivalenceTransform:
    def test_each_distinct_space_built_once(self, monkeypatch):
        built = []

        class Counting(mst.operators.ModelSpace):
            def __init__(self, inner):
                built.append(inner)
                super().__init__(inner)

        monkeypatch.setattr(mst.operators, "ModelSpace", Counting)
        res = equivalence_transform(ALPHA, ALPHA, Z2, Z2, ONE + 0.5 * Z)
        assert built == [ALPHA, Z2]
        core = transport_spaces(K_ALPHA, K_ALPHA, K_Z2, K_Z2, ONE + 0.5 * Z)
        for name in ("E", "F", "A", "B"):
            assert np.array_equal(getattr(res, name).entries, getattr(core, name).entries)
        assert res.residual == core.residual

    def test_trivial(self):
        res = equivalence_transform(ALPHA, ALPHA, ALPHA, ALPHA, ONE + Z * 0.5)
        assert res.residual < 1e-12
        assert np.max(np.abs(res.E.entries - np.eye(2))) < 1e-9
        assert np.max(np.abs(res.F.entries - np.eye(2))) < 1e-9
        assert res.tilde_symbol.isclose(ONE + Z * 0.5, tol=1e-9)

    def test_rank_one_compression(self):
        theta = K_ALPHA.rational
        phi = theta * RationalFn.monomial(-1)
        res = equivalence_transform(ALPHA, ALPHA, Z2, Z2, phi)
        assert res.residual < 1e-9
        a_matrix = tto_matrix(K_ALPHA, K_ALPHA, phi)
        _, rank = kernel_and_range(a_matrix)
        assert rank == 1

    def test_invertibility_reduction(self):
        res = equivalence_transform(ALPHA, ALPHA, Z2, Z2, example_symbol_65())
        mid = tto_matrix(K_Z2, K_Z2, res.tilde_symbol)
        assert np.max(np.abs(mid.entries - np.array([[1.0, 0.0], [5.0 / 6.0, 1.0]]))) < 1e-10
        assert res.residual < 1e-9
        direct = tto_matrix(K_ALPHA, K_ALPHA, example_symbol_65())
        assert np.linalg.cond(direct.entries) < 1e3
        assert np.linalg.cond(mid.entries) < 1e3

    def test_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d1 = int(rng.integers(1, 5))
            d2 = int(rng.integers(1, 5))
            theta = random_blaschke(rng, degree=d1)
            eta = random_blaschke(rng, degree=d1)
            alpha = random_blaschke(rng, degree=d2)
            gamma = random_blaschke(rng, degree=d2)
            symbol = random_rational(rng)
            res = equivalence_transform(theta, alpha, eta, gamma, symbol)
            assert res.residual < 1e-9
            assert res.cond_E < 1e8 and res.cond_F < 1e8

    def test_returned_compressions_are_exact(self):
        # A and B are the compressions the residual compares, bit for bit
        rng = np.random.default_rng(31)
        for d1, d2 in ((1, 3), (2, 2), (4, 1)):
            theta, eta = random_blaschke(rng, degree=d1), random_blaschke(rng, degree=d1)
            alpha, gamma = random_blaschke(rng, degree=d2), random_blaschke(rng, degree=d2)
            symbol = random_rational(rng)
            res = equivalence_transform(theta, alpha, eta, gamma, symbol)
            a = tto_matrix(ModelSpace(theta), ModelSpace(alpha), symbol)
            b = tto_matrix(ModelSpace(eta), ModelSpace(gamma), res.tilde_symbol)
            assert np.array_equal(res.A.entries, a.entries)
            assert np.array_equal(res.B.entries, b.entries)
            assert res.A.domain.same_space(a.domain) and res.A.codomain.same_space(a.codomain)
            assert res.B.domain.same_space(b.domain) and res.B.codomain.same_space(b.codomain)

    def test_factors_match_exact_pairings(self):
        # E and F are closed-form changes of basis; the exact pairings of
        # 1/a1 and 1/conj(a2) against the bases must give the same matrices
        rng = np.random.default_rng(23)
        for d in range(1, 7):
            for _ in range(2):
                theta, eta = random_blaschke(rng, degree=d), random_blaschke(rng, degree=d)
                alpha, gamma = random_blaschke(rng, degree=d), random_blaschke(rng, degree=d)
                res = equivalence_transform(theta, alpha, eta, gamma, random_rational(rng))
                k_theta, k_eta = ModelSpace(theta), ModelSpace(eta)
                k_alpha, k_gamma = ModelSpace(alpha), ModelSpace(gamma)
                a1 = multiplier_between(k_eta, k_theta)
                a2 = multiplier_between(k_gamma, k_alpha)
                f_exact = multiplication_matrix(k_theta, k_eta, a1.inverse()).entries
                e_exact = tto_matrix(k_gamma, k_alpha, circle_conjugate(a2).inverse()).entries
                for got, want in ((res.F.entries, f_exact), (res.E.entries, e_exact)):
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_factors_match_mpmath_quadrature(self):
        # independent oracle: the defining pairings F_ij = <e_j / a1, e_i>
        # and E_ij = <e_j / conj(a2), e_i> by the trapezoidal rule at 30
        # digits; with zeros within radius 0.8 the 256-node rule is exact to
        # about 0.8^256 = 1.5e-25
        mpmath = pytest.importorskip("mpmath")

        def basis(zeros, z):
            values, tail = [], mpmath.mpc(1)
            for a in map(mpmath.mpc, zeros):
                outer = 1 - mpmath.conj(a) * z
                values.append(mpmath.sqrt(1 - abs(a) ** 2) / outer * tail)
                tail *= (z - a) / outer
            return values

        def den(zeros, z):
            return mpmath.fprod(1 - mpmath.conj(mpmath.mpc(a)) * z for a in zeros)

        def pairings(domain, codomain, weight):
            out = mpmath.zeros(len(codomain.zeros), len(domain.zeros))
            for k in range(256):
                z = mpmath.expjpi(mpmath.mpf(2 * k) / 256)
                w = weight(z)
                for j, ej in enumerate(basis(domain.zeros, z)):
                    for i, ei in enumerate(basis(codomain.zeros, z)):
                        out[i, j] += ej * w * mpmath.conj(ei) / 256
            return np.array(out.tolist(), dtype=complex)

        rng = np.random.default_rng(29)
        for d in (1, 2, 3):
            theta, eta = random_blaschke(rng, degree=d), random_blaschke(rng, degree=d)
            alpha, gamma = random_blaschke(rng, degree=d), random_blaschke(rng, degree=d)
            res = equivalence_transform(theta, alpha, eta, gamma, random_rational(rng))
            with mpmath.workdps(30):
                f_ref = pairings(
                    theta, eta, lambda z: den(theta.zeros, z) / den(eta.zeros, z)
                )
                e_ref = pairings(
                    gamma, alpha,
                    lambda z: mpmath.conj(den(alpha.zeros, z) / den(gamma.zeros, z)),
                )
            assert np.max(np.abs(res.F.entries - f_ref)) < 1e-14 * (1 + np.max(np.abs(f_ref)))
            assert np.max(np.abs(res.E.entries - e_ref)) < 1e-14 * (1 + np.max(np.abs(e_ref)))

    def test_kernel_transport(self):
        # symbols built as conj(a)^-1 z^k a^-1 have known kernel on monomials
        rng = np.random.default_rng(9)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, n))
            zn = BlaschkeProduct((0.0,) * n)
            theta = random_blaschke(rng, degree=n)
            k_zn = ModelSpace(zn)
            k_theta = ModelSpace(theta)
            a = multiplier_between(k_zn, k_theta)
            phi = circle_conjugate(a).inverse() * RationalFn.monomial(k) * a.inverse()
            res = equivalence_transform(theta, theta, zn, zn, phi)
            ker_lhs, _ = kernel_and_range(res.A)
            ker_mid, _ = kernel_and_range(res.B)
            assert len(ker_lhs) == len(ker_mid) == k
            image = [res.F.entries @ v for v in ker_lhs]
            assert subspace_angle(image, ker_mid) < 1e-7

    def test_unitary_criterion_on_crofoot(self):
        rng = np.random.default_rng(11)
        for theta in (Z2, ALPHA):
            space = ModelSpace(theta)
            j, target = crofoot_multiplier(space, 0.4)
            sym = ONE - j * circle_conjugate(j)
            assert is_zero_symbol(space, space, sym)
            m = multiplication_matrix(space, target, j)
            assert unitarity_defect(m.entries) < 1e-9
            # negative direction: scaling breaks isometry and the criterion
            j2 = 2.0 * j
            sym2 = ONE - j2 * circle_conjugate(j2)
            assert not is_zero_symbol(space, space, sym2)
            m2 = multiplication_matrix(space, target, j2)
            assert unitarity_defect(m2.entries) > 1e-3


class TestBrownHalmos:
    def test_multiplier_hypothesis(self):
        rng = np.random.default_rng(13)
        psi = random_rational(rng)
        check = brown_halmos_product(K_Z2, K_ALPHA, K_Z3, psi, A_MULT)
        assert check.hypothesis_ok and check.side == "phi"
        assert check.residual < 1e-9
        assert_matches_two_pass(check, K_Z2, K_ALPHA, K_Z3, psi, A_MULT)

    def test_identity_midspace(self):
        check = brown_halmos_product(K_Z2, K_Z2, K_Z2, ONE + Z, ONE)
        assert check.hypothesis_ok
        assert check.residual < 1e-12
        assert_matches_two_pass(check, K_Z2, K_Z2, K_Z2, ONE + Z, ONE)

    def test_one_dimensional(self):
        k_z = ModelSpace(BlaschkeProduct((0.0,)))
        check = brown_halmos_product(k_z, K_Z2, k_z, RationalFn.monomial(-1), Z)
        assert check.hypothesis_ok
        assert check.residual < 1e-9
        assert_matches_two_pass(check, k_z, K_Z2, k_z, RationalFn.monomial(-1), Z)

    def test_polynomial_enlargement(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            b = random_blaschke(rng, degree=2)
            big = BlaschkeProduct(b.zeros + (0.0, 0.0), b.constant)
            phi = RationalFn(ComplexPoly(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
            psi = random_rational(rng)
            k1, mid = ModelSpace(b), ModelSpace(big)
            check = brown_halmos_product(k1, mid, K_Z2, psi, phi)
            assert check.hypothesis_ok
            assert check.residual < 1e-9
            assert_matches_two_pass(check, k1, mid, K_Z2, psi, phi)

    def test_left_side_hypothesis(self):
        # conj(zbar) K_{z^2} = z K_{z^2} lies in K_{z^3} while phi K_{z^2}
        # does not: the identity holds by the left-hand inclusion
        rng = np.random.default_rng(0)
        zbar = RationalFn.monomial(-1)
        for _ in range(3):
            phi = random_rational(rng)
            check = brown_halmos_product(K_Z2, K_Z3, K_Z2, zbar, phi)
            assert check.hypothesis_ok and check.side == "psi"
            assert check.residual < 1e-12
            assert_matches_two_pass(check, K_Z2, K_Z3, K_Z2, zbar, phi)

    def test_hypothesis_violation_flagged(self):
        k_z = ModelSpace(BlaschkeProduct((0.0,)))
        # phi = 1 does not map K_z2 into the smaller space K_z, and psi = zbar
        # does not map its complement correctly either: the identity breaks
        check = brown_halmos_product(K_Z2, k_z, K_Z2, RationalFn.monomial(-1), ONE)
        assert not check.hypothesis_ok and check.side is None
        assert check.residual > 1e-3
        assert_matches_two_pass(check, K_Z2, k_z, K_Z2, RationalFn.monomial(-1), ONE)


def quadrature_conjugation(inner, nodes=1024):
    """``<B conj(z e_k), e_i>`` by the trapezoidal rule on sampled basis
    values."""
    z = unit_circle_samples(nodes)
    e = basis_samples(inner, z)
    return np.conj(e) @ (inner(z) * np.conj(z * e)).T / nodes


class TestConjugation:
    @pytest.mark.parametrize("n", (1, 3, 8, 16))
    def test_rule_matches_quadrature(self, n):
        rng = np.random.default_rng([23, n])
        zeros = tuple(random_disk_points(rng, n, 0.9))
        if n > 2:
            zeros = zeros[:-1] + (zeros[0],)  # a repeated zero
        inner = BlaschkeProduct(zeros, np.exp(0.7j))
        c = conjugation_matrix(ModelSpace(inner))
        assert np.max(np.abs(c.J - quadrature_conjugation(inner))) < 1e-12
        assert unitarity_defect(c.J) < 1e-12
        assert c.involution_defect() < 1e-12

    def test_moved_zero_is_caught(self, monkeypatch):
        # negative control: the rule built on a zero moved by 1e-3 is the
        # conjugation of another space, and the quadrature of this one sees it
        inner = BlaschkeProduct((0.5, -0.3j, 0.6 + 0.2j), np.exp(0.7j))
        space = ModelSpace(inner)
        moved = BlaschkeProduct((0.5, -0.3j + 1e-3, 0.6 + 0.2j), np.exp(0.7j))
        monkeypatch.setattr(space, "inner", moved)
        c = conjugation_matrix(space)
        assert np.max(np.abs(c.J - quadrature_conjugation(inner))) > 1e-4
        assert np.max(np.abs(c.J - quadrature_conjugation(moved))) < 1e-12

    def test_flip_on_monomials(self):
        c = conjugation_matrix(K_Z2)
        assert np.max(np.abs(c.J - np.array([[0.0, 1.0], [1.0, 0.0]]))) < 1e-12

    def test_one_dimensional(self):
        c = conjugation_matrix(ModelSpace(BlaschkeProduct((0.0,))))
        assert np.max(np.abs(c.J - np.array([[1.0]]))) < 1e-12

    def test_unitary_and_involutive(self):
        c = conjugation_matrix(K_ALPHA)
        assert unitarity_defect(c.J) < 1e-10
        assert c.involution_defect() < 1e-10

    def test_selfadjointness_of_compressions(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            b = random_blaschke(rng, max_degree=4)
            space = ModelSpace(b)
            c = conjugation_matrix(space)
            a = tto_matrix(space, space, random_rational(rng))
            assert is_complex_selfadjoint(a, c)

    def test_flip_hand_check(self):
        a = OperatorMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]), K_Z2, K_Z2)
        assert is_complex_selfadjoint(a, conjugation_matrix(K_Z2))

    def test_negative_control(self):
        # conjugating by a non-unitary frame breaks complex selfadjointness
        rng = np.random.default_rng(21)
        c = conjugation_matrix(K_Z2)
        f = OperatorMatrix(np.array([[1.0, 0.5], [0.0, 2.0]]), K_Z2, K_Z2)
        base = tto_matrix(K_Z2, K_Z2, random_rational(rng))
        twisted = OperatorMatrix(
            f.entries @ base.entries @ np.linalg.inv(f.entries), K_Z2, K_Z2
        )
        assert not is_complex_selfadjoint(twisted, c)


class TestConjugationPullback:
    def test_identity_frame(self):
        c = conjugation_matrix(K_Z2)
        eye = OperatorMatrix(np.eye(2), K_Z2, K_Z2)
        assert np.max(np.abs(conjugation_pullback(c, eye).J - c.J)) < 1e-12

    def test_multiplier_pullback_is_canonical(self):
        # pulling the canonical conjugation back along multiplication by the
        # space multiplier reproduces the canonical conjugation downstairs
        f = multiplication_matrix(K_Z2, K_ALPHA, A_MULT)
        c_alpha = conjugation_matrix(K_ALPHA)
        pulled = conjugation_pullback(c_alpha, f)
        c_z2 = conjugation_matrix(K_Z2)
        assert np.max(np.abs(pulled.J - c_z2.J)) < 1e-9
        assert pullback_compatibility_defect(c_alpha, f) < 1e-9

    def test_unitary_frame_modes_agree(self):
        rng = np.random.default_rng(23)
        space = ModelSpace(random_blaschke(rng, degree=3))
        c = conjugation_matrix(space)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        f = OperatorMatrix(q, space, space)
        # for a unitary frame the inverse is the adjoint: F^H J conj(F)
        via_f = conjugation_pullback(c, f)
        assert np.max(np.abs(via_f.J - q.conj().T @ c.J @ np.conj(q))) < 1e-10
        assert unitarity_defect(via_f.J) < 1e-10


class TestRankEquivalence:
    def test_diagonal_pair(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 2.0]).astype(complex)
        e, f = rank_equivalence(a, b)
        assert np.max(np.abs(a - e @ b @ f)) < 1e-10

    def test_identity_pair(self):
        e, f = rank_equivalence(np.eye(3), np.eye(3))
        assert np.max(np.abs(np.eye(3) - e @ f)) < 1e-12

    def test_rank_mismatch(self):
        with pytest.raises(NotEquivalentError):
            rank_equivalence(np.eye(2), np.diag([1.0, 0.0]))

    def test_random_equal_rank_pairs(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            r = int(rng.integers(0, n + 1))
            def rand_rank(r):
                if r == 0:
                    return np.zeros((n, n), dtype=complex)
                x = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
                y = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
                return x @ y
            a, b = rand_rank(r), rand_rank(r)
            e, f = rank_equivalence(a, b)
            scale = 1.0 + np.linalg.norm(a)
            assert np.linalg.norm(a - e @ b @ f) < 1e-8 * scale
            assert np.linalg.cond(e) < 1e8 and np.linalg.cond(f) < 1e8


class TestKernelAndRange:
    def test_shift_kernel(self):
        m = tto_matrix(K_Z2, K_Z2, Z)
        kernel, rank = kernel_and_range(m)
        assert rank == 1 and len(kernel) == 1
        v = kernel[0] / kernel[0][1]
        assert np.max(np.abs(v - np.array([0.0, 1.0]))) < 1e-12

    def test_invertible(self):
        res = equivalence_transform(ALPHA, ALPHA, Z2, Z2, example_symbol_65())
        mid = tto_matrix(K_Z2, K_Z2, res.tilde_symbol)
        kernel, rank = kernel_and_range(mid)
        assert rank == 2 and kernel == []

    def test_zero_matrix(self):
        kernel, rank = kernel_and_range(np.zeros((3, 3)))
        assert rank == 0 and len(kernel) == 3

    def test_composition_space_check(self):
        m1 = tto_matrix(K_Z2, K_ALPHA, ONE)
        m2 = tto_matrix(K_Z2, K_Z2, ONE)
        with pytest.raises(ValueError):
            m1 @ m1  # inner spaces differ
        _ = m1 @ m2  # fine


class TestSubspaceAngle:
    @pytest.mark.parametrize("angle", [1e-12, 1e-9, 1.0399198, np.pi / 2])
    def test_rotated_plane(self, angle):
        # span{e1, e2} against span{e1, cos(t) e2 + sin(t) e3}; arccos of the
        # cosine alone reads about 2e-8 for every t below that
        a = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        b = [np.array([1.0, 0.0, 0.0]), np.array([0.0, np.cos(angle), np.sin(angle)])]
        assert abs(subspace_angle(a, b) - angle) <= 1e-14 * (1.0 + angle)

    def test_empty_spans(self):
        # the kernel of an invertible matrix is the empty list
        kernel, rank = kernel_and_range(np.eye(3))
        assert kernel == [] and rank == 3
        line = [np.array([1.0, 0.0, 0.0])]
        assert subspace_angle(kernel, kernel) == 0.0
        assert subspace_angle(kernel, line) == np.pi / 2
        assert subspace_angle(line, kernel) == np.pi / 2
