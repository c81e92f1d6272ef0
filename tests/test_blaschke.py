"""Blaschke products: factorization, shifts, gcd, boundary behaviour."""

import numpy as np
import pytest

from mst.blaschke import (
    BlaschkeProduct,
    MonomialFactorization,
    blaschke_gcd,
    blaschke_quotient,
    frostman_shift,
    frostman_shift_defect,
    gcd_quotient_defect,
    generalized_frostman_shift,
    generalized_shift_factor_defect,
    monomial_factorization,
    to_rational,
    unimodularity_defect,
)
from mst.rational import ComplexPoly, RationalFn, unit_circle_samples
from mst.sampling import random_blaschke

ZS = unit_circle_samples(32)


class TestConstruction:
    def test_zero_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            BlaschkeProduct((1.0,))

    def test_constant_must_be_unimodular(self):
        with pytest.raises(ValueError):
            BlaschkeProduct((0.5,), 2.0)

    def test_unimodular_on_circle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            assert unimodularity_defect(random_blaschke(rng)) < 1e-10

    def test_unimodularity_defect_negative_control(self):
        assert unimodularity_defect(1.01 * to_rational(BlaschkeProduct((0.5,)))) > 1e-3


class TestToRational:
    def test_monomial(self):
        b = BlaschkeProduct((0.0, 0.0))
        assert to_rational(b).isclose(RationalFn.monomial(2))

    def test_single_factor(self):
        b = BlaschkeProduct((0.5,))
        expected = RationalFn(ComplexPoly([-0.5, 1.0]), ComplexPoly([1.0, -0.5]))
        assert to_rational(b).isclose(expected)

    def test_empty_product(self):
        assert to_rational(BlaschkeProduct(())).isclose(RationalFn.one())

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            b = random_blaschke(rng)
            assert np.max(np.abs(to_rational(b)(ZS) - b(ZS))) < 1e-11


class TestMonomialFactorization:
    def test_single_zero(self):
        minus, n, plus = monomial_factorization(BlaschkeProduct((0.5,)))
        assert n == 1
        assert minus.isclose(RationalFn(ComplexPoly([-0.5, 1.0]), ComplexPoly([0.0, 1.0])))
        assert plus.isclose(RationalFn(ComplexPoly([1.0]), ComplexPoly([1.0, -0.5])))

    def test_empty(self):
        minus, n, plus = monomial_factorization(BlaschkeProduct(()))
        assert n == 0
        assert minus.isclose(RationalFn.one())
        assert plus.isclose(RationalFn.one())

    def test_two_zeros_plus_factor(self):
        third = 1.0 / 3.0
        minus, n, plus = monomial_factorization(BlaschkeProduct((0.5, third)))
        assert n == 2
        expected_plus = RationalFn.one() / RationalFn(
            ComplexPoly([1.0, -0.5]) * ComplexPoly([1.0, -third])
        )
        assert plus.isclose(expected_plus)
        expected_minus = RationalFn(
            ComplexPoly.from_roots([0.5, third]), ComplexPoly.monomial(2)
        )
        assert minus.isclose(expected_minus)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            b = random_blaschke(rng)
            assert monomial_factorization(b).reconstruction_defect(b) < 1e-10

    def test_reconstruction_defect_negative_control(self):
        b = BlaschkeProduct((0.5, 1.0 / 3.0))
        minus, n, plus = monomial_factorization(b)
        assert MonomialFactorization(minus, n, 1.01 * plus).reconstruction_defect(b) > 1e-3


class TestFrostmanShift:
    def test_shift_of_z_by_constant(self):
        shifted = frostman_shift(BlaschkeProduct((0.0,)), 0.5)
        assert shifted.degree == 1
        assert abs(shifted.zeros[0] - 0.5) < 1e-12
        expected = RationalFn(ComplexPoly([-0.5, 1.0]), ComplexPoly([1.0, -0.5]))
        assert to_rational(shifted).isclose(expected, tol=1e-10)

    def test_zero_shift_is_identity(self):
        rng = np.random.default_rng(9)
        b = random_blaschke(rng)
        shifted = frostman_shift(b, 0.0)
        assert shifted.isclose(b)

    def test_square_root_zeros(self):
        # oracle: the zeros of (z^2 - 1/4)/(1 - z^2/4) solve z^2 = 1/4
        shifted = frostman_shift(BlaschkeProduct((0.0, 0.0)), 0.25)
        got = sorted(shifted.zeros, key=lambda z: z.real)
        assert abs(got[0] + 0.5) < 1e-10 and abs(got[1] - 0.5) < 1e-10
        assert unimodularity_defect(shifted) < 1e-10

    def test_parameter_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            frostman_shift(BlaschkeProduct((0.0,)), 1.0)

    def test_rational_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            b = random_blaschke(rng, max_degree=4)
            a = 0.8 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert frostman_shift_defect(b, a, frostman_shift(b, a)) < 1e-9

    def test_rational_identity_negative_control(self):
        b = BlaschkeProduct((0.5, 1.0 / 3.0))
        assert frostman_shift_defect(b, 0.3, frostman_shift(b, 0.31)) > 1e-3


class TestGeneralizedFrostman:
    def test_zero_symbol(self):
        b = BlaschkeProduct((0.3,))
        shifted, minus, plus = generalized_frostman_shift(b, RationalFn.zero())
        assert shifted.isclose(to_rational(b))
        assert minus.isclose(RationalFn.one())
        assert plus.isclose(RationalFn.one())

    def test_constant_symbol_matches_frostman(self):
        c = 0.4 - 0.1j
        b = BlaschkeProduct((0.0,))
        shifted, _, plus = generalized_frostman_shift(b, RationalFn(ComplexPoly([c])))
        target = to_rational(frostman_shift(b, np.conj(c)))
        assert np.max(np.abs(shifted(ZS) - target(ZS))) < 1e-10
        expected_plus = RationalFn.one() / RationalFn(ComplexPoly([1.0, -c]))
        assert plus.isclose(expected_plus)

    def test_half_z_shift_of_z_squared(self):
        # (z^2 - conj(h)) / (1 - h z^2) with h = z/2 reduces to
        # (2 z^3 - 1) / (z (2 - z^3))
        b = BlaschkeProduct((0.0, 0.0))
        h = RationalFn(ComplexPoly([0.0, 0.5]))
        shifted, minus, plus = generalized_frostman_shift(b, h)
        expected = RationalFn(
            ComplexPoly([-1.0, 0.0, 0.0, 2.0]), ComplexPoly([0.0, 2.0, 0.0, 0.0, -1.0])
        )
        assert shifted.isclose(expected, tol=1e-10)
        assert unimodularity_defect(shifted) < 1e-9
        assert generalized_shift_factor_defect(b, shifted, minus, plus) < 1e-9

    def test_factor_identity_random(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            b = random_blaschke(rng, max_degree=3)
            coeffs = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            h = RationalFn(ComplexPoly(coeffs))
            shifted, minus, plus = generalized_frostman_shift(b, h)
            assert unimodularity_defect(shifted) < 1e-9
            assert generalized_shift_factor_defect(b, shifted, minus, plus) < 1e-9

    def test_factor_defect_negative_control(self):
        b = BlaschkeProduct((0.0, 0.0))
        shifted, minus, plus = generalized_frostman_shift(b, RationalFn(ComplexPoly([0.0, 0.5])))
        assert generalized_shift_factor_defect(b, shifted, minus, 1.01 * plus) > 1e-3

    def test_large_symbol_rejected(self):
        with pytest.raises(ValueError):
            generalized_frostman_shift(BlaschkeProduct((0.0,)), RationalFn(ComplexPoly([1.5])))

    def test_inside_pole_rejected(self):
        h = RationalFn(ComplexPoly([0.1]), ComplexPoly([-0.5, 1.0]))
        with pytest.raises(ValueError):
            generalized_frostman_shift(BlaschkeProduct((0.0,)), h)


class TestGcd:
    def test_monomials(self):
        g = blaschke_gcd(BlaschkeProduct((0.0, 0.0)), BlaschkeProduct((0.0, 0.0, 0.0)))
        assert g.degree == 2 and all(abs(z) < 1e-12 for z in g.zeros)

    def test_min_multiplicity(self):
        g = blaschke_gcd(BlaschkeProduct((0.5, 0.0)), BlaschkeProduct((0.5, 0.5)))
        assert g.degree == 1 and abs(g.zeros[0] - 0.5) < 1e-12

    def test_disjoint(self):
        g = blaschke_gcd(BlaschkeProduct((0.0, 0.0)), BlaschkeProduct((0.5,)))
        assert g.degree == 0

    def test_gcd_divides_both(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            shared = tuple(0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 3.0)
            b1 = BlaschkeProduct(shared + (0.4,))
            b2 = BlaschkeProduct(shared + (-0.2j,))
            g = blaschke_gcd(b1, b2)
            assert g.degree == 2
            for b in (b1, b2):
                q = blaschke_quotient(b, g)
                assert q.degree == b.degree - 2
                assert all(abs(z) < 1.0 for z in q.zeros)
                assert gcd_quotient_defect(b, g) < 1e-9

    def test_gcd_quotient_defect_negative_control(self):
        # a divisor zero 5e-9 off still matches within CLUSTER_TOL, but the
        # rebuilt product is off by about as much
        b = BlaschkeProduct((0.5, -0.3j, 0.1))
        off = BlaschkeProduct((0.5 + 5e-9, -0.3j))
        assert gcd_quotient_defect(b, off) > 1e-9

