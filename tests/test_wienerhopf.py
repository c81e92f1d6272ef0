"""Triangular factorization, formula-based inverses, and the direct oracle."""

import numpy as np
import pytest

from mst.blaschke import BlaschkeProduct
from mst.modelspace import build_space, multiplier_between
from mst.operators import OperatorMatrix, equivalence_transform, tto_matrix
from mst.rational import (
    ComplexPoly,
    RationalFn,
    circle_conjugate,
    unit_circle_samples,
)
from mst.sampling import random_blaschke, random_laurent
from mst.wienerhopf import (
    DegreeCapExceeded,
    NoCanonicalFactorization,
    SingularOperator,
    invert_direct,
    tto_inverse_via_wh,
    wiener_hopf_factorize,
)

ZS = unit_circle_samples(32)
ONE = RationalFn.one()
Z = RationalFn.monomial(1)


class TestFactorize:
    def test_hand_solved_degree_one(self):
        c = 2.0 - 1.0j
        fact = wiener_hopf_factorize(1, RationalFn(ComplexPoly([c])))
        p = fact.g_plus_inv
        assert np.allclose(p[0][0].coeffs, [0.0, 1.0])
        assert np.allclose(p[0][1].coeffs, [1.0 / c])
        assert np.allclose(p[1][0].coeffs, [-c])
        assert p[1][1].is_zero
        # anti-analytic factor [[1, zbar/c], [0, 1]]
        assert fact.g_minus[0][0].isclose(ONE, tol=1e-10)
        assert fact.g_minus[0][1].isclose(RationalFn.monomial(-1) * (1.0 / c), tol=1e-10)
        assert fact.g_minus[1][0].isclose(RationalFn.zero(), tol=1e-10) or np.max(
            np.abs(fact.g_minus[1][0](ZS))
        ) < 1e-10
        assert fact.g_minus[1][1].isclose(ONE, tol=1e-10)
        assert abs(fact.det - 1.0) < 1e-10

    def test_zero_symbol_fails(self):
        with pytest.raises(NoCanonicalFactorization):
            wiener_hopf_factorize(1, RationalFn.zero())

    def test_invertible_example(self):
        fact = wiener_hopf_factorize(2, ONE + (5.0 / 6.0) * Z)
        assert fact.recombination_defect() < 1e-9
        assert abs(fact.det - 1.0) < 1e-8

    def test_recombination_defect_negative_control(self):
        # a perturbed anti-analytic factor no longer recombines to the symbol
        fact = wiener_hopf_factorize(2, ONE + (5.0 / 6.0) * Z)
        fact.g_minus[1][0] = fact.g_minus[1][0] + 0.01 * Z
        assert fact.recombination_defect() > 1e-3

    def test_shift_symbol_fails(self):
        with pytest.raises(NoCanonicalFactorization):
            wiener_hopf_factorize(2, Z)

    def test_consistency_random(self):
        rng = np.random.default_rng(3)
        found = 0
        while found < 10:
            phi = random_laurent(rng)
            try:
                fact = wiener_hopf_factorize(int(rng.integers(1, 5)), phi)
            except (NoCanonicalFactorization, DegreeCapExceeded):
                continue
            found += 1
            assert fact.recombination_defect() < 1e-9


class TestInverseFormula:
    def test_constant_symbol(self):
        c = 3.0 + 1.0j
        out = tto_inverse_via_wh(1, RationalFn(ComplexPoly([c])), ONE)
        assert out.isclose(RationalFn(ComplexPoly([1.0 / c])), tol=1e-10)

    def test_unit_lower_triangular(self):
        phi = ONE + (5.0 / 6.0) * Z
        out = tto_inverse_via_wh(2, phi, ONE)
        assert out.isclose(ONE - (5.0 / 6.0) * Z, tol=1e-9)

    def test_identity_symbol(self):
        f = ONE + 0.3 * Z
        assert tto_inverse_via_wh(2, ONE, f).isclose(f, tol=1e-10)

    def test_rejects_rhs_outside_space(self):
        with pytest.raises(ValueError):
            tto_inverse_via_wh(1, ONE, Z)

    def test_rejects_mismatched_factorization(self):
        # the compression of (1 + z^2/2)/z on K_{z^3} is singular, so a
        # factorization of another degree and symbol must not answer for it
        phi = (ONE + 0.5 * RationalFn.monomial(2)) * RationalFn.monomial(-1)
        rhs = ONE + Z + RationalFn.monomial(2)
        other = wiener_hopf_factorize(2, 2.0 + 0.3 * Z)
        with pytest.raises(ValueError):
            tto_inverse_via_wh(3, phi, rhs, other)
        with pytest.raises(NoCanonicalFactorization):
            tto_inverse_via_wh(3, phi, rhs)
        with pytest.raises(ValueError):
            tto_inverse_via_wh(2, ONE + 0.3 * Z, ONE, other)
        assert tto_inverse_via_wh(2, 2.0 + 0.3 * Z, ONE, other).isclose(
            tto_inverse_via_wh(2, 2.0 + 0.3 * Z, ONE)
        )

    def test_oracle_agreement(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 20:
            n = int(rng.integers(1, 5))
            phi = random_laurent(rng)
            try:
                direct = invert_direct(n, phi)
            except SingularOperator:
                continue
            if np.linalg.cond(tto_matrix(direct.domain, direct.domain, phi).entries) > 1e6:
                continue
            fact = wiener_hopf_factorize(n, phi)
            checked += 1
            assert np.max(fact.inverse_column_defects(direct)) < 1e-8

    def test_inverse_column_defects_negative_control(self):
        phi = ONE + (5.0 / 6.0) * Z
        fact = wiener_hopf_factorize(2, phi)
        direct = invert_direct(2, phi)
        assert np.max(fact.inverse_column_defects(direct)) < 1e-8
        off = OperatorMatrix(direct.entries + 1e-3, direct.domain, direct.codomain)
        assert np.min(fact.inverse_column_defects(off)) > 5e-4


class TestDirectInverse:
    def test_unit_lower_triangular(self):
        inv = invert_direct(2, ONE + (5.0 / 6.0) * Z)
        assert np.max(np.abs(inv.entries - np.array([[1.0, 0.0], [-5.0 / 6.0, 1.0]]))) < 1e-10

    def test_constant(self):
        c = 2.0j
        inv = invert_direct(1, RationalFn(ComplexPoly([c])))
        assert np.max(np.abs(inv.entries - np.array([[1.0 / c]]))) < 1e-12

    def test_nilpotent_shift(self):
        with pytest.raises(SingularOperator):
            invert_direct(2, Z)


class TestDichotomy:
    def test_factorization_iff_invertible(self):
        rng = np.random.default_rng(7)
        singular_symbols = [Z, Z + RationalFn.monomial(2), RationalFn.zero()]
        for n in (1, 2, 3):
            for phi in singular_symbols:
                with pytest.raises(NoCanonicalFactorization):
                    wiener_hopf_factorize(n, phi)
        agreements = 0
        while agreements < 15:
            n = int(rng.integers(1, 5))
            phi = random_laurent(rng)
            try:
                invert_direct(n, phi)
                invertible = True
            except SingularOperator:
                invertible = False
            try:
                wiener_hopf_factorize(n, phi)
                factorizable = True
            except NoCanonicalFactorization:
                factorizable = False
            assert invertible == factorizable
            agreements += 1


class TestEquivalenceChaining:
    def test_inverse_through_monomial_space(self):
        rng = np.random.default_rng(9)
        chained = 0
        while chained < 5:
            n = int(rng.integers(1, 4))
            alpha = random_blaschke(rng, degree=n)
            psi = random_laurent(rng, low=-1, high=2)
            try:
                invert_direct(n, psi)
            except SingularOperator:
                continue
            zn = BlaschkeProduct((0.0,) * n)
            k_zn, k_alpha = build_space(zn), build_space(alpha)
            a = multiplier_between(k_zn, k_alpha)
            phi = circle_conjugate(a).inverse() * psi * a.inverse()
            res = equivalence_transform(alpha, alpha, zn, zn, phi)
            assert res.tilde_symbol.isclose(psi, tol=1e-8)
            fact = wiener_hopf_factorize(n, psi)
            mid_inverse = np.column_stack(
                [
                    k_zn.coordinates(tto_inverse_via_wh(n, psi, RationalFn.monomial(j), fact))
                    for j in range(n)
                ]
            )
            chain = np.linalg.inv(res.F.entries) @ mid_inverse @ np.linalg.inv(res.E.entries)
            direct = np.linalg.inv(tto_matrix(k_alpha, k_alpha, phi).entries)
            scale = 1.0 + np.linalg.norm(direct)
            assert np.linalg.norm(chain - direct) < 1e-8 * scale
            chained += 1
