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
    _system,
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

    def test_solves_at_the_bound_the_symbol_fixes(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, low, high = int(rng.integers(1, 6)), int(rng.integers(-3, 1)), int(rng.integers(0, 4))
            phi = random_laurent(rng, low, high)
            try:
                fact = wiener_hopf_factorize(n, phi)
            except (NoCanonicalFactorization, DegreeCapExceeded):
                continue
            assert fact.degree_bound == max(n, phi.num.degree - phi.den.degree)

    def test_no_factorization_above_the_bound(self):
        # near-singular (cond 7.0e9): above the one consistent bound, 3, a
        # solve passes its gate with a factorization that recombines to
        # within 1.09 only; at the bound it fails, so the verdict is
        # undetermined
        phi = RationalFn(
            ComplexPoly([0.0375788630733165 + 0.08644613899469755j, 4.936460174881363e-05]),
            ComplexPoly.monomial(1),
        )
        with pytest.raises(DegreeCapExceeded, match="degree bound 3"):
            wiener_hopf_factorize(3, phi)

    @pytest.mark.parametrize("pole", [1e-11, 1e-9, 5e-9])
    def test_rejects_pole_near_origin(self, pole):
        # a pole off the origin, however close, is no Laurent polynomial
        phi = RationalFn(ComplexPoly([1.0, 0.3]), ComplexPoly([-pole, 1.0]))
        with pytest.raises(ValueError, match="Laurent polynomial"):
            wiener_hopf_factorize(2, phi)

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


def row_by_row_system(n, coeffs, lo, bound):
    """The factorization system assembled one constraint row at a time: the
    pins of ``zbar**n p11`` and ``zbar**n p12``, then the nonnegative
    frequencies of ``phi p11 + z**n p21`` and ``phi p12 + z**n p22``,
    skipping rows with no entry and a zero right-hand side."""
    width = bound + 1
    rows, rhs = [], []

    def add_row(entries, value):
        row = np.zeros(4 * width, dtype=complex)
        for idx, c in entries:
            row[idx] += c
        rows.append(row)
        rhs.append(value)

    for which, target in ((0, 1.0), (1, 0.0)):
        for t in range(0, bound - n + 1):
            add_row([(which * width + t + n, 1.0)], target if t == 0 else 0.0)
    t_max = max(lo + len(coeffs) - 1, n) + bound
    for top, bottom, target in ((0, 2, 0.0), (1, 3, 1.0)):
        for t in range(0, t_max + 1):
            entries = [(top * width + t - lo - j, c) for j, c in enumerate(coeffs)
                       if 0 <= t - lo - j <= bound and c != 0]
            if 0 <= t - n <= bound:
                entries.append((bottom * width + t - n, 1.0))
            if not entries and (t > 0 or target == 0.0):
                continue
            add_row(entries, target if t == 0 else 0.0)
    return np.vstack(rows), np.asarray(rhs, dtype=complex)


class TestSystem:
    def test_matches_row_by_row_assembly(self):
        # symbol powers lo .. hi inside -3 .. 3, each with a zero interior
        # coefficient where there is one; the all-zero symbol too
        rng = np.random.default_rng(24)
        cases = 0
        for lo in range(-3, 4):
            for hi in range(lo - 1, 4):
                coeffs = rng.standard_normal(hi - lo + 1) + 1j * rng.standard_normal(hi - lo + 1)
                if coeffs.size > 2:
                    coeffs[coeffs.size // 2] = 0.0
                for n in range(1, 7):
                    for bound in (n, n + 1, n + 2):
                        matrix, vector = _system(n, coeffs, lo, bound)
                        ref_matrix, ref_vector = row_by_row_system(n, coeffs, lo, bound)
                        assert np.array_equal(matrix, ref_matrix), (lo, hi, n, bound)
                        assert np.array_equal(vector, ref_vector), (lo, hi, n, bound)
                        cases += 1
        assert cases == 35 * 18


def exact_section_inverse(n, phi):
    """The inverse of the Toeplitz section ``(phi^(i - j))`` of a Laurent
    polynomial, in 50-digit ``mpmath``, rounded to complex."""
    mpmath = pytest.importorskip("mpmath")
    num, m = phi.num.coeffs, phi.den.degree
    with mpmath.workdps(50):
        t = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                if 0 <= i - j + m < len(num):
                    t[i, j] = mpmath.mpc(num[i - j + m])
        inv = t ** -1
        return np.array([[complex(inv[i, j]) for j in range(n)] for i in range(n)])


class TestInverseFormula:
    def test_inverse_matches_exact_section_inverse(self):
        # powers up to n + 2 need degree bounds above n
        rng = np.random.default_rng(6)
        checked = above_n = 0
        while checked < 30:
            n = int(rng.integers(2, 7))
            phi = random_laurent(rng, low=-2, high=n + 2 if checked % 3 == 0 else 2)
            try:
                fact = wiener_hopf_factorize(n, phi)
            except (NoCanonicalFactorization, DegreeCapExceeded):
                continue
            exact = exact_section_inverse(n, phi)
            if np.linalg.cond(exact) >= 1e2:
                continue
            checked += 1
            above_n += fact.degree_bound > n
            deviation = np.max(np.abs(fact.inverse() - exact)) / np.max(np.abs(exact))
            assert deviation < 1e-12, (n, fact.degree_bound, deviation)
        assert above_n > 0

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

    def test_inverse_column_defects_read_a_perturbed_factor(self):
        phi = ONE + (5.0 / 6.0) * Z
        fact = wiener_hopf_factorize(2, phi)
        direct = invert_direct(2, phi)
        fact.g_plus_inv[0][1] = fact.g_plus_inv[0][1] + ComplexPoly([0.0, 1e-3])
        assert np.max(fact.inverse_column_defects(direct)) > 5e-4


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
