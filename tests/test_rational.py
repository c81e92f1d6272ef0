"""Rational-function core: arithmetic, involution, splitting, pairing."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

import mst.rational
from mst.rational import (
    MAX_CIRCLE_NODES,
    _horner,
    _poly_from_roots,
    _split_solve,
    fourier_block,
    CirclePoleError,
    ComplexPoly,
    FourierSplit,
    RationalFn,
    antianalytic_residual,
    circle_conjugate,
    circle_node_count,
    fourier_coefficient,
    inner_product,
    involution_defect,
    norm2,
    parseval_defect,
    riesz_project,
    riesz_selfadjoint_defect,
    unit_circle_samples,
)
from mst.sampling import random_rational


def rat(num, den=(1.0,)):
    return RationalFn(ComplexPoly(num), ComplexPoly(den))


Z = RationalFn.monomial(1)
ONE = RationalFn.one()


class TestArithmetic:
    def test_inverse_pair(self):
        f = rat([1.0], [1.0, -0.5])  # 1/(1 - z/2)
        g = rat([1.0, -0.5])
        assert (f * g).isclose(ONE)

    def test_z_plus_zbar(self):
        f = Z + RationalFn.monomial(-1)
        assert f.isclose(rat([1.0, 0.0, 1.0], [0.0, 1.0]))

    def test_div_structure(self):
        f = ONE / rat([-2.0, 1.0])  # 1 / (z - 2)
        assert np.allclose(f.num.coeffs, [1.0])
        assert np.allclose(f.den.coeffs, [-2.0, 1.0])

    def test_div_by_zero_function(self):
        with pytest.raises(ZeroDivisionError):
            ONE / RationalFn.zero()

    def test_reduction_cancels_common_roots(self):
        num = ComplexPoly.from_roots([0.5, 2.0])
        den = ComplexPoly.from_roots([0.5, 3.0])
        f = RationalFn(num, den)
        assert f.isclose(rat([-2.0, 1.0], [-3.0, 1.0]), tol=1e-10)

    def test_circle_pole_rejected(self):
        with pytest.raises(CirclePoleError):
            rat([1.0], [-1.0, 1.0])  # pole at z = 1

    def test_monic_denominator(self):
        f = rat([1.0], [2.0, 4.0])
        assert abs(f.den.lead - 1.0) < 1e-15


class TestCircleConjugate:
    def test_z_maps_to_reciprocal(self):
        assert circle_conjugate(Z).isclose(RationalFn.monomial(-1))

    def test_constant(self):
        c = RationalFn(ComplexPoly([2.0 + 3.0j]))
        assert circle_conjugate(c).isclose(RationalFn(ComplexPoly([2.0 - 3.0j])))

    def test_cayley_like_example(self):
        # oracle: on 16 circle samples the involution is the pointwise conjugate
        f = rat([1.0], [1.0, -0.5])
        g = circle_conjugate(f)
        zs = unit_circle_samples(16)
        assert np.max(np.abs(g(zs) - np.conj(f(zs)))) < 1e-12
        assert g.isclose(rat([0.0, 2.0], [-1.0, 2.0]))  # 2z / (2z - 1)

    def test_involution_on_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            assert involution_defect(random_rational(rng)) < 1e-12

    def test_involution_defect_negative_control(self, monkeypatch):
        # a conjugation off by a factor 1.001 no longer squares to the identity
        exact = mst.rational.circle_conjugate
        monkeypatch.setattr(mst.rational, "circle_conjugate", lambda f: 1.001 * exact(f))
        assert involution_defect(rat([1.0], [1.0, -0.5])) > 1e-3


class TestRieszProjection:
    def test_laurent_polynomial(self):
        f = RationalFn.monomial(-1) + 2.0 + 3.0 * Z
        split = riesz_project(f)
        assert split.analytic.isclose(rat([2.0, 3.0]))
        assert split.antianalytic.isclose(RationalFn.monomial(-1))

    def test_pole_outside_is_analytic(self):
        f = rat([1.0], [-2.0, 1.0])
        split = riesz_project(f)
        assert split.analytic.isclose(f)
        assert split.antianalytic.is_zero

    def test_pole_inside_is_antianalytic(self):
        f = rat([1.0], [-0.5, 1.0])
        split = riesz_project(f)
        assert split.analytic.is_zero
        assert split.antianalytic.isclose(f)
        # oracle: FFT of boundary samples sees only negative frequencies
        m = 128
        coeffs = np.fft.fft(f(unit_circle_samples(m))) / m
        assert np.max(np.abs(coeffs[1 : m // 2])) < 1e-10
        assert abs(coeffs[0]) < 1e-10

    def test_reconstruction_and_idempotence(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            f = random_rational(rng)
            split = riesz_project(f)
            assert split.reconstruction_defect(f) < 1e-10
            assert split.idempotence_defect() < 1e-12
            assert riesz_project(split.analytic).antianalytic.is_zero

    def test_split_defects_negative_control(self):
        f = rat([1.0], [-2.0, 1.0]) + RationalFn.monomial(-1)
        split = riesz_project(f)
        # a split with 0.01 z added no longer adds up to f
        shifted = FourierSplit(split.analytic + 0.01 * Z, split.antianalytic)
        assert shifted.reconstruction_defect(f) > 1e-3
        # an "analytic" half with a pole inside moves when split again
        assert FourierSplit(f, RationalFn.zero()).idempotence_defect() > 0.5

    def test_antianalytic_residual(self):
        assert antianalytic_residual(rat([1.0], [-0.5, 1.0])) < 1e-12
        # negative control: a constant 0.01 is analytic content
        assert antianalytic_residual(rat([1.0], [-0.5, 1.0]) + 0.01) > 1e-3

    def test_selfadjoint(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            f = random_rational(rng)
            g = random_rational(rng)
            assert riesz_selfadjoint_defect(f, g) < 1e-10

    def test_selfadjoint_negative_control(self, monkeypatch):
        # a projection that adds 0.5 to the analytic half of f (and of no
        # other function, the pairings included) is no longer selfadjoint
        f = ONE + Z
        exact = mst.rational.riesz_project

        def perturbed(h):
            split = exact(h)
            return FourierSplit(split.analytic + 0.5, split.antianalytic) if h is f else split

        monkeypatch.setattr(mst.rational, "riesz_project", perturbed)
        assert riesz_selfadjoint_defect(f, ONE) > 0.4


def mp_split_solve(d_in, rhs, out):
    """``_split_solve`` for one system, in 40-digit ``mpmath``: the unknowns
    are the coefficients of ``A`` (``deg A < deg D_in``), then of ``W``."""
    mpmath = pytest.importorskip("mpmath")
    mi = len(d_in) - 1
    size = max(len(rhs), len(out) - 1 + mi, mi + 1)
    with mpmath.workdps(40):
        m = mpmath.zeros(size, size)
        for i in range(mi):
            for t, c in enumerate(out):
                m[i + t, i] += mpmath.mpc(c)
        for k in range(size - mi):
            for t, c in enumerate(d_in):
                m[k + t, mi + k] += mpmath.mpc(c)
        b = mpmath.matrix([mpmath.mpc(c) for c in rhs] + [0] * (size - len(rhs)))
        return np.array([complex(v) for v in mpmath.lu_solve(m, b)])


class TestSplitSolve:
    def test_refinement_recovers_clustered_poles(self):
        # six poles at radius 0.9 facing six at 1.1 across the circle, all
        # near one angle: the plain solve reads 2e-8 to 2e-6 against the
        # 40-digit solution, the two refinement steps 1e-11 to 1e-9
        rng = np.random.default_rng(0)
        for _ in range(10):
            d_in = npp.polyfromroots(0.9 * np.exp(1j * (0.3 + 0.3 * rng.standard_normal(6))))
            out = npp.polyfromroots(1.1 * np.exp(1j * (0.3 + 0.3 * rng.standard_normal(6))))
            rhs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            w, a = _split_solve(d_in, [rhs], [out])
            found = np.concatenate((a[:, 0], w[:, 0]))
            exact = mp_split_solve(d_in, rhs, out)
            assert np.linalg.norm(found - exact) < 5e-9 * np.linalg.norm(exact)


class TestInnerProduct:
    def test_orthonormal_monomials(self):
        f = ONE + Z
        assert abs(inner_product(f, f) - 2.0) < 1e-14
        assert abs(inner_product(Z, ONE)) < 1e-14

    def test_szego_kernel_pairing(self):
        # oracle: geometric Fourier series sum((1/2)^k (1/3)^k)
        f = rat([1.0], [1.0, -0.5])
        g = rat([1.0], [1.0, -1.0 / 3.0])
        expected = sum((0.5 / 3.0) ** k for k in range(80))
        val = inner_product(f, g)
        assert abs(val - expected) < 1e-13
        assert abs(val - 1.2) < 1e-12

    def test_conjugate_symmetry_and_positivity(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            f = random_rational(rng)
            g = random_rational(rng)
            assert abs(inner_product(f, g) - np.conj(inner_product(g, f))) < 1e-10
            if not f.is_zero:
                assert inner_product(f, f).real > 0.0

    def test_parseval_cross_check(self):
        rng = np.random.default_rng(19)
        # poles at distance >= 0.2 from the circle: coefficient products decay
        # like 0.64^|n|, so |n| <= 80 leaves a tail far below 1e-12
        n_max = 80
        for _ in range(20):
            f = random_rational(rng)
            g = random_rational(rng)
            fb = fourier_block(f, n_max)
            # independent oracle for single coefficients: the raw monomial pairing
            for n in range(-6, 7):
                direct = inner_product(f, RationalFn.monomial(n))
                assert abs(fb[n_max + n] - direct) < 1e-12
                assert abs(fourier_coefficient(f, n) - direct) < 1e-12
            assert parseval_defect(f, g, n_max) < 1e-10

    def test_parseval_defect_negative_control(self):
        # |n| <= 2 misses sum_{k > 2} 0.81^k of ||1 / (1 - 0.9 z)||^2
        f = rat([1.0], [1.0, -0.9])
        assert parseval_defect(f, f, 2) > 1.0


class TestFourierCoefficients:
    def test_monomial(self):
        f = 3.0 * RationalFn.monomial(2)
        assert abs(fourier_coefficient(f, 2) - 3.0) < 1e-14

    def test_geometric(self):
        f = rat([1.0], [1.0, -0.5])
        assert abs(fourier_coefficient(f, 3) - 0.125) < 1e-14

    def test_negative_power(self):
        f = RationalFn.monomial(-1)
        assert abs(fourier_coefficient(f, 0)) < 1e-14
        assert abs(fourier_coefficient(f, -1) - 1.0) < 1e-14

    def test_norm(self):
        assert abs(norm2(ONE + Z) - np.sqrt(2.0)) < 1e-12


def same_bits(a, b) -> bool:
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(float), b.view(float)
    )


def random_coeffs(rng, degree):
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return c * 10.0 ** rng.uniform(-4, 4, degree + 1)


class TestNumpyKernelParity:
    """The kernels promise numpy's exact operations; a numpy release that
    changes its algorithms fails here instead of shifting outputs."""

    def test_horner_matches_polyval(self):
        rng = np.random.default_rng(101)
        for degree in list(range(0, 8)) + [15, 31]:
            for _ in range(40):
                c = random_coeffs(rng, degree)
                x = complex(rng.standard_normal(), rng.standard_normal())
                assert same_bits(_horner(c.tolist(), x), npp.polyval(np.complex128(x), c))
                mags, r = np.abs(c), abs(x)
                assert same_bits(_horner(mags.tolist(), r), npp.polyval(np.float64(r), mags))

    def test_derivative_matches_polyder(self):
        rng = np.random.default_rng(102)
        for degree in range(1, 12):
            c = random_coeffs(rng, degree)
            assert same_bits(c[1:] * np.arange(1, len(c)), npp.polyder(c))

    def test_roots_match_np_roots(self):
        rng = np.random.default_rng(103)
        cases = [random_coeffs(rng, d) for d in (1, 2, 3, 7, 16)]
        cases += [np.array([0.0, 0.0, 2.0 - 1j, 1.0]), np.array([0.0, 0.5j])]
        cases += [np.array([0.0, 0.0, 0.0, 3.0 + 0j])]  # c z^3: three exact zeros
        for c in cases:
            p = ComplexPoly(c)
            assert p.degree == len(c) - 1
            assert same_bits(p.roots(), np.roots(c[::-1]))

    def test_from_roots_matches_polyfromroots(self):
        rng = np.random.default_rng(104)
        cases = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (1, 2, 3, 5, 8, 17)]
        cases += [np.array([0.5, 0.5, 0.5 + 0j]), np.array([0.0, 0.3j, 0.0, -0.2 + 0j])]
        for r in cases:
            assert same_bits(_poly_from_roots(r), npp.polyfromroots(r))
            for lead in (1.0, 0.5 - 2j):
                expected = ComplexPoly(lead * npp.polyfromroots(r))
                assert same_bits(ComplexPoly.from_roots(r, lead).coeffs, expected.coeffs)
        assert same_bits(ComplexPoly.from_roots([]).coeffs, np.array([1.0 + 0j]))

    def test_product_and_sum_match_polymul_polyadd(self):
        rng = np.random.default_rng(105)
        for da, db in [(0, 0), (0, 3), (2, 2), (5, 1), (1, 9), (12, 12)]:
            a = ComplexPoly(random_coeffs(rng, da))
            b = ComplexPoly(random_coeffs(rng, db))
            for x, y in ((a, b), (b, a)):
                assert same_bits((x * y).coeffs, ComplexPoly(npp.polymul(x.coeffs, y.coeffs)).coeffs)
                assert same_bits((x + y).coeffs, ComplexPoly(npp.polyadd(x.coeffs, y.coeffs)).coeffs)


class TestCircleNodeCount:
    def test_floor_and_power_of_two(self):
        assert circle_node_count([]) == 64
        assert circle_node_count([0.0, 0.1]) == 64
        # 60 / ln(1.25) = 268.9 rounds up to 512, from either side of the circle
        assert circle_node_count([0.8]) == 512
        assert circle_node_count([1.25j, 0.3]) == 512

    def test_cap(self):
        assert circle_node_count([0.999]) <= MAX_CIRCLE_NODES
        with pytest.raises(CirclePoleError):
            circle_node_count([0.5, 1.0 + 1e-4])
