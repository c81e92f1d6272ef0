"""Rational-function core: arithmetic, involution, splitting, pairing."""

import contextlib
import math
import types

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

import mst.rational
from mst.blaschke import BlaschkeProduct
from mst.modelspace import ModelSpace
from mst.rational import (
    MAX_CIRCLE_NODES,
    _cancel_common_factors,
    _horner,
    _poly_from_roots,
    _shift_down,
    _split_solve,
    _trim,
    _valuation,
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


class TestComplexPolyOwnsCoefficients:
    def test_later_write_to_input_leaves_polynomial(self):
        a = np.array([1, 2, 3], dtype=complex)
        p = ComplexPoly(a)
        a[2] = 0
        assert p.degree == 2 and p.lead == 3
        assert not np.shares_memory(p.coeffs, a)

    @pytest.mark.parametrize("make", (
        lambda: np.array([1.0, 2.0, 0.0], dtype=complex),
        lambda: np.arange(1, 7, dtype=complex).reshape(2, 3),
        lambda: np.arange(1, 7, dtype=complex)[::2],
        lambda: np.array([1.0, 2.0]),
    ), ids=("trimmed", "raveled", "strided", "converted"))
    def test_no_input_array_is_shared(self, make):
        a = make()
        assert not np.shares_memory(ComplexPoly(a).coeffs, a)


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


def split_systems(specs, seed=0):
    """One system per ``(deg D, deg Q, len R)``: ``D`` with roots within
    radius 0.9, ``Q`` with roots beyond 1.1, random ``R``."""
    rng = np.random.default_rng(seed)

    def roots(count, lo, hi):
        return rng.uniform(lo, hi, count) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))

    d_ins = [npp.polyfromroots(roots(mi, 0.0, 0.9)) for mi, _, _ in specs]
    outs = [npp.polyfromroots(roots(mo, 1.1, 2.0)) for _, mo, _ in specs]
    rhs = [rng.standard_normal(r) + 1j * rng.standard_normal(r) for _, _, r in specs]
    return d_ins, rhs, outs


class TestSplitSolve:
    @pytest.mark.parametrize(
        "specs",
        (
            [(3, 2 + j, 4 + j) for j in range(8)],  # growing outside degree and R
            # deg D = 0, a Q longer than the system, R longer than Q D
            [(1, 0, 2), (6, 6, 3), (2, 9, 12), (0, 4, 5), (0, 12, 3), (3, 1, 1), (1, 0, 1)],
        ),
        ids=("growing", "mixed"),
    )
    def test_matches_mpmath(self, specs):
        # one system per call: the gathered matrix, the column scaling and
        # the two refinements against the 40-digit solution
        for d_in, rhs, out in zip(*split_systems(specs, seed=1)):
            found = _split_solve(d_in, rhs, out)
            exact = mp_split_solve(d_in, rhs, out)
            assert found.shape == exact.shape
            assert np.max(np.abs(found - exact)) <= 1e-13 * np.max(np.abs(exact))

    def test_refinement_recovers_clustered_poles(self):
        # six poles at radius 0.9 facing six at 1.1 across the circle, all
        # near one angle: the plain solve reads 2e-8 to 2e-6 against the
        # 40-digit solution, the two refinement steps 1e-11 to 1e-9
        rng = np.random.default_rng(0)
        for _ in range(10):
            d_in = npp.polyfromroots(0.9 * np.exp(1j * (0.3 + 0.3 * rng.standard_normal(6))))
            out = npp.polyfromroots(1.1 * np.exp(1j * (0.3 + 0.3 * rng.standard_normal(6))))
            rhs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            found = _split_solve(d_in, rhs, out)
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


def mp_pairings(f, g, nodes):
    """``<f, g>``, ``<f, f>`` and ``<g, g>`` by the trapezoidal rule on
    ``nodes`` circle points in 50-digit ``mpmath``, from the coefficients of
    ``f`` and ``g``: with every pole at least a factor ``rho`` off the
    circle the rule errs by ``O(rho**-nodes)``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        points = [mpmath.expjpi(mpmath.mpf(2 * k) / nodes) for k in range(nodes)]

        def samples(h):
            num = [mpmath.mpc(c) for c in h.num.coeffs[::-1]]
            den = [mpmath.mpc(c) for c in h.den.coeffs[::-1]]
            return [mpmath.polyval(num, z) / mpmath.polyval(den, z) for z in points]

        def pair(u, v):
            return complex(mpmath.fsum(a * mpmath.conj(b) for a, b in zip(u, v)) / nodes)

        fs, gs = samples(f), samples(g)
        return pair(fs, gs), pair(fs, fs).real, pair(gs, gs).real


def ring(radius, *angles):
    return list(radius * np.exp(1j * np.array(angles)))


def poles_at(num, poles):
    return RationalFn(ComplexPoly(num), ComplexPoly.from_roots(poles))


class TestPairingKernel:
    """``_pair_with_conjugate`` through ``inner_product`` and ``norm2`` at
    degree <= 4, against the 50-digit rule of :func:`mp_pairing`.  Each case
    is ``(f, g, nodes, tol)``, the tolerance relative to ``1 + ||f||^2 +
    ||g||^2``: the clustered case loses digits to the eigen-solve that splits
    its mixed poles (it reads 4e-12; pairing the reduced product ``f *
    conj(g)`` read 7e-7)."""

    P = 0.6 * np.exp(0.7j)
    CASES = {
        "outside only": ([[1.0, 0.5j], [2.0 - 1.0j]], [[1.5, -2.0j], [1.3 * np.exp(2.0j)]], 256, 1e-14),
        "inside only": ([[0.3, 1.0, -0.5j], [0.5j, -0.4]], [[1.0j, 0.2], [-0.7 + 0.1j]], 256, 1e-14),
        "origin pole": ([[1.0, 2.0, 0.5j], [0.0, 0.0]], [[1.0, 0.5], [0.5j, 2.0]], 128, 1e-14),
        "reflected pair": ([[1.0, -1.0j], [P]], [[0.5, 2.0, 1.0j], [1.0 / np.conj(P)]], 256, 1e-14),
        "clustered": ([[1.0, 0.3, -0.2j, 0.1, 0.5], ring(0.9, 0.3, 0.31) + ring(1.1, 0.32, 0.35)],
                      [[0.4j, 1.0, 0.2], ring(1.1, 0.3, 0.34) + ring(0.9, 0.33, 0.36)], 1024, 1e-10),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_mpmath(self, case):
        (f_num, f_poles), (g_num, g_poles), nodes, tol = self.CASES[case]
        f, g = poles_at(f_num, f_poles), poles_at(g_num, g_poles)
        exact, f_sq, g_sq = mp_pairings(f, g, nodes)
        scale = 1.0 + f_sq + g_sq
        assert abs(inner_product(f, g) - exact) < tol * scale
        assert abs(inner_product(g, f) - np.conj(exact)) < tol * scale
        assert abs(norm2(f) ** 2 - f_sq) < tol * scale
        assert abs(norm2(g) ** 2 - g_sq) < tol * scale

    def test_rule_resolves_the_clustered_case(self):
        # negative control for the oracle: 64 nodes leave an aliasing error
        # of order 1.1**-64, far above the tolerance
        (f_num, f_poles), (g_num, g_poles), *_ = self.CASES["clustered"]
        f, g = poles_at(f_num, f_poles), poles_at(g_num, g_poles)
        assert abs(mp_pairings(f, g, 64)[0] - inner_product(f, g)) > 1e-6


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
    """Equal dtype, shape and bytes: the sign of a zero counts."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_coeffs(rng, degree):
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return c * 10.0 ** rng.uniform(-4, 4, degree + 1)


# The numpy implementations the scalar kernels replaced, kept as the
# references the parity tests hold them to bit for bit.


def numpy_trim(coeffs):
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size == 0:
        return c
    mags = np.abs(c)
    scale = float(mags.max())
    if not math.isfinite(scale):
        raise ValueError("coefficients must be finite")
    if scale == 0.0:
        return c[:0]
    keep = (mags > 1e-12 * max(1.0, scale)).nonzero()[0]
    if keep.size == 0:
        return c[:0]
    return c[: keep[-1] + 1]


def numpy_valuation(p):
    c = p.coeffs
    if c.size == 0:
        return 0
    mags = np.abs(c)
    significant = (mags > 1e-12 * max(1.0, float(mags.max()))).nonzero()[0]
    return int(significant[0]) if significant.size else 0


def numpy_roots(self):
    if self.degree < 1:
        return np.zeros(0, dtype=complex)
    low = int(np.flatnonzero(self.coeffs)[0])
    p = self.coeffs[low:][::-1]
    if len(p) > 1:
        companion = np.eye(len(p) - 1, k=-1, dtype=complex)
        companion[0, :] = -p[1:] / p[0]
        found = np.linalg.eigvals(companion)
    else:
        found = np.array([])
    if low:
        found = np.concatenate((found, np.zeros(low, found.dtype)))
    return found


@contextlib.contextmanager
def numpy_kernels():
    """Runs ``ComplexPoly`` on the numpy trim and roots and ``RationalFn`` on
    the numpy valuation inside the block."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mst.rational, "_trim", numpy_trim)
        m.setattr(mst.rational, "_valuation", numpy_valuation)
        m.setattr(ComplexPoly, "roots", numpy_roots)
        yield


def numpy_rational(num, den):
    """``(num, den)`` coefficients of ``RationalFn(num, den)`` as built from
    ``ComplexPoly`` products, monomial factors included."""
    n, d = ComplexPoly(num), ComplexPoly(den)
    if n.is_zero:
        return ComplexPoly().coeffs, ComplexPoly([1.0]).coeffs
    vn, vd = mst.rational._valuation(n), mst.rational._valuation(d)
    common = min(vn, vd)
    vn, vd = vn - common, vd - common
    n_rest = _shift_down(n, common + vn)
    d_rest = _shift_down(d, common + vd)
    if n_rest.degree > 0 and d_rest.degree > 0:
        n_rest, d_rest, _ = _cancel_common_factors(n_rest, d_rest)
    scale = 1.0 / d_rest.lead
    return (ComplexPoly((n_rest * ComplexPoly.monomial(vn)).coeffs * scale).coeffs,
            ComplexPoly((d_rest * ComplexPoly.monomial(vd)).coeffs * scale).coeffs)


def numpy_space_build(inner):
    """``(_parts, _den_full, L)`` of ``ModelSpace(inner)`` built from
    ``ComplexPoly`` products."""
    factors = [ComplexPoly([1.0, -np.conj(a)]) for a in inner.zeros]
    parts = []
    tail_num = ComplexPoly([1.0])
    tail_den = ComplexPoly([1.0])
    for k, a in enumerate(inner.zeros):
        weight = float(np.sqrt(1.0 - abs(a) ** 2))
        tail_den = tail_den * factors[k]
        parts.append((ComplexPoly(tail_num.coeffs * weight).coeffs, tail_den.coeffs))
        tail_num = tail_num * ComplexPoly([-a, 1.0])
    n = inner.degree
    lifts = np.zeros((n, n), dtype=complex)
    cofactor = ComplexPoly([1.0])
    for k in range(n - 1, -1, -1):
        lifted = (ComplexPoly(parts[k][0]) * cofactor).coeffs
        lifts[: lifted.size, k] = lifted
        cofactor = cofactor * factors[k]
    return parts, tail_den.coeffs, lifts


def trim_case(rng):
    """A coefficient array of length 0-40 at a scale from 1e-20 to 1e20,
    with exact zeros, leading zeros and low and trailing coefficients at
    1e-13 to 1e-11 of the trimming floor's scale."""
    n = int(rng.integers(0, 41))
    c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-20, 20)
    if n == 0:
        return c
    c[rng.uniform(size=n) < 0.15] = 0.0
    floor_scale = max(1.0, float(np.max(np.abs(c))))
    for end in (slice(n - int(rng.integers(0, 4)), n), slice(0, int(rng.integers(0, 3)))):
        k = len(c[end])
        phases = np.exp(2j * np.pi * rng.uniform(size=k))
        c[end] = phases * 10.0 ** rng.uniform(-13, -11, k) * floor_scale
    if rng.uniform() < 0.3:
        c[: int(rng.integers(1, 3))] = 0.0
    return c


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

    def test_trim_and_valuation_match_numpy(self):
        rng = np.random.default_rng(106)
        for _ in range(10_000):
            c = trim_case(rng)
            for given in (c, c.tolist(), c[::-1]):
                out, ref = _trim(given), numpy_trim(given)
                assert same_bits(out, ref)
                assert out.flags.c_contiguous == ref.flags.c_contiguous
            raw = types.SimpleNamespace(coeffs=c)  # valuation of an untrimmed array too
            assert _valuation(raw) == numpy_valuation(raw)
            p = ComplexPoly(c)
            assert _valuation(p) == numpy_valuation(p)

    def test_degree_one_roots_match_np_roots(self):
        # the entry of the 1 x 1 companion matrix is its eigenvalue as LAPACK
        # returns it, over 16 decades and down to 1e-120 (LAPACK rescales the
        # matrix first below 2**-459)
        rng = np.random.default_rng(107)
        for _ in range(2_000):
            root, lead = np.exp(2j * np.pi * rng.uniform(size=2)) * 10.0 ** rng.uniform(-8, 8, 2)
            c = np.concatenate((np.zeros(int(rng.integers(0, 3))), [-root * lead, lead]))
            p = ComplexPoly(c)
            assert p.degree == len(c) - 1
            assert same_bits(p.roots(), np.roots(c[::-1]))
        for e in (-120, -60):  # trimming keeps every root below 1e12 in modulus
            c = np.array([10.0**e * (0.3 - 0.7j), 0.9 + 0.2j])
            assert same_bits(ComplexPoly(c).roots(), np.roots(c[::-1]))

    def test_rational_construction_matches_numpy(self):
        # negated inputs carry -0.0 parts, which a product by z**0 turns into
        # +0.0; the constructor must keep that without the product
        rng = np.random.default_rng(108)
        for trial in range(600):
            inside = rng.uniform(0.1, 0.8, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
            outside = rng.uniform(1.25, 3.0, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
            poles = np.concatenate((inside, outside))[: int(rng.integers(1, 5))]
            den = npp.polyfromroots(poles)
            if trial % 3 == 0:  # a common factor to cancel
                num = npp.polyfromroots([poles[0], rng.standard_normal()])
            elif trial % 3 == 1:  # real coefficients
                num = rng.standard_normal(int(rng.integers(1, 5))).round(1)
            else:
                num = random_coeffs(rng, int(rng.integers(0, 4)))
            num = np.concatenate((np.zeros(int(rng.integers(0, 3))), num))
            den = np.concatenate((np.zeros(int(rng.integers(0, 3))), den))
            den = den * (0.5 - 1j) ** (trial % 2)  # monic or not
            for n in (num, -np.asarray(num, dtype=complex)):
                f = RationalFn(ComplexPoly(n), ComplexPoly(den))
                with numpy_kernels():
                    ref_num, ref_den = numpy_rational(n, den)
                assert same_bits(f.num.coeffs, ref_num) and same_bits(f.den.coeffs, ref_den)
        f = RationalFn(-ComplexPoly([1.0, 0.0, -2.0]))
        assert np.signbit(f.num.coeffs.imag).tolist() == [False, False, False]

    def test_model_space_build_matches_numpy(self):
        rng = np.random.default_rng(109)
        cases = [(), (0.0,), (0.0, 0.0, 0.5), (0.3j, 0.3j, 0.3j, -0.5), (1e-13, 0.2, 1e-13j),
                 (0.95, -0.95j, 0.95 * np.exp(1j))]
        for n in (1, 2, 3, 5, 8, 16, 24, 32):
            for radius in (0.5, 0.8, 0.95):
                zeros = radius * np.sqrt(rng.uniform(size=n))
                zeros = zeros * np.exp(2j * np.pi * rng.uniform(size=n))
                if n > 2:
                    zeros[-1], zeros[1] = zeros[0], 0.0  # a repeated zero, a zero at the origin
                cases.append(tuple(zeros))
        for zeros in cases:
            inner = BlaschkeProduct(zeros)
            space = ModelSpace(inner)
            with numpy_kernels():
                parts, den_full, lifts = numpy_space_build(inner)
            assert len(space._parts) == len(parts)
            for (num, den), (ref_num, ref_den) in zip(space._parts, parts):
                assert same_bits(num, ref_num) and same_bits(den, ref_den)
            assert same_bits(space._den_full.coeffs, den_full)
            assert same_bits(space.L, lifts)


class TestTrim:
    """Edge cases of the coefficient trim behind every ``ComplexPoly``."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_non_finite_raises_at_every_position(self, bad, position):
        c = np.array([1.0, 2.0 - 1j, 3.0, 0.5j, 4.0])
        c[position] = bad
        for given in (c, c.tolist()):
            with pytest.raises(ValueError, match="finite"):
                ComplexPoly(given)

    def test_all_below_floor_trims_to_empty(self):
        assert ComplexPoly([1e-13, 0.0, 5e-13j]).is_zero
        assert ComplexPoly(np.array([1e-13, 1e-12], dtype=complex)).is_zero  # the floor itself goes

    def test_floor_is_absolute_below_scale_one(self):
        # relative to the scale 1e-3 the floor would be 1e-15 and keep all three
        assert ComplexPoly([1e-3, 2e-12, 5e-13]).degree == 1
        # above scale one it is relative: 1e-12 * 1e3
        assert ComplexPoly([1e3, 5e-10]).degree == 0
        assert ComplexPoly([1e3, 2e-9]).degree == 1

    def test_exact_input_is_sliced_not_copied(self):
        # the library's own fresh arrays pass through; ComplexPoly copies
        a = np.array([1.0, 2.0, 0.0], dtype=complex)
        assert np.shares_memory(_trim(a), a) and len(_trim(a)) == 2
        assert np.shares_memory(ComplexPoly._adopt(a).coeffs, a)
        assert not np.shares_memory(ComplexPoly(a).coeffs, a)

    def test_leaves_the_callers_array_writable(self):
        for c in ([1.0, 2.0, 3.0], [1.0, 2.0, 0.0]):
            a = np.array(c, dtype=complex)
            p = ComplexPoly(a)
            assert a.flags.writeable and not p.coeffs.flags.writeable


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
