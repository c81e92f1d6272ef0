"""Model spaces: bases, kernels, projections, multipliers, Crofoot maps."""

import numpy as np
import pytest

from mst.blaschke import BlaschkeProduct
from mst.modelspace import (
    NoMultiplierError,
    annihilator_defect,
    build_space,
    crofoot_defect_matrix,
    crofoot_gram_check,
    crofoot_isometry_check,
    crofoot_multiplier,
    multiplier_between,
    projection_transport_defect,
    reproducing_kernels,
)
from mst.operators import tto_matrix
from mst.rational import (
    ComplexPoly,
    RationalFn,
    circle_conjugate,
    inner_product,
    norm2,
    riesz_project,
    unit_circle_samples,
)
from mst.sampling import random_blaschke, random_disk_points, random_rational

Z2 = BlaschkeProduct((0.0, 0.0))
THIRD = 1.0 / 3.0
ALPHA = BlaschkeProduct((0.5, THIRD))  # degree-two product used throughout
Z = RationalFn.monomial(1)
ONE = RationalFn.one()


class TestBasis:
    def test_monomial_space(self):
        space = build_space(Z2)
        assert space.dim == 2
        assert space.basis[0].isclose(ONE)
        assert space.basis[1].isclose(Z)

    def test_single_zero_space(self):
        space = build_space(BlaschkeProduct((0.5,)))
        expected = RationalFn(
            ComplexPoly([np.sqrt(3.0) / 2.0]), ComplexPoly([1.0, -0.5])
        )
        assert len(space.basis) == 1
        assert space.basis[0].isclose(expected)
        # oracle: this is the normalized reproducing kernel at 1/2
        assert abs(norm2(space.basis[0]) - 1.0) < 1e-12

    def test_degree_zero_space(self):
        space = build_space(BlaschkeProduct(()))
        assert space.dim == 0 and space.basis == ()

    def test_gram_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            space = build_space(random_blaschke(rng, max_degree=5))
            g = space.gram()
            assert np.linalg.norm(g - np.eye(space.dim)) < 1e-10

    def test_basis_samples_match_basis(self):
        rng = np.random.default_rng(31)
        z = unit_circle_samples(64)
        for degree in (1, 3, 6):
            space = build_space(random_blaschke(rng, degree=degree))
            samples = space.basis_samples(z)
            assert samples.shape == (degree, 64)
            for row, e in zip(samples, space.basis):
                assert np.max(np.abs(row - e(z))) < 1e-13
        assert build_space(BlaschkeProduct(())).basis_samples(z).shape == (0, 64)

    def test_basis_elements_analytic_and_inside(self):
        rng = np.random.default_rng(29)
        space = build_space(random_blaschke(rng, degree=4))
        for e in space.basis:
            assert riesz_project(e).antianalytic.is_zero
            assert space.contains(e, tol=1e-10)


class TestReproducingKernels:
    def test_monomial_kernels_at_zero(self):
        pair = reproducing_kernels(build_space(Z2), 0.0)
        assert pair.k.isclose(ONE)
        assert pair.k_tilde.isclose(Z)

    def test_monomial_kernel_at_half(self):
        pair = reproducing_kernels(build_space(Z2), 0.5)
        # oracle: polynomial division of 1 - z^2/4 by 1 - z/2
        assert pair.k.isclose(RationalFn(ComplexPoly([1.0, 0.5])))

    def test_conjugate_kernel_alpha(self):
        space = build_space(ALPHA)
        pair = reproducing_kernels(space, 0.0)
        theta = space.rational
        expected = (theta - complex(theta(0.0))) / Z
        assert pair.k_tilde.isclose(expected, tol=1e-10)

    def test_reproducing_property(self):
        rng = np.random.default_rng(31)
        for _ in range(4):
            space = build_space(random_blaschke(rng, max_degree=4))
            for lam in random_disk_points(rng, 10):
                pair = reproducing_kernels(space, lam)
                assert space.membership_residual(pair.k) < 1e-9
                assert space.membership_residual(pair.k_tilde) < 1e-9
                for f in space.basis:
                    assert pair.reproducing_defect(f) < 1e-9

    def test_reproducing_defect_negative_control(self):
        # theta is orthogonal to the space, so <theta, k> = 0 != theta(lam)
        space = build_space(ALPHA)
        pair = reproducing_kernels(space, 0.2 - 0.1j)
        assert pair.reproducing_defect(space.rational) > 1e-3

    def test_boundary_point(self):
        space = build_space(ALPHA)
        pair = reproducing_kernels(space, 1.0)
        assert space.membership_residual(pair.k) < 1e-8
        assert pair.reproducing_defect(space.basis[0]) < 1e-8


class TestProjection:
    def test_truncation(self):
        space = build_space(Z2)
        f = RationalFn.monomial(3) + Z
        assert space.project(f).isclose(Z, tol=1e-10)

    def test_antianalytic_annihilated(self):
        space = build_space(Z2)
        assert space.project(RationalFn.monomial(-1)).is_zero

    def test_constant_extraction(self):
        space = build_space(Z2)
        f = 2.0 + 5.0 * RationalFn.monomial(2)
        assert space.project(f).isclose(2.0 * ONE, tol=1e-10)

    def test_complement(self):
        space = build_space(Z2)
        f2 = RationalFn.monomial(2)
        assert space.complement_project(f2).isclose(f2, tol=1e-10)
        assert space.complement_project(ONE).is_zero
        mixed = RationalFn.monomial(-1) + Z
        assert space.complement_project(mixed).isclose(RationalFn.monomial(-1), tol=1e-10)

    def test_idempotent_selfadjoint(self):
        rng = np.random.default_rng(37)
        space = build_space(random_blaschke(rng, degree=3))
        for _ in range(10):
            f = random_rational(rng)
            g = random_rational(rng)
            pf = space.project(f)
            assert norm2(space.project(pf) - pf) < 1e-10 * (1.0 + norm2(pf))
            scale = 1.0 + norm2(f) * norm2(g)
            assert abs(inner_product(pf, g) - inner_product(f, space.project(g))) < 1e-9 * scale


# f with two inside poles, two outside poles and a polynomial part
MIXED = RationalFn(
    ComplexPoly([1.0, -0.5j, 0.25, 2.0 - 1.0j, 0.3, -0.7j]),
    ComplexPoly.from_roots([0.5j, -0.3 + 0.1j, 1.8, -2.5j]),
)
COORDINATE_SPACES = (
    (0.5, THIRD),
    (0.0, 0.6 - 0.2j, -0.4j),  # a zero at the origin
    (0.3 + 0.4j, 0.3 + 0.4j, -0.7, 0.0, 0.0),  # repeated zeros
)
# 32 distinct zeros of modulus at most 0.8
_RADIUS, _TURN = np.random.default_rng(2011).uniform(0.0, 1.0, (2, 32))
ZEROS_32 = tuple(0.8 * np.sqrt(_RADIUS) * np.exp(2j * np.pi * _TURN))


def trapezoid_tto(zeros, symbol, nodes=1024):
    """``<symbol e_j, e_i>`` by the trapezoidal rule, on basis values from
    the product formula for ``e_k``."""
    z = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    values = []
    tail = np.ones(nodes, dtype=complex)
    for a in zeros:
        outer = 1.0 - np.conj(a) * z
        values.append(np.sqrt(1.0 - abs(a) ** 2) / outer * tail)
        tail = tail * (z - a) / outer
    e = np.array(values)
    return (np.conj(e) * symbol(z)) @ e.T / nodes


class TestCoordinates:
    @pytest.mark.parametrize("zeros", COORDINATE_SPACES)
    @pytest.mark.parametrize(
        "f",
        (
            MIXED,
            RationalFn(ComplexPoly([1.0, 0.0, 1.0]), ComplexPoly([-0.4j, 1.0])),
            RationalFn(ComplexPoly([2.0, 1.0]), ComplexPoly([-1.5, 1.0])),
            RationalFn.monomial(3) + 2.0,
        ),
        ids=("mixed", "inside-pole", "outside-pole", "polynomial"),
    )
    def test_matches_exact_pairings(self, zeros, f):
        space = build_space(BlaschkeProduct(zeros))
        pairings = np.array([inner_product(f, e) for e in space.basis])
        assert np.max(np.abs(space.coordinates(f) - pairings)) < 1e-12 * (1.0 + norm2(f))

    def test_zero_function_and_zero_space(self):
        space = build_space(BlaschkeProduct(COORDINATE_SPACES[2]))
        coords = space.coordinates(RationalFn.zero())
        assert coords.shape == (5,) and not np.any(coords)
        assert build_space(BlaschkeProduct(())).coordinates(MIXED).shape == (0,)

    def test_tto_matrix_against_trapezoid_at_32(self):
        space = build_space(BlaschkeProduct(ZEROS_32))
        entries = tto_matrix(space, space, MIXED).entries
        reference = trapezoid_tto(ZEROS_32, MIXED)
        assert np.max(np.abs(entries - reference)) < 1e-11 * (1.0 + np.max(np.abs(reference)))

    def test_trapezoid_catches_a_wrong_zero(self, monkeypatch):
        space = build_space(BlaschkeProduct(ZEROS_32))
        moved = ZEROS_32[:20] + (ZEROS_32[20] + 1e-6,) + ZEROS_32[21:]
        monkeypatch.setattr(space, "inner", BlaschkeProduct(moved))
        entries = tto_matrix(space, space, MIXED).entries
        reference = trapezoid_tto(ZEROS_32, MIXED)
        assert np.max(np.abs(entries - reference)) > 1e-9


class TestMultiplier:
    def test_monomial_to_alpha(self):
        a = multiplier_between(build_space(Z2), build_space(ALPHA))
        expected = RationalFn(
            ComplexPoly([1.0]), ComplexPoly([1.0, -0.5]) * ComplexPoly([1.0, -THIRD])
        )
        assert a.isclose(expected, tol=1e-10)

    def test_self_multiplier_is_constant(self):
        space = build_space(ALPHA)
        a = multiplier_between(space, space)
        assert a.isclose(ONE, tol=1e-10)

    def test_kernel_target(self):
        w = 0.3 - 0.2j
        target = build_space(BlaschkeProduct((w,)))
        a = multiplier_between(build_space(BlaschkeProduct((0.0,))), target)
        expected = ONE / RationalFn(ComplexPoly([1.0, -np.conj(w)]))
        assert a.isclose(expected, tol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(NoMultiplierError):
            multiplier_between(build_space(Z2), build_space(BlaschkeProduct((0.5,))))

    def test_invertible_analytic_both_ways(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            d = int(rng.integers(1, 5))
            src = build_space(random_blaschke(rng, degree=d))
            dst = build_space(random_blaschke(rng, degree=d))
            a = multiplier_between(src, dst)
            assert all(abs(r) > 1.0 for r in a.num.roots())
            assert all(abs(r) > 1.0 for r in a.den.roots())
            for e in src.basis:
                assert dst.contains(a * e)
            inv = a.inverse()
            for e in dst.basis:
                assert src.contains(inv * e)

    def test_projection_identity_through_multiplier(self):
        # P_target f = a P_src a^{-1} P_target f = P_target abar^{-1} P_src abar f
        rng = np.random.default_rng(43)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            src = build_space(random_blaschke(rng, degree=d))
            dst = build_space(random_blaschke(rng, degree=d))
            a = multiplier_between(src, dst)
            for _ in range(10):
                assert projection_transport_defect(src, dst, a, random_rational(rng)) < 1e-9

    def test_projection_transport_negative_control(self):
        # a * (1 + z/2) carries the source into no model space at all
        src, dst = build_space(Z2), build_space(ALPHA)
        a = multiplier_between(src, dst) * (ONE + 0.5 * Z)
        assert projection_transport_defect(src, dst, a, ONE + Z) > 1e-3

    def test_annihilator_duality(self):
        # conj(a) maps the target's annihilator into the source's
        rng = np.random.default_rng(47)
        src = build_space(random_blaschke(rng, degree=2))
        dst = build_space(random_blaschke(rng, degree=2))
        a = multiplier_between(src, dst)
        theta_dst = dst.rational
        for _ in range(10):
            analytic_tail = RationalFn(ComplexPoly(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
            anti = RationalFn(
                ComplexPoly(rng.standard_normal(2) + 1j * rng.standard_normal(2)),
                ComplexPoly.monomial(2),
            )
            anti = anti - riesz_project(anti).analytic  # keep strictly negative part
            g = theta_dst * analytic_tail + anti
            assert annihilator_defect(src, a, g) < 1e-9
        # negative control: a basis element of the target is no annihilator
        assert annihilator_defect(src, a, dst.basis[0]) > 1e-3


class TestCrofoot:
    def test_identity_shift(self):
        space = build_space(ALPHA)
        j, target = crofoot_multiplier(space, 0.0)
        assert j.isclose(ONE)
        assert target.inner.isclose(ALPHA)

    def test_shift_of_z(self):
        space = build_space(BlaschkeProduct((0.0,)))
        j, target = crofoot_multiplier(space, 0.5)
        expected = RationalFn(ComplexPoly([np.sqrt(3.0) / 2.0]), ComplexPoly([1.0, -0.5]))
        assert j.isclose(expected, tol=1e-12)
        assert target.inner.same_space(BlaschkeProduct((0.5,)))

    def test_isometry_gram(self):
        rng = np.random.default_rng(53)
        for degree in (1, 3, 5):
            space = build_space(random_blaschke(rng, degree=degree))
            w = 0.8 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            j, target = crofoot_multiplier(space, w)
            assert crofoot_gram_check(space, j)[0] < 1e-9
            for e in space.basis:
                assert target.contains(j * e)

    def test_parameter_outside_disk(self):
        with pytest.raises(ValueError):
            crofoot_multiplier(build_space(Z2), 1.2)

    def test_defect_matrix_is_minus_the_compression(self):
        # G - I = -(compression of 1 - |J|^2), away from the circle where
        # the residue path still resolves the degree-doubled symbol
        rng = np.random.default_rng(59)
        for degree in (1, 2, 4):
            space = build_space(random_blaschke(rng, degree=degree))
            j, _ = crofoot_multiplier(space, 0.3 - 0.2j)
            defect = crofoot_defect_matrix(space, j)
            symbol = ONE - j * circle_conjugate(j)
            assert np.max(np.abs(defect + tto_matrix(space, space, symbol).entries)) < 1e-12
            residual, vanishes = crofoot_gram_check(space, j)
            assert residual == float(np.linalg.norm(defect)) and vanishes

    def test_gram_check_negative_control(self):
        # 2 J doubles every image norm
        space = build_space(ALPHA)
        j, _ = crofoot_multiplier(space, 0.3 - 0.2j)
        residual, vanishes = crofoot_gram_check(space, 2.0 * j)
        assert residual > 1.0 and not vanishes


class TestCrofootIsometryCheck:
    def test_constant_h_with_matching_k(self):
        k = np.sqrt(0.75)
        for b in (Z2, ALPHA, BlaschkeProduct((0.2j,))):
            assert crofoot_isometry_check(b, RationalFn(ComplexPoly([0.5])), k)

    def test_constant_h_degree_five(self):
        # third of 20 degree-5 spaces drawn by random_disk_points(rng, 5)
        # from default_rng(5); the exact compression of the degree-doubled
        # 1 - |J|^2 read it as non-isometric
        b = BlaschkeProduct((
            0.4084415877565136 - 0.43446171778443404j,
            0.05919926231565472 + 0.4125826877615532j,
            0.5941601700750202 - 0.45820349543709643j,
            0.14079978403435933 - 0.145851502205771j,
            0.6548424421808291 + 0.07653467875624134j,
        ))
        w = 0.7 - 0.3j
        h = RationalFn(ComplexPoly([np.conj(w)]))
        assert crofoot_isometry_check(b, h, np.sqrt(1.0 - abs(w) ** 2))
        assert not crofoot_isometry_check(b, h, 1.0)

    def test_constant_h_with_wrong_k(self):
        assert not crofoot_isometry_check(Z2, RationalFn(ComplexPoly([0.5])), 1.0)

    def test_zero_h(self):
        assert crofoot_isometry_check(Z2, RationalFn.zero(), 1.0)

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError):
            crofoot_isometry_check(Z2, RationalFn.zero(), 0.0)
