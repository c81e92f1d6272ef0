"""Model spaces: bases, kernels, projections, multipliers, Crofoot maps."""

import numpy as np
import pytest

import mst.verify
from mst.blaschke import BlaschkeProduct
from mst.modelspace import (
    ModelSpace,
    NoMultiplierError,
    _clark_rule,
    _symbol_zeros,
    annihilator_defect,
    basis_samples,
    crofoot_defect_matrix,
    crofoot_gram_check,
    crofoot_isometry_check,
    crofoot_multiplier,
    multiplier_between,
    projection_transport_defect,
    reproducing_kernels,
)
from mst.operators import multiplication_matrix, tto_matrix
from mst.rational import (
    CirclePoleError,
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
        space = ModelSpace(Z2)
        assert space.dim == 2
        assert space.basis[0].isclose(ONE)
        assert space.basis[1].isclose(Z)

    def test_single_zero_space(self):
        space = ModelSpace(BlaschkeProduct((0.5,)))
        expected = RationalFn(
            ComplexPoly([np.sqrt(3.0) / 2.0]), ComplexPoly([1.0, -0.5])
        )
        assert len(space.basis) == 1
        assert space.basis[0].isclose(expected)
        # oracle: this is the normalized reproducing kernel at 1/2
        assert abs(norm2(space.basis[0]) - 1.0) < 1e-12

    def test_degree_zero_space(self):
        space = ModelSpace(BlaschkeProduct(()))
        assert space.dim == 0 and space.basis == ()

    def test_gram_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            space = ModelSpace(random_blaschke(rng, max_degree=5))
            g = space.gram()
            assert np.linalg.norm(g - np.eye(space.dim)) < 1e-10

    def test_basis_samples_match_basis(self):
        rng = np.random.default_rng(31)
        z = unit_circle_samples(64)
        for degree in (1, 3, 6):
            inner = random_blaschke(rng, degree=degree)
            samples = basis_samples(inner, z)
            assert samples.shape == (degree, 64)
            for row, e in zip(samples, ModelSpace(inner).basis):
                assert np.max(np.abs(row - e(z))) < 1e-13
        assert basis_samples(BlaschkeProduct(()), z).shape == (0, 64)

    def test_change_of_basis_is_read_only(self):
        space = ModelSpace(ALPHA)
        with pytest.raises(ValueError):
            space.L[0, 0] = 5.0
        assert np.array_equal(space.gram(), ModelSpace(ALPHA).gram())

    @pytest.mark.parametrize("gap", [1e-9, 5e-9])
    def test_reflected_pole_in_band_is_rejected(self, gap):
        # e_k has its pole at 1 / (1 - gap), within POLE_TOL of the circle;
        # the constructor builds no RationalFn that would reject it
        with pytest.raises(CirclePoleError):
            ModelSpace(BlaschkeProduct((1.0 - gap,)))
        with pytest.raises(CirclePoleError):
            ModelSpace(BlaschkeProduct((0.3, (1.0 - gap) * np.exp(0.4j))))

    def test_reflected_pole_outside_band_builds(self):
        space = ModelSpace(BlaschkeProduct((1.0 - 2e-8,)))
        assert space.dim == 1 and len(space.basis) == 1

    def test_basis_elements_analytic_and_inside(self):
        rng = np.random.default_rng(29)
        space = ModelSpace(random_blaschke(rng, degree=4))
        for e in space.basis:
            assert riesz_project(e).antianalytic.is_zero
            assert space.contains(e, tol=1e-10)


class TestReproducingKernels:
    def test_monomial_kernels_at_zero(self):
        pair = reproducing_kernels(ModelSpace(Z2), 0.0)
        assert pair.k.isclose(ONE)
        assert pair.k_tilde.isclose(Z)

    def test_monomial_kernel_at_half(self):
        pair = reproducing_kernels(ModelSpace(Z2), 0.5)
        # oracle: polynomial division of 1 - z^2/4 by 1 - z/2
        assert pair.k.isclose(RationalFn(ComplexPoly([1.0, 0.5])))

    def test_conjugate_kernel_alpha(self):
        space = ModelSpace(ALPHA)
        pair = reproducing_kernels(space, 0.0)
        theta = space.rational
        expected = (theta - complex(theta(0.0))) / Z
        assert pair.k_tilde.isclose(expected, tol=1e-10)

    def test_reproducing_property(self):
        rng = np.random.default_rng(31)
        for _ in range(4):
            space = ModelSpace(random_blaschke(rng, max_degree=4))
            for lam in random_disk_points(rng, 10):
                pair = reproducing_kernels(space, lam)
                assert space.membership_residual(pair.k) < 1e-9
                assert space.membership_residual(pair.k_tilde) < 1e-9
                for f in space.basis:
                    assert pair.reproducing_defect(f) < 1e-9

    def test_reproducing_defect_negative_control(self):
        # theta is orthogonal to the space, so <theta, k> = 0 != theta(lam)
        space = ModelSpace(ALPHA)
        pair = reproducing_kernels(space, 0.2 - 0.1j)
        assert pair.reproducing_defect(space.rational) > 1e-3

    def test_boundary_point(self):
        space = ModelSpace(ALPHA)
        pair = reproducing_kernels(space, 1.0)
        assert space.membership_residual(pair.k) < 1e-8
        assert pair.reproducing_defect(space.basis[0]) < 1e-8


class TestProjection:
    def test_truncation(self):
        space = ModelSpace(Z2)
        f = RationalFn.monomial(3) + Z
        assert space.project(f).isclose(Z, tol=1e-10)

    def test_antianalytic_annihilated(self):
        space = ModelSpace(Z2)
        assert space.project(RationalFn.monomial(-1)).is_zero

    def test_constant_extraction(self):
        space = ModelSpace(Z2)
        f = 2.0 + 5.0 * RationalFn.monomial(2)
        assert space.project(f).isclose(2.0 * ONE, tol=1e-10)

    def test_complement(self):
        space = ModelSpace(Z2)
        f2 = RationalFn.monomial(2)
        assert space.complement_project(f2).isclose(f2, tol=1e-10)
        assert space.complement_project(ONE).is_zero
        mixed = RationalFn.monomial(-1) + Z
        assert space.complement_project(mixed).isclose(RationalFn.monomial(-1), tol=1e-10)

    def test_idempotent_selfadjoint(self):
        rng = np.random.default_rng(37)
        space = ModelSpace(random_blaschke(rng, degree=3))
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


def trapezoid_basis(zeros, z):
    """Basis values at ``z`` from the product formula for ``e_k``."""
    values = []
    tail = np.ones(z.size, dtype=complex)
    for a in zeros:
        outer = 1.0 - np.conj(a) * z
        values.append(np.sqrt(1.0 - abs(a) ** 2) / outer * tail)
        tail = tail * (z - a) / outer
    return np.array(values).reshape(len(zeros), z.size)


def trapezoid_tto(zeros, symbol, nodes=1024, codomain=None):
    """``<symbol e_j, f_i>`` by the trapezoidal rule, for the bases ``e`` of
    ``zeros`` and ``f`` of ``codomain`` (default: ``zeros`` again)."""
    z = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    e = trapezoid_basis(zeros, z)
    f = e if codomain is None else trapezoid_basis(codomain, z)
    return (np.conj(f) * symbol(z)) @ e.T / nodes


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
        space = ModelSpace(BlaschkeProduct(zeros))
        pairings = np.array([inner_product(f, e) for e in space.basis])
        assert np.max(np.abs(space.coordinates(f) - pairings)) < 1e-12 * (1.0 + norm2(f))

    def test_zero_function_and_zero_space(self):
        space = ModelSpace(BlaschkeProduct(COORDINATE_SPACES[2]))
        coords = space.coordinates(RationalFn.zero())
        assert coords.shape == (5,) and not np.any(coords)
        assert ModelSpace(BlaschkeProduct(())).coordinates(MIXED).shape == (0,)

    def test_tto_matrix_against_trapezoid_at_32(self):
        space = ModelSpace(BlaschkeProduct(ZEROS_32))
        entries = tto_matrix(space, space, MIXED).entries
        reference = trapezoid_tto(ZEROS_32, MIXED)
        assert np.max(np.abs(entries - reference)) < 1e-11 * (1.0 + np.max(np.abs(reference)))

    def test_trapezoid_catches_a_wrong_zero(self, monkeypatch):
        space = ModelSpace(BlaschkeProduct(ZEROS_32))
        moved = ZEROS_32[:20] + (ZEROS_32[20] + 1e-6,) + ZEROS_32[21:]
        monkeypatch.setattr(space, "inner", BlaschkeProduct(moved))
        entries = tto_matrix(space, space, MIXED).entries
        reference = trapezoid_tto(ZEROS_32, MIXED)
        assert np.max(np.abs(entries - reference)) > 1e-9


def engine_zeros(n, kind, seed):
    """``n`` zeros of modulus at most 0.95; ``repeated`` doubles the first,
    ``close`` puts the last 1e-6 from it."""
    radius, turn = np.random.default_rng([n, seed]).uniform(0.0, 1.0, (2, n))
    zeros = 0.95 * np.sqrt(radius) * np.exp(2j * np.pi * turn)
    if n > 1 and kind == "repeated":
        zeros[-1] = zeros[0]
    if n > 1 and kind == "close":
        zeros[-1] = zeros[0] + 1e-6
    return tuple(zeros)


ENGINE_SYMBOLS = {
    "mixed": MIXED,
    # a double pole at the origin next to an outside pole
    "origin-pole": RationalFn(
        ComplexPoly([1.0, 2.0, -1.0j, 0.5]), ComplexPoly.from_roots([0.0, 0.0, 1.5])
    ),
    "analytic": RationalFn(ComplexPoly([1.0, 0.3j, 0.5]), ComplexPoly.from_roots([1.5, -2.0j])),
}


class TestCompressionEngine:
    """``coordinates(symbol, over=domain)`` against the per-column composition
    ``coordinates(symbol * e_j)`` and against the trapezoidal rule."""

    @pytest.mark.parametrize("n", (1, 2, 4, 8, 16, 32))
    @pytest.mark.parametrize("kind", ("distinct", "repeated", "close"))
    @pytest.mark.parametrize("name", sorted(ENGINE_SYMBOLS))
    def test_matches_per_column_and_trapezoid(self, n, kind, name):
        symbol = ENGINE_SYMBOLS[name]
        dom_zeros, cod_zeros = engine_zeros(n, kind, 0), engine_zeros(n, kind, 1)
        dom, cod = ModelSpace(BlaschkeProduct(dom_zeros)), ModelSpace(BlaschkeProduct(cod_zeros))
        entries = cod.coordinates(symbol, over=dom)
        columns = np.column_stack([cod.coordinates(symbol * e) for e in dom.basis])
        reference = trapezoid_tto(dom_zeros, symbol, codomain=cod_zeros)
        tol = (1e-12 if n <= 16 else 1e-10) * (1.0 + np.max(np.abs(reference)))
        assert np.max(np.abs(entries - columns)) < tol
        assert np.max(np.abs(entries - reference)) < tol
        assert np.array_equal(tto_matrix(dom, cod, symbol).entries, entries)

    def test_zero_symbol_and_empty_spaces(self):
        space = ModelSpace(BlaschkeProduct(COORDINATE_SPACES[1]))
        empty = ModelSpace(BlaschkeProduct(()))
        zero = space.coordinates(RationalFn.zero(), over=space)
        assert zero.shape == (3, 3) and not np.any(zero)
        assert space.coordinates(MIXED, over=empty).shape == (3, 0)
        assert empty.coordinates(MIXED, over=space).shape == (0, 3)
        coords, residuals = empty.coordinates(MIXED, over=space, residuals=True)
        assert coords.shape == (0, 3) and np.all(residuals > 0.1)

    @pytest.mark.parametrize("n", (1, 8, 16, 32))
    def test_gram_is_identity(self, n):
        # zeros out to 0.95 and a repeated zero
        space = ModelSpace(BlaschkeProduct(engine_zeros(n, "repeated", 2)))
        assert np.max(np.abs(space.gram() - np.eye(n))) < 1e-13

    def test_residuals_match_projection_distance(self):
        def distance(space, f):
            return norm2(f - space.project(f)) / (1.0 + norm2(f))

        k_alpha = ModelSpace(ALPHA)
        k_z2 = ModelSpace(Z2)
        a = multiplier_between(k_z2, k_alpha)
        _, residuals = k_alpha.coordinates(a, over=k_z2, residuals=True)
        assert np.all(residuals < 1e-12)
        # z * 1 stays in K_{z^2}, z * z = z^2 leaves it
        _, residuals = k_z2.coordinates(Z, over=k_z2, residuals=True)
        assert residuals[0] < 1e-12
        assert abs(residuals[1] - distance(k_z2, Z * Z)) < 1e-12
        # inside poles reach the anti-analytic half of the residual
        _, residuals = k_alpha.coordinates(MIXED, over=k_z2, residuals=True)
        per_column = [distance(k_alpha, MIXED * e) for e in k_z2.basis]
        assert np.max(np.abs(residuals - per_column)) < 1e-12
        assert np.all(residuals > 0.1)
        assert abs(k_alpha.membership_residual(MIXED) - distance(k_alpha, MIXED)) < 1e-12


def rule_zeros(n, seed):
    """``n`` zeros drawn uniformly in the disk of radius 0.99; from ``n = 2``
    the first is at the origin, and from ``n = 3`` the second repeats the
    last.  (A double zero of modulus exactly 0.99 puts the Gram error at
    about 1e-13 at n = 64: nodes rounded to the circle move radially by
    ``eps``, and the basis near such a zero amplifies that by ``1 / (1 -
    |a|)``.)"""
    radius, turn = np.random.default_rng([n, seed]).uniform(0.0, 1.0, (2, n))
    zeros = 0.99 * np.sqrt(radius) * np.exp(2j * np.pi * turn)
    if n > 1:
        zeros[0] = 0.0
    if n > 2:
        zeros[1] = zeros[-1]
    return tuple(zeros)


def rule_compression(dom_zeros, cod_zeros, symbol, phase, drop_last=False):
    """The compression of ``symbol`` on the Clark rule at ``phase``, with
    ``Theta`` built as :meth:`ModelSpace.coordinates` builds it, less its
    last zero with ``drop_last``."""
    zeros = np.concatenate((cod_zeros, dom_zeros, _symbol_zeros(symbol)))
    nodes, weights = _clark_rule(zeros[:-1] if drop_last else zeros, phase)
    e_dom = basis_samples(BlaschkeProduct(dom_zeros), nodes)
    e_cod = basis_samples(BlaschkeProduct(cod_zeros), nodes)
    return (np.conj(e_cod) * weights) @ (symbol(nodes) * e_dom).T


def sweep_zeros(n, radius, draw):
    """The domain and codomain zeros of draw ``draw`` of the ``n``, ``radius``
    cell of ``tools/scan_ops.py sweep``, drawn as ``perfbench/workloads.py``
    draws them: every third draw repeats a zero."""
    rng = np.random.default_rng([n, int(100 * radius), draw])
    zeros = []
    for _ in range(2):
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
        zeros.append(r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n)))
        if draw % 3 == 2:
            zeros[-1][-1] = zeros[-1][0]
    return [tuple(z) for z in zeros]


PHASE = np.exp(1.234j)


class TestClarkRule:
    """``_clark_rule`` on its own: the exact Gram matrix of the basis, phase
    independence, and a negative control."""

    @pytest.mark.parametrize("n", (1, 8, 32, 64))
    @pytest.mark.parametrize("phase", (1.0, PHASE))
    def test_basis_gram_is_identity(self, n, phase):
        zeros = rule_zeros(n, 0)
        nodes, weights = _clark_rule(zeros, phase)
        assert nodes.shape == weights.shape == (n + 1,)
        assert np.all(weights > 0.0) and abs(np.sum(weights) - 1.0) < 1e-13
        e = basis_samples(BlaschkeProduct(zeros), nodes)
        assert np.max(np.abs((np.conj(e) * weights) @ e.T - np.eye(n))) < 1e-13

    def test_nodes_solve_theta_equals_phase(self):
        zeros = rule_zeros(8, 1)
        nodes, _ = _clark_rule(zeros, PHASE)
        theta = nodes * BlaschkeProduct(zeros)(nodes)
        assert np.max(np.abs(theta - PHASE)) < 1e-13

    @pytest.mark.parametrize("n", (1, 2, 4, 8, 16, 32))
    @pytest.mark.parametrize("kind", ("distinct", "repeated", "close"))
    @pytest.mark.parametrize("name", sorted(ENGINE_SYMBOLS))
    def test_phase_independence(self, n, kind, name):
        symbol = ENGINE_SYMBOLS[name]
        dom_zeros, cod_zeros = engine_zeros(n, kind, 0), engine_zeros(n, kind, 1)
        at_one = rule_compression(dom_zeros, cod_zeros, symbol, 1.0)
        at_phase = rule_compression(dom_zeros, cod_zeros, symbol, PHASE)
        assert np.max(np.abs(at_one - at_phase)) < 1e-13 * (1.0 + np.max(np.abs(at_one)))
        dom, cod = ModelSpace(BlaschkeProduct(dom_zeros)), ModelSpace(BlaschkeProduct(cod_zeros))
        assert np.array_equal(tto_matrix(dom, cod, symbol).entries, at_one)

    @pytest.mark.parametrize("n", (2, 8))
    def test_missing_pole_moves_with_phase(self, n):
        # negative control: without the reflection of the outside pole -2.5j
        # the rule is no longer exact, and its error depends on the phase
        dom_zeros, cod_zeros = engine_zeros(n, "distinct", 0), engine_zeros(n, "distinct", 1)
        at_one = rule_compression(dom_zeros, cod_zeros, MIXED, 1.0, drop_last=True)
        at_phase = rule_compression(dom_zeros, cod_zeros, MIXED, PHASE, drop_last=True)
        assert np.max(np.abs(at_one - at_phase)) > 1e-6

    @pytest.mark.parametrize("n", (16, 24, 32))
    def test_canonical_multipliers_accepted(self, n):
        # the multiplier between two spaces maps one onto the other, so
        # every membership residual is rounding
        for draw in range(10):
            dom, cod = (ModelSpace(BlaschkeProduct(z)) for z in sweep_zeros(n, 0.95, draw))
            matrix = multiplication_matrix(dom, cod, multiplier_between(dom, cod))
            assert matrix.entries.shape == (n, n)


class TestMultiplier:
    def test_monomial_to_alpha(self):
        a = multiplier_between(ModelSpace(Z2), ModelSpace(ALPHA))
        expected = RationalFn(
            ComplexPoly([1.0]), ComplexPoly([1.0, -0.5]) * ComplexPoly([1.0, -THIRD])
        )
        assert a.isclose(expected, tol=1e-10)

    def test_self_multiplier_is_constant(self):
        space = ModelSpace(ALPHA)
        a = multiplier_between(space, space)
        assert a.isclose(ONE, tol=1e-10)

    def test_kernel_target(self):
        w = 0.3 - 0.2j
        target = ModelSpace(BlaschkeProduct((w,)))
        a = multiplier_between(ModelSpace(BlaschkeProduct((0.0,))), target)
        expected = ONE / RationalFn(ComplexPoly([1.0, -np.conj(w)]))
        assert a.isclose(expected, tol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(NoMultiplierError):
            multiplier_between(ModelSpace(Z2), ModelSpace(BlaschkeProduct((0.5,))))

    def test_invertible_analytic_both_ways(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            d = int(rng.integers(1, 5))
            src = ModelSpace(random_blaschke(rng, degree=d))
            dst = ModelSpace(random_blaschke(rng, degree=d))
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
            src = ModelSpace(random_blaschke(rng, degree=d))
            dst = ModelSpace(random_blaschke(rng, degree=d))
            a = multiplier_between(src, dst)
            for _ in range(10):
                assert projection_transport_defect(src, dst, a, random_rational(rng)) < 1e-9

    @pytest.mark.parametrize("seed", (2024, 3027, 4036))
    def test_projection_transport_reads_its_size(self, seed, monkeypatch):
        # every draw of the model suite: the deviation is rounding, neither
        # a difference trimmed to the zero polynomial nor a clamped negative
        # self-pairing, so it reads above 0 and far below the tolerance
        seen = []

        def record(*args):
            seen.append(projection_transport_defect(*args))
            return seen[-1]

        monkeypatch.setattr(mst.verify, "projection_transport_defect", record)
        mst.verify.run_suite("model", seed)
        assert len(seen) == 50
        assert all(0.0 < r < 1e-9 for r in seen), (min(seen), max(seen))

    def test_projection_transport_negative_control(self):
        # a * (1 + z/2) carries the source into no model space at all
        src, dst = ModelSpace(Z2), ModelSpace(ALPHA)
        a = multiplier_between(src, dst) * (ONE + 0.5 * Z)
        assert projection_transport_defect(src, dst, a, ONE + Z) > 1e-3

    def test_annihilator_duality(self):
        # conj(a) maps the target's annihilator into the source's
        rng = np.random.default_rng(47)
        src = ModelSpace(random_blaschke(rng, degree=2))
        dst = ModelSpace(random_blaschke(rng, degree=2))
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
            assert 0.0 < annihilator_defect(src, a, g) < 1e-9  # rounding, not trimmed to 0
        # negative control: a basis element of the target is no annihilator
        assert annihilator_defect(src, a, dst.basis[0]) > 1e-3


class TestCrofoot:
    def test_identity_shift(self):
        space = ModelSpace(ALPHA)
        j, target = crofoot_multiplier(space, 0.0)
        assert j.isclose(ONE)
        assert target.inner.isclose(ALPHA)

    def test_shift_of_z(self):
        space = ModelSpace(BlaschkeProduct((0.0,)))
        j, target = crofoot_multiplier(space, 0.5)
        expected = RationalFn(ComplexPoly([np.sqrt(3.0) / 2.0]), ComplexPoly([1.0, -0.5]))
        assert j.isclose(expected, tol=1e-12)
        assert target.inner.same_space(BlaschkeProduct((0.5,)))

    def test_isometry_gram(self):
        rng = np.random.default_rng(53)
        for degree in (1, 3, 5):
            space = ModelSpace(random_blaschke(rng, degree=degree))
            w = 0.8 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            j, target = crofoot_multiplier(space, w)
            assert crofoot_gram_check(space, j)[0] < 1e-9
            for e in space.basis:
                assert target.contains(j * e)

    def test_parameter_outside_disk(self):
        with pytest.raises(ValueError):
            crofoot_multiplier(ModelSpace(Z2), 1.2)

    def test_defect_matrix_is_minus_the_compression(self):
        # G - I = -(compression of 1 - |J|^2), away from the circle where
        # the residue path still resolves the degree-doubled symbol
        rng = np.random.default_rng(59)
        for degree in (1, 2, 4):
            space = ModelSpace(random_blaschke(rng, degree=degree))
            j, _ = crofoot_multiplier(space, 0.3 - 0.2j)
            defect = crofoot_defect_matrix(space, j)
            symbol = ONE - j * circle_conjugate(j)
            assert np.max(np.abs(defect + tto_matrix(space, space, symbol).entries)) < 1e-12
            residual, vanishes = crofoot_gram_check(space, j)
            assert residual == float(np.linalg.norm(defect)) and vanishes

    def test_defect_matrix_with_a_pole_inside(self):
        # j = 1 / (z - 1/2) has its pole at a zero of ALPHA: e_1 cancels it
        # and e_0 keeps it, so the images' inside factors differ and each
        # pairing takes its own split; the Gram matrix still matches the
        # trapezoidal rule
        space = ModelSpace(ALPHA)
        j = RationalFn(ComplexPoly([1.0]), ComplexPoly([-0.5, 1.0]))
        z = unit_circle_samples(512)
        images = basis_samples(ALPHA, z) * j(z)
        expected = np.conj(images) @ images.T / z.size - np.eye(space.dim)
        assert np.max(np.abs(crofoot_defect_matrix(space, j) - expected)) < 1e-13

    def test_gram_check_negative_control(self):
        # 2 J doubles every image norm
        space = ModelSpace(ALPHA)
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
