"""Dual compressions: complement elements, kernels, transport, Hankel rank."""

from dataclasses import replace

import numpy as np
import pytest

from mst.blaschke import BlaschkeProduct, to_rational
from mst.dual import (
    ComplementElement,
    dual_apply,
    dual_equivalence,
    dual_kernel,
    hankel_rank,
)
from mst.modelspace import ModelSpace, NoMultiplierError, multiplier_between
from mst.rational import (
    ComplexPoly,
    RationalFn,
    circle_conjugate,
    norm2,
    sup_on_circle,
    unit_circle_samples,
)
from mst.sampling import random_blaschke, random_rational
from mst.verify import run_suite

THIRD = 1.0 / 3.0
Z2 = BlaschkeProduct((0.0, 0.0))
K_Z2 = ModelSpace(Z2)
ALPHA = BlaschkeProduct((0.5, THIRD))
ONE = RationalFn.one()
ZBAR = RationalFn.monomial(-1)


def element(theta, analytic=None, antianalytic=None):
    return ComplementElement(
        theta,
        analytic if analytic is not None else RationalFn.zero(),
        antianalytic if antianalytic is not None else RationalFn.zero(),
    )


def exact_probe(theta, rng):
    """The probe ``dual_equivalence`` samples, from the same draws, as an
    exact complement element: ``theta p + q / z^3`` normalized by
    ``||theta p|| + ||q / z^3||``."""
    theta_rat = to_rational(theta)
    ana_coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    analytic = theta_rat * RationalFn(ComplexPoly(ana_coeffs))
    anti_coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    antianalytic = RationalFn(ComplexPoly(anti_coeffs), ComplexPoly.monomial(3))
    scale = 1.0 / max(norm2(analytic) + norm2(antianalytic), 1e-12)
    return ComplementElement._trusted(theta, scale * analytic, scale * antianalytic)


class TestComplementElement:
    def test_valid_split(self):
        e = element(Z2, to_rational(Z2) * (ONE + RationalFn.monomial(1)), ZBAR)
        assert sup_on_circle(e.total()) > 0

    def test_rejects_analytic_in_antianalytic_slot(self):
        with pytest.raises(ValueError):
            element(Z2, antianalytic=ONE)

    def test_rejects_model_space_leak(self):
        # z lies inside the model space of z^2, not in its complement
        with pytest.raises(ValueError):
            element(Z2, analytic=RationalFn.monomial(1))


class TestDualApply:
    def test_identity_symbol_antianalytic(self):
        out = dual_apply(K_Z2, ONE, element(Z2, antianalytic=ZBAR))
        assert out.antianalytic.isclose(ZBAR, tol=1e-10)
        assert out.analytic.is_zero

    def test_annihilated_element(self):
        phi = RationalFn.monomial(2) * RationalFn(ComplexPoly([-1.0, 1.0]))
        out = dual_apply(K_Z2, phi, element(Z2, antianalytic=RationalFn.monomial(-2)))
        assert norm2(out.total()) < 1e-12

    def test_identity_symbol_analytic(self):
        f2 = RationalFn.monomial(2)
        out = dual_apply(K_Z2, ONE, element(Z2, analytic=f2))
        assert out.analytic.isclose(f2, tol=1e-10)
        assert out.antianalytic.is_zero

    def test_zero_symbol_uniqueness_probes(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta = random_blaschke(rng, max_degree=3)
            theta_rat = to_rational(theta)
            probes = [
                element(theta, analytic=theta_rat),
                element(theta, analytic=theta_rat * RationalFn.monomial(1)),
                element(theta, antianalytic=ZBAR),
                element(theta, antianalytic=RationalFn.monomial(-2)),
            ]
            phi = random_rational(rng)
            scale = sup_on_circle(phi)
            assert scale > 1e-6
            space = ModelSpace(theta)
            hits = [norm2(dual_apply(space, phi, p).total()) for p in probes]
            assert max(hits) > 1e-8 * scale
            zero_hits = [norm2(dual_apply(space, RationalFn.zero(), p).total()) for p in probes]
            assert max(zero_hits) < 1e-12


class TestDualKernel:
    def test_degree_one_trivial(self):
        for alpha in (BlaschkeProduct(()), Z2, ALPHA):
            res = dual_kernel(BlaschkeProduct((0.0,)), alpha)
            assert res.dim == 0 and res.basis == ()

    def test_z2_kernel(self):
        res = dual_kernel(Z2, Z2)
        assert res.dim == 1
        assert res.k == 0
        assert res.gamma.same_space(Z2)
        f = res.basis[0].total()
        target = RationalFn.monomial(-2)
        # spanned by conj(z^2) up to a constant
        ratio = complex(f(1.0)) / complex(target(1.0))
        assert (f - ratio * target).isclose(RationalFn.zero(), tol=1e-9) or norm2(
            f - ratio * target
        ) < 1e-9

    def test_gcd_collapse_empty(self):
        res = dual_kernel(BlaschkeProduct((0.0,) * 4), BlaschkeProduct(()))
        assert res.dim == 0 and res.k == 3

    def test_dimension_table(self):
        # theta = z^n against assorted inner functions
        deg1 = BlaschkeProduct((0.3,))
        alphas = {
            "one": BlaschkeProduct(()),
            "z": BlaschkeProduct((0.0,)),
            "z2": Z2,
            "deg1": deg1,
            "alpha": ALPHA,
        }
        for n in range(1, 6):
            theta = BlaschkeProduct((0.0,) * n)
            for name, alpha in alphas.items():
                res = dual_kernel(theta, alpha)
                zeros_at_origin = sum(1 for z in alpha.zeros if abs(z) < 1e-12)
                expected_gamma_degree = min(n, zeros_at_origin + 1)
                expected_k = n - expected_gamma_degree
                expected_dim = max(0, n - 1 - expected_k)
                assert res.k == expected_k, (n, name)
                assert res.dim == expected_dim, (n, name)
                for elem in res.basis:
                    assert elem.analytic.is_zero

    def test_monomial_kernel_contents(self):
        # theta = z^5, alpha = z^2: kernel spanned by zbar, zbar^2
        res = dual_kernel(BlaschkeProduct((0.0,) * 5), Z2)
        assert res.dim == 2
        spans = sorted(
            (elem.total() for elem in res.basis),
            key=lambda f: f.den.degree,
        )
        for expected_power, f in zip((-1, -2), spans):
            target = RationalFn.monomial(expected_power)
            ratio = complex(f(1.0)) / complex(target(1.0))
            assert norm2(f - ratio * target) < 1e-9

    def test_blaschke_theta_kernel(self):
        res = dual_kernel(ALPHA, ALPHA)
        assert res.k == 0 and res.dim == 1
        assert res.membership_defect() < 1e-9
        # double-check the membership by hand
        space = ModelSpace(ALPHA)
        phi = to_rational(ALPHA) * RationalFn(ComplexPoly([-1.0, 1.0]))
        for elem in res.basis:
            image = phi * elem.total()
            assert norm2(image - space.project(image)) < 1e-9 * (1.0 + norm2(image))

    def test_random_theta_alpha_verified(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            theta = random_blaschke(rng, max_degree=4)
            alpha = rng.choice([BlaschkeProduct(()), theta, BlaschkeProduct((0.0,))])
            res = dual_kernel(theta, alpha)
            assert res.dim == max(0, theta.degree - 1 - res.k)
            assert res.membership_defect() < 1e-9

    def test_membership_defect_flags_a_non_member(self):
        res = dual_kernel(Z2, Z2)
        assert res.membership_defect() < 1e-12
        assert dual_kernel(BlaschkeProduct((0.0,)), Z2).membership_defect() == 0.0
        # z^-1 lies in the complement but is not annihilated
        bad = ComplementElement._trusted(Z2, RationalFn.zero(), ZBAR)
        assert replace(res, basis=(bad,)).membership_defect() > 1e-3


class TestDualEquivalence:
    def test_trivial_chain(self):
        res = dual_equivalence(ALPHA, Z2, ALPHA, Z2, RationalFn.monomial(1))
        assert res < 1e-10

    def test_cross_space_chain(self):
        res = dual_equivalence(ALPHA, Z2, Z2, Z2, RationalFn.monomial(1))
        assert res < 1e-8

    def test_random_chains(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            d1 = int(rng.integers(1, 4))
            d2 = int(rng.integers(1, 4))
            theta = random_blaschke(rng, degree=d1)
            eta = random_blaschke(rng, degree=d1)
            alpha = random_blaschke(rng, degree=d2)
            gamma = random_blaschke(rng, degree=d2)
            res = dual_equivalence(theta, alpha, eta, gamma, random_rational(rng))
            assert res < 1e-8

    def test_public_dual_apply_chain_is_reference(self):
        # reference: the same chain through the validated public dual_apply,
        # exact at every step, on the same probe draws; both residuals vanish
        # and the sampled one keeps more digits
        rng = np.random.default_rng(29)
        zs = unit_circle_samples(32)
        for _ in range(3):
            d1 = int(rng.integers(1, 4))
            d2 = int(rng.integers(1, 4))
            theta, eta = random_blaschke(rng, degree=d1), random_blaschke(rng, degree=d1)
            alpha, gamma = random_blaschke(rng, degree=d2), random_blaschke(rng, degree=d2)
            symbol = random_rational(rng)
            probes, seed = 3, int(rng.integers(2**31))
            k_theta, k_alpha = ModelSpace(theta), ModelSpace(alpha)
            k_eta, k_gamma = ModelSpace(eta), ModelSpace(gamma)
            a1 = multiplier_between(k_eta, k_theta)
            a2 = multiplier_between(k_gamma, k_alpha)
            a1_bar = circle_conjugate(a1)
            tilde = a2.inverse() * symbol * a1_bar.inverse()
            draws = np.random.default_rng(seed)
            worst = 0.0
            for _ in range(probes):
                probe = exact_probe(theta, draws)
                lhs = dual_apply(k_alpha, symbol, probe)
                step1 = dual_apply(k_eta, a1_bar, probe)
                step2 = dual_apply(k_gamma, tilde, step1)
                step3 = dual_apply(k_alpha, a2, step2)
                worst = max(worst, float(np.max(np.abs(lhs(zs) - step3(zs)))))
            assert worst < 1e-8
            res = dual_equivalence(theta, alpha, eta, gamma, symbol, probes=probes, seed=seed)
            assert res < 1e-12

    def test_exact_chain_defect_instances(self):
        # op 574 of the transport_small benchmark at seed 2: the exact chain
        # read 6.5e-5 as its denominators grew to degree 17
        theta = BlaschkeProduct((
            -0.6277735223846307 - 0.3212011843596469j, -0.4591621068297577 - 0.5982034106624184j,
            -0.31247372426348075 - 0.06815761170392394j, -0.3849020072305091 - 0.27939964676296813j,
        ))
        alpha = BlaschkeProduct((
            -0.6651008653293994 - 0.3193002995689899j, 0.035952780266209634 - 0.4291210691721854j,
        ))
        eta = BlaschkeProduct((
            0.3970016906212271 + 0.08765973305479287j, -0.17775363608164546 - 0.2205932037837555j,
            0.7122064284402614 + 0.09818503150219393j, -0.47033773603642887 + 0.2653269106021893j,
        ))
        gamma = BlaschkeProduct((
            -0.7599763500137154 + 0.002970477198066927j, 0.665099613377454 + 0.06064930197033075j,
        ))
        num = [0.010857512219986676 + 0.31383059209708536j, 0.7481881302248697 + 0.149054715134266j,
               -0.09581932734072378 + 0.12052856838349729j]
        poles = [0.05840413113797518 + 0.31167728709907605j, -1.8795119244945089 + 0.5948674228187133j]
        symbol = RationalFn(ComplexPoly(num), ComplexPoly.from_roots(poles))
        res = dual_equivalence(theta, alpha, eta, gamma, symbol, probes=2, seed=1671074427)
        assert res < 1e-12
        # the three chains of the dual suite at seed 3027; the exact chain
        # read 1.43e-8 against the suite's 1e-8
        check = {c.name: c for c in run_suite("dual", 3027).checks}
        assert check["dual transport residual"].residual < 1e-12
        assert check["dual transport negative control"].passed

    def test_no_multiplier_between_degrees(self):
        deg1 = BlaschkeProduct((0.3,))
        with pytest.raises(NoMultiplierError, match="dimensions 1 and 2"):
            dual_equivalence(ALPHA, Z2, deg1, Z2, RationalFn.monomial(1))
        with pytest.raises(NoMultiplierError, match="dimensions 1 and 2"):
            dual_equivalence(ALPHA, Z2, ALPHA, deg1, RationalFn.monomial(1))
        empty = BlaschkeProduct(())
        with pytest.raises(NoMultiplierError, match="dimensions 0 and 0"):
            dual_equivalence(empty, Z2, empty, Z2, RationalFn.monomial(1))
        with pytest.raises(NoMultiplierError, match="dimensions 0 and 0"):
            dual_equivalence(ALPHA, empty, ALPHA, empty, RationalFn.monomial(1))

    def test_negative_control(self):
        bad = RationalFn.monomial(1) + RationalFn(ComplexPoly([0.1]))
        res = dual_equivalence(
            ALPHA, Z2, Z2, Z2, RationalFn.monomial(1), _tilde_override=bad
        )
        assert res > 1e-3


class TestHankelRank:
    def test_analytic_symbol(self):
        assert hankel_rank(RationalFn.monomial(3), 6) == 0

    def test_single_pole(self):
        f = RationalFn(ComplexPoly([1.0]), ComplexPoly([-0.5, 1.0]))
        assert hankel_rank(f, 5) == 1

    def test_two_poles(self):
        den = ComplexPoly.from_roots([0.5, THIRD])
        f = RationalFn(ComplexPoly([1.0]), den)
        assert hankel_rank(f, 6) == 2

    def test_monotone_and_stable(self):
        den = ComplexPoly.from_roots([0.5, -0.4, 0.2j])
        f = RationalFn(ComplexPoly([1.0, 2.0]), den)
        ranks = [hankel_rank(f, n) for n in range(1, 8)]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        assert ranks[-1] == 3 and ranks[3] == 3  # stabilized at #inside poles
