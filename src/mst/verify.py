"""Named verification suites.

Each suite runs the invariants of one module on seeded random data and
reports a residual per check.  A check carries its own tolerance and a
direction: ``below`` checks pass when the residual stays under the
tolerance, ``above`` checks are negative controls that must register a
violation when a hypothesis is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blaschke import (
    BlaschkeProduct,
    blaschke_gcd,
    frostman_shift,
    frostman_shift_defect,
    gcd_quotient_defect,
    generalized_frostman_shift,
    generalized_shift_factor_defect,
    monomial_factorization,
    to_rational,
    unimodularity_defect,
)
from .dual import dual_apply, dual_equivalence, dual_kernel, hankel_rank, ComplementElement
from .modelspace import (
    ModelSpace,
    annihilator_defect,
    build_space,
    crofoot_gram_check,
    crofoot_multiplier,
    multiplier_between,
    projection_transport_defect,
    reproducing_kernels,
)
from .operators import (
    conjugation_matrix,
    equivalence_transform,
    brown_halmos_product,
    is_zero_symbol,
    kernel_and_range,
    multiplication_matrix,
    multiplier_inverse_defect,
    selfadjoint_residual,
    subspace_angle,
    transport_spaces,
    tto_matrix,
    unitarity_defect,
)
from .rational import (
    ComplexPoly,
    RationalFn,
    circle_conjugate,
    involution_defect,
    norm2,
    parseval_defect,
    riesz_project,
    riesz_selfadjoint_defect,
)
from .sampling import random_blaschke, random_disk_points, random_laurent, random_rational
from .wienerhopf import (
    NoCanonicalFactorization,
    SingularOperator,
    invert_direct,
    wiener_hopf_factorize,
)

__all__ = ["Check", "SuiteReport", "SUITE_NAMES", "run_suite", "run_all"]


@dataclass
class Check:
    name: str
    residual: float
    tolerance: float
    direction: str = "below"  # "above" marks a negative control

    @property
    def passed(self) -> bool:
        if self.direction == "below":
            return self.residual < self.tolerance
        return self.residual > self.tolerance


@dataclass
class SuiteReport:
    suite: str
    checks: list = field(default_factory=list)

    def add(self, name, residual, tolerance, direction="below"):
        self.checks.append(Check(name, float(residual), tolerance, direction))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        forward = [c.residual for c in self.checks if c.direction == "below"]
        return max(forward) if forward else 0.0


def _suite_rational(seed: int) -> SuiteReport:
    rng = np.random.default_rng(seed)
    report = SuiteReport("rational")
    recon = idem = selfadj = invol = parseval = 0.0
    funcs = [random_rational(rng) for _ in range(100)]
    for f in funcs:
        split = riesz_project(f)
        recon = max(recon, split.reconstruction_defect(f))
        idem = max(idem, split.idempotence_defect())
        invol = max(invol, involution_defect(f))
    for f, g in zip(funcs[:50:2], funcs[1:50:2]):
        selfadj = max(selfadj, riesz_selfadjoint_defect(f, g))
        parseval = max(parseval, parseval_defect(f, g, 80))
    report.add("riesz reconstruction on circle samples", recon, 1e-10)
    report.add("riesz idempotence (coefficient residual)", idem, 1e-12)
    report.add("riesz self-adjointness", selfadj, 1e-10)
    report.add("parseval cross-check", parseval, 1e-10)
    report.add("circle involution squared", invol, 1e-12)
    return report


def _suite_blaschke(seed: int) -> SuiteReport:
    rng = np.random.default_rng(seed)
    report = SuiteReport("blaschke")
    shift_res = recon_res = gf_mod = gf_prod = gcd_res = 0.0
    for _ in range(20):
        b = random_blaschke(rng, max_degree=4)
        a = 0.8 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        shift_res = max(shift_res, frostman_shift_defect(b, a, frostman_shift(b, a)))
        recon_res = max(recon_res, monomial_factorization(b).reconstruction_defect(b))
    for _ in range(10):
        b = random_blaschke(rng, max_degree=3)
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        raw *= rng.uniform(0.3, 1.0) * 0.7 / (np.sum(np.abs(raw)) + 1e-12)
        shifted, minus, plus = generalized_frostman_shift(b, RationalFn(ComplexPoly(raw)))
        gf_mod = max(gf_mod, unimodularity_defect(shifted))
        gf_prod = max(gf_prod, generalized_shift_factor_defect(b, shifted, minus, plus))
    for _ in range(10):
        shared = tuple(random_disk_points(rng, 2, radius=0.6))
        b1 = BlaschkeProduct(shared + tuple(random_disk_points(rng, 1)))
        b2 = BlaschkeProduct(shared + tuple(random_disk_points(rng, 1)))
        g = blaschke_gcd(b1, b2)
        gcd_res = max(gcd_res, gcd_quotient_defect(b1, g), gcd_quotient_defect(b2, g))
    report.add("frostman shift pointwise identity", shift_res, 1e-9)
    report.add("monomial factorization reconstruction", recon_res, 1e-10)
    report.add("generalized shift unimodularity", gf_mod, 1e-9)
    report.add("generalized shift factor identity", gf_prod, 1e-9)
    report.add("gcd times quotient reconstruction", gcd_res, 1e-9)
    return report


def _suite_model(seed: int) -> SuiteReport:
    rng = np.random.default_rng(seed)
    report = SuiteReport("model")
    proj_res = annih_res = crofoot_res = reproduce_res = 0.0
    pole_margin = -np.inf
    for _ in range(5):
        d = int(rng.integers(1, 4))
        src = build_space(random_blaschke(rng, degree=d))
        dst = build_space(random_blaschke(rng, degree=d))
        a = multiplier_between(src, dst)
        margin = max(
            [1.0 - abs(r) for r in a.num.roots()] + [1.0 - abs(r) for r in a.den.roots()],
            default=-1.0,
        )
        pole_margin = max(pole_margin, margin)
        for _ in range(10):
            proj_res = max(proj_res, projection_transport_defect(src, dst, a, random_rational(rng)))
        theta_dst = dst.rational
        for _ in range(5):
            tail = RationalFn(ComplexPoly(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
            anti = RationalFn(
                ComplexPoly(rng.standard_normal(2) + 1j * rng.standard_normal(2)),
                ComplexPoly.monomial(2),
            )
            g = theta_dst * tail + (anti - riesz_project(anti).analytic)
            annih_res = max(annih_res, annihilator_defect(src, a, g))
    for _ in range(5):
        d = int(rng.integers(1, 6))
        space = build_space(random_blaschke(rng, degree=d))
        w = 0.8 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        j, _ = crofoot_multiplier(space, w)
        crofoot_res = max(crofoot_res, crofoot_gram_check(space, j)[0])
        for lam in random_disk_points(rng, 10):
            pair = reproducing_kernels(space, lam)
            reproduce_res = max(reproduce_res, *(pair.reproducing_defect(f) for f in space.basis))
    report.add("projection transport identities", proj_res, 1e-9)
    report.add("annihilator duality", annih_res, 1e-9)
    report.add("crofoot image gram identity", crofoot_res, 1e-9)
    report.add("reproducing property", reproduce_res, 1e-9)
    report.add("multiplier root margin outside the disk", -pole_margin, 0.0, "above")
    return report


def _suite_operators(seed: int) -> SuiteReport:
    rng = np.random.default_rng(seed)
    report = SuiteReport("operators")
    equiv_res = cond_worst = transport_angle = inverse_res = csym = bh_res = 0.0
    unitary_agree = True
    for k in range(25):
        d1 = int(rng.integers(1, 5))
        d2 = int(rng.integers(1, 5))
        theta, eta = random_blaschke(rng, degree=d1), random_blaschke(rng, degree=d1)
        alpha, gamma = random_blaschke(rng, degree=d2), random_blaschke(rng, degree=d2)
        res = equivalence_transform(theta, alpha, eta, gamma, random_rational(rng))
        equiv_res = max(equiv_res, res.residual)
        cond_worst = max(cond_worst, res.cond_E, res.cond_F)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        zn = BlaschkeProduct((0.0,) * n)
        theta = random_blaschke(rng, degree=n)
        k_zn, k_theta = build_space(zn), build_space(theta)
        a = multiplier_between(k_zn, k_theta)
        phi = circle_conjugate(a).inverse() * RationalFn.monomial(k) * a.inverse()
        res = transport_spaces(k_theta, k_theta, k_zn, k_zn, phi)
        ker_lhs, _ = kernel_and_range(res.A)
        ker_mid, _ = kernel_and_range(res.B)
        image = [res.F.entries @ v for v in ker_lhs]
        transport_angle = max(transport_angle, subspace_angle(image, ker_mid))
        inverse_res = max(inverse_res, multiplier_inverse_defect(k_zn, k_theta, a))
    for _ in range(10):
        b = random_blaschke(rng, max_degree=4)
        space = build_space(b)
        c = conjugation_matrix(space)
        a = tto_matrix(space, space, random_rational(rng))
        csym = max(csym, selfadjoint_residual(a, c))
    for _ in range(5):
        b = random_blaschke(rng, degree=2)
        big = BlaschkeProduct(b.zeros + (0.0,), b.constant)
        phi = RationalFn(ComplexPoly(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
        check = brown_halmos_product(
            build_space(b), build_space(big), build_space(random_blaschke(rng, degree=2)),
            random_rational(rng), phi,
        )
        bh_res = max(bh_res, check.residual if check.hypothesis_ok else 1.0)
    for theta_space in (build_space(BlaschkeProduct((0.0, 0.0))),):
        j, target = crofoot_multiplier(theta_space, 0.3 - 0.2j)
        good = is_zero_symbol(theta_space, theta_space, RationalFn.one() - j * circle_conjugate(j))
        bad = is_zero_symbol(
            theta_space, theta_space,
            RationalFn.one() - (2.0 * j) * circle_conjugate(2.0 * j),
        )
        gram_ok = unitarity_defect(multiplication_matrix(theta_space, target, j).entries) < 1e-9
        unitary_agree = unitary_agree and good and not bad and gram_ok
    report.add("equivalence identity (random instances)", equiv_res, 1e-9)
    report.add("equivalence factor condition numbers", cond_worst, 1e8)
    report.add("kernel transport subspace angle", transport_angle, 1e-7)
    report.add("multiplier inverse transport", inverse_res, 1e-9)
    report.add("complex selfadjointness of compressions", csym, 1e-9)
    report.add("product splitting residual", bh_res, 1e-9)
    report.add("unitary criterion agreement", 0.0 if unitary_agree else 1.0, 0.5)
    return report


def _suite_dual(seed: int) -> SuiteReport:
    rng = np.random.default_rng(seed)
    report = SuiteReport("dual")
    uniq = 0.0
    dim_ok = True
    member = equiv = 0.0
    control = np.inf
    for _ in range(5):
        theta = random_blaschke(rng, max_degree=3)
        theta_rat = to_rational(theta)
        # theta * z^j lies in theta H^2 and z^-j in the negative half, so the
        # probes are complement members by construction
        probes = [
            ComplementElement(theta, theta_rat, RationalFn.zero()),
            ComplementElement(theta, theta_rat * RationalFn.monomial(1), RationalFn.zero()),
            ComplementElement(theta, RationalFn.zero(), RationalFn.monomial(-1)),
            ComplementElement(theta, RationalFn.zero(), RationalFn.monomial(-2)),
        ]
        phi = random_rational(rng)
        space = ModelSpace(theta)
        hits = max(norm2(dual_apply(space, phi, p).total()) for p in probes)
        uniq = max(uniq, 0.0 if hits > 1e-8 else 1.0)
        zeros = max(norm2(dual_apply(space, RationalFn.zero(), p).total()) for p in probes)
        uniq = max(uniq, zeros)
    deg1 = BlaschkeProduct((0.3,))
    alpha63 = BlaschkeProduct((0.5, 1.0 / 3.0))
    for n in range(1, 6):
        theta = BlaschkeProduct((0.0,) * n)
        for alpha in (BlaschkeProduct(()), BlaschkeProduct((0.0,)), BlaschkeProduct((0.0, 0.0)), deg1, alpha63):
            res = dual_kernel(theta, alpha)
            dim_ok = dim_ok and res.dim == max(0, n - 1 - res.k)
            member = max(member, res.membership_defect())
    for _ in range(3):
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        equiv = max(
            equiv,
            dual_equivalence(
                random_blaschke(rng, degree=d1),
                random_blaschke(rng, degree=d2),
                random_blaschke(rng, degree=d1),
                random_blaschke(rng, degree=d2),
                random_rational(rng),
                probes=5,
            ),
        )
    control = dual_equivalence(
        alpha63,
        BlaschkeProduct((0.0, 0.0)),
        BlaschkeProduct((0.0, 0.0)),
        BlaschkeProduct((0.0, 0.0)),
        RationalFn.monomial(1),
        probes=5,
        _tilde_override=RationalFn.monomial(1) + RationalFn(ComplexPoly([0.1])),
    )
    ranks_ok = True
    den = ComplexPoly.from_roots([0.5, -0.4])
    f = RationalFn(ComplexPoly([1.0]), den)
    ranks = [hankel_rank(f, m) for m in range(1, 6)]
    ranks_ok = all(a <= b for a, b in zip(ranks, ranks[1:])) and ranks[-1] == 2
    report.add("dual symbol uniqueness probes", uniq, 0.5)
    report.add("dual kernel dimension table", 0.0 if dim_ok else 1.0, 0.5)
    report.add("dual kernel membership residuals", member, 1e-9)
    report.add("dual transport residual", equiv, 1e-8)
    report.add("dual transport negative control", control, 1e-3, "above")
    report.add("hankel rank monotone and stable", 0.0 if ranks_ok else 1.0, 0.5)
    return report


def _suite_wh(seed: int) -> SuiteReport:
    rng = np.random.default_rng(seed)
    report = SuiteReport("wh")
    consistency = agreement = 0.0
    dichotomy_ok = True
    count = 0
    while count < 20:
        n = int(rng.integers(1, 5))
        phi = random_laurent(rng)
        try:
            direct = invert_direct(n, phi)
            invertible = True
        except SingularOperator:
            invertible = False
        try:
            fact = wiener_hopf_factorize(n, phi)
            factorizable = True
        except NoCanonicalFactorization:
            factorizable = False
        dichotomy_ok = dichotomy_ok and (invertible == factorizable)
        if not factorizable:
            continue
        count += 1
        consistency = max(consistency, fact.recombination_defect())
        if np.linalg.cond(np.linalg.inv(direct.entries)) < 1e6:
            agreement = max(agreement, float(np.max(fact.inverse_column_defects(direct))))
    report.add("factorization recombination", consistency, 1e-9)
    report.add("formula inverse vs direct inverse", agreement, 1e-8)
    report.add("factorization/invertibility dichotomy", 0.0 if dichotomy_ok else 1.0, 0.5)
    return report


SUITE_NAMES = ("rational", "blaschke", "model", "operators", "dual", "wh")

_SUITES = {
    "rational": _suite_rational,
    "blaschke": _suite_blaschke,
    "model": _suite_model,
    "operators": _suite_operators,
    "dual": _suite_dual,
    "wh": _suite_wh,
}


def run_suite(name: str, seed: int = 2024) -> SuiteReport:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES} or 'all'")
    return _SUITES[name](seed)


def run_all(seed: int = 2024) -> list:
    return [run_suite(name, seed) for name in SUITE_NAMES]
