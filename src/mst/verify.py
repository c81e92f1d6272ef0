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
    blaschke_quotient,
    generalized_frostman_shift,
    frostman_shift,
    monomial_factorization,
    to_rational,
)
from .dual import dual_apply, dual_equivalence, dual_kernel, hankel_rank, ComplementElement
from .modelspace import (
    ModelSpace,
    build_space,
    crofoot_gram_defect,
    crofoot_multiplier,
    multiplier_between,
    reproducing_kernels,
)
from .operators import (
    conjugation_matrix,
    equivalence_transform,
    brown_halmos_product,
    is_zero_symbol,
    kernel_and_range,
    multiplication_matrix,
    selfadjoint_residual,
    subspace_angle,
    tto_matrix,
)
from .rational import (
    ComplexPoly,
    RationalFn,
    circle_conjugate,
    equality_residual,
    fourier_block,
    inner_product,
    norm2,
    riesz_project,
    unit_circle_samples,
)
from .sampling import random_blaschke, random_disk_points, random_laurent, random_rational
from .wienerhopf import (
    NoCanonicalFactorization,
    SingularOperator,
    invert_direct,
    tto_inverse_via_wh,
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
    zs = unit_circle_samples(32)
    recon = idem = selfadj = invol = parseval = 0.0
    funcs = [random_rational(rng) for _ in range(100)]
    for f in funcs:
        split = riesz_project(f)
        total = split.analytic + split.antianalytic
        recon = max(recon, float(np.max(np.abs(total(zs) - f(zs)))))
        again = riesz_project(split.analytic)
        idem = max(idem, equality_residual(again.analytic, split.analytic))
        idem = max(idem, norm2(again.antianalytic))
        invol = max(invol, equality_residual(circle_conjugate(circle_conjugate(f)), f))
    for f, g in zip(funcs[:50:2], funcs[1:50:2]):
        lhs = inner_product(riesz_project(f).analytic, g)
        rhs = inner_product(f, riesz_project(g).analytic)
        selfadj = max(selfadj, abs(lhs - rhs))
        fb, gb = fourier_block(f, 80), fourier_block(g, 80)
        parseval = max(parseval, abs(np.sum(fb * np.conj(gb)) - inner_product(f, g)))
    report.add("riesz reconstruction on circle samples", recon, 1e-10)
    report.add("riesz idempotence (coefficient residual)", idem, 1e-12)
    report.add("riesz self-adjointness", selfadj, 1e-10)
    report.add("parseval cross-check", parseval, 1e-10)
    report.add("circle involution squared", invol, 1e-12)
    return report


def _suite_blaschke(seed: int) -> SuiteReport:
    rng = np.random.default_rng(seed)
    report = SuiteReport("blaschke")
    zs = unit_circle_samples(32)
    shift_res = recon_res = gf_mod = gf_prod = gcd_res = 0.0
    for _ in range(20):
        b = random_blaschke(rng, max_degree=4)
        a = 0.8 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        shifted = frostman_shift(b, a)
        bz = b(zs)
        shift_res = max(
            shift_res,
            float(np.max(np.abs(shifted(zs) - (bz - a) / (1.0 - np.conj(a) * bz)))),
        )
        minus, n, plus = monomial_factorization(b)
        prod = minus * RationalFn.monomial(n) * plus
        recon_res = max(recon_res, float(np.max(np.abs(prod(zs) - bz))))
    for _ in range(10):
        b = random_blaschke(rng, max_degree=3)
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        raw *= rng.uniform(0.3, 1.0) * 0.7 / (np.sum(np.abs(raw)) + 1e-12)
        h = RationalFn(ComplexPoly(raw))
        shifted, minus, plus = generalized_frostman_shift(b, h)
        gf_mod = max(gf_mod, float(np.max(np.abs(np.abs(shifted(zs)) - 1.0))))
        chained = minus * to_rational(b) * plus
        gf_prod = max(gf_prod, float(np.max(np.abs(chained(zs) - shifted(zs)))))
    for _ in range(10):
        shared = tuple(random_disk_points(rng, 2, radius=0.6))
        b1 = BlaschkeProduct(shared + tuple(random_disk_points(rng, 1)))
        b2 = BlaschkeProduct(shared + tuple(random_disk_points(rng, 1)))
        g = blaschke_gcd(b1, b2)
        for b in (b1, b2):
            q = blaschke_quotient(b, g)
            gcd_res = max(gcd_res, float(max((abs(z) for z in q.zeros), default=0.0)))
    report.add("frostman shift pointwise identity", shift_res, 1e-9)
    report.add("monomial factorization reconstruction", recon_res, 1e-10)
    report.add("generalized shift unimodularity", gf_mod, 1e-9)
    report.add("generalized shift factor identity", gf_prod, 1e-9)
    report.add("gcd divides (quotient zeros stay in the disk)", gcd_res, 1.0)
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
        a_inv, a_bar = a.inverse(), circle_conjugate(a)
        margin = max(
            [1.0 - abs(r) for r in a.num.roots()] + [1.0 - abs(r) for r in a.den.roots()],
            default=-1.0,
        )
        pole_margin = max(pole_margin, margin)
        for _ in range(10):
            f = random_rational(rng)
            lhs = dst.project(f)
            scale = 1.0 + norm2(lhs)
            proj_res = max(proj_res, norm2(a * src.project(a_inv * lhs) - lhs) / scale)
            rhs = dst.project(a_bar.inverse() * src.project(a_bar * f))
            proj_res = max(proj_res, norm2(rhs - lhs) / scale)
        theta_dst = dst.rational
        for _ in range(5):
            tail = RationalFn(ComplexPoly(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
            anti = RationalFn(
                ComplexPoly(rng.standard_normal(2) + 1j * rng.standard_normal(2)),
                ComplexPoly.monomial(2),
            )
            g = theta_dst * tail + (anti - riesz_project(anti).analytic)
            annih_res = max(annih_res, norm2(src.project(a_bar * g)) / (1.0 + norm2(g)))
    for _ in range(5):
        d = int(rng.integers(1, 6))
        space = build_space(random_blaschke(rng, degree=d))
        w = 0.8 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        j, target = crofoot_multiplier(space, w)
        crofoot_res = max(crofoot_res, crofoot_gram_defect(space, j))
        for lam in random_disk_points(rng, 10):
            pair = reproducing_kernels(space, lam)
            for f in space.basis:
                reproduce_res = max(
                    reproduce_res, abs(inner_product(f, pair.k) - complex(f(lam)))
                )
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
        res = equivalence_transform(theta, theta, zn, zn, phi)
        ker_lhs, _ = kernel_and_range(tto_matrix(k_theta, k_theta, phi))
        ker_mid, _ = kernel_and_range(tto_matrix(k_zn, k_zn, res.tilde_symbol))
        image = [res.F.entries @ v for v in ker_lhs]
        transport_angle = max(transport_angle, subspace_angle(image, ker_mid))
        m = multiplication_matrix(k_zn, k_theta, a)
        m_inv = multiplication_matrix(k_theta, k_zn, a.inverse())
        inverse_res = max(
            inverse_res, float(np.max(np.abs((m @ m_inv).entries - np.eye(n))))
        )
        t = tto_matrix(k_zn, k_theta, circle_conjugate(a).inverse())
        inverse_res = max(
            inverse_res,
            float(np.max(np.abs(t.entries - np.linalg.inv(m.entries.conj().T)))),
        )
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
        gram = multiplication_matrix(theta_space, target, j)
        gram_ok = np.linalg.norm(
            gram.entries.conj().T @ gram.entries - np.eye(2)
        ) < 1e-9
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
        probes = [
            ComplementElement(theta, theta_rat, RationalFn.zero()),
            ComplementElement(theta, theta_rat * RationalFn.monomial(1), RationalFn.zero()),
            ComplementElement(theta, RationalFn.zero(), RationalFn.monomial(-1)),
            ComplementElement(theta, RationalFn.zero(), RationalFn.monomial(-2)),
        ]
        phi = random_rational(rng)
        hits = max(norm2(dual_apply(theta, theta, phi, p).total()) for p in probes)
        uniq = max(uniq, 0.0 if hits > 1e-8 else 1.0)
        zeros = max(
            norm2(dual_apply(theta, theta, RationalFn.zero(), p).total()) for p in probes
        )
        uniq = max(uniq, zeros)
    deg1 = BlaschkeProduct((0.3,))
    alpha63 = BlaschkeProduct((0.5, 1.0 / 3.0))
    for n in range(1, 6):
        theta = BlaschkeProduct((0.0,) * n)
        for alpha in (BlaschkeProduct(()), BlaschkeProduct((0.0,)), BlaschkeProduct((0.0, 0.0)), deg1, alpha63):
            res = dual_kernel(theta, alpha)
            dim_ok = dim_ok and res.dim == max(0, n - 1 - res.k)
            space = ModelSpace(theta)
            symbol = to_rational(alpha) * RationalFn(ComplexPoly([-1.0, 1.0]))
            for elem in res.basis:
                image = symbol * elem.total()
                member = max(
                    member,
                    norm2(image - space.project(image)) / (1.0 + norm2(image)),
                    norm2(riesz_project(elem.total()).analytic),
                )
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
    zs = unit_circle_samples(32)
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
        # recombine the factors and compare with the symbol matrix
        det_inv = 1.0 / fact.det
        p = fact.g_plus_inv
        g_plus = [
            [RationalFn(p[1][1]) * det_inv, RationalFn(-p[0][1]) * det_inv],
            [RationalFn(-p[1][0]) * det_inv, RationalFn(p[0][0]) * det_inv],
        ]
        g = [
            [RationalFn.monomial(-n), RationalFn.zero()],
            [phi, RationalFn.monomial(n)],
        ]
        for i in range(2):
            for j in range(2):
                val = sum(fact.g_minus[i][k](zs) * g_plus[k][j](zs) for k in range(2))
                consistency = max(consistency, float(np.max(np.abs(val - g[i][j](zs)))))
        if np.linalg.cond(np.linalg.inv(direct.entries)) < 1e6:
            for j in range(n):
                coords = direct.domain.coordinates(
                    tto_inverse_via_wh(n, phi, RationalFn.monomial(j), fact)
                )
                agreement = max(
                    agreement, float(np.max(np.abs(coords - direct.entries[:, j])))
                )
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
