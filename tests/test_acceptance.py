"""Acceptance criteria.

Every criterion runs at its stated tolerance and prints one line; run with
``pytest tests/test_acceptance.py -v -s`` to see the report.
"""

import numpy as np

from mst.blaschke import BlaschkeProduct, to_rational
from mst.dual import dual_kernel
from mst.modelspace import (
    ModelSpace,
    crofoot_multiplier,
    multiplier_between,
    reproducing_kernels,
)
from mst.operators import (
    NotEquivalentError,
    brown_halmos_product,
    conjugation_matrix,
    conjugation_pullback,
    equivalence_transform,
    is_zero_symbol,
    kernel_and_range,
    multiplication_matrix,
    rank_equivalence,
    tto_matrix,
)
from mst.rational import (
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
from mst.sampling import random_blaschke, random_laurent, random_rational
from mst.verify import run_suite
from mst.wienerhopf import (
    SingularOperator,
    invert_direct,
    tto_inverse_via_wh,
    wiener_hopf_factorize,
)

THIRD = 1.0 / 3.0
ALPHA = BlaschkeProduct((0.5, THIRD))
Z2 = BlaschkeProduct((0.0, 0.0))
Z3 = BlaschkeProduct((0.0, 0.0, 0.0))
ONE = RationalFn.one()
Z = RationalFn.monomial(1)

K_ALPHA = ModelSpace(ALPHA)
K_Z2 = ModelSpace(Z2)


def report(number, passed, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_equivalence_identity():
    phi = K_ALPHA.rational * RationalFn.monomial(-1)
    res = equivalence_transform(ALPHA, ALPHA, Z2, Z2, phi)
    worst = res.residual
    rng = np.random.default_rng(101)
    for _ in range(25):
        d1, d2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        r = equivalence_transform(
            random_blaschke(rng, degree=d1),
            random_blaschke(rng, degree=d2),
            random_blaschke(rng, degree=d1),
            random_blaschke(rng, degree=d2),
            random_rational(rng),
        )
        worst = max(worst, r.residual)
    report(
        1,
        res.residual < 1e-9 and worst < 1e-9,
        f"equivalence transport residual {worst:.3e} < 1e-9 "
        f"(worked example {res.residual:.3e}, 25 random instances)",
    )


def test_criterion_2_rank_one_form():
    a = multiplier_between(K_Z2, K_ALPHA)
    phi = K_ALPHA.rational * RationalFn.monomial(-1)
    m_up = multiplication_matrix(K_Z2, K_ALPHA, a)
    m_down = multiplication_matrix(K_ALPHA, K_Z2, a.inverse())
    compressed = m_down @ tto_matrix(K_ALPHA, K_ALPHA, phi) @ m_up
    _, rank = kernel_and_range(compressed)
    u = a.inverse() * reproducing_kernels(K_ALPHA, 0.0).k_tilde
    v = reproducing_kernels(K_Z2, 0.0).k
    outer = complex(a(0.0)) * np.outer(
        K_Z2.coordinates(u), np.conj(K_Z2.coordinates(v))
    )
    entry_residual = float(np.max(np.abs(compressed.entries - outer)))
    report(
        2,
        rank == 1 and entry_residual < 1e-9,
        f"compressed operator has rank {rank} and matches the outer product "
        f"within {entry_residual:.3e}",
    )


def test_criterion_3_invertibility_reduction():
    num = ComplexPoly.from_roots([0.5, THIRD]) * ComplexPoly([1.0, 0.0, 1.0])
    phi = RationalFn(num, ComplexPoly.monomial(2))
    res = equivalence_transform(ALPHA, ALPHA, Z2, Z2, phi)
    expected = np.array([[1.0, 0.0], [5.0 / 6.0, 1.0]])
    matrix_residual = float(np.max(np.abs(res.B.entries - expected)))
    cond_mid = float(np.linalg.cond(res.B.entries))
    cond_direct = float(np.linalg.cond(res.A.entries))
    report(
        3,
        matrix_residual < 1e-10 and cond_mid < 1e3 and cond_direct < 1e3,
        f"transported symbol gives the unit lower-triangular matrix within "
        f"{matrix_residual:.3e}; condition numbers {cond_mid:.2f}, {cond_direct:.2f}",
    )


def test_criterion_4_crofoot_isometry():
    worst_gram = 0.0
    zero_ok = True
    for theta in (Z2, Z3, ALPHA):
        space = ModelSpace(theta)
        for w in (0.4, 0.3 - 0.2j):
            j, target = crofoot_multiplier(space, w)
            images = [j * e for e in space.basis]
            gram = np.array([[inner_product(u, v) for v in images] for u in images]).T
            worst_gram = max(worst_gram, float(np.linalg.norm(gram - np.eye(space.dim))))
            symbol = ONE - j * circle_conjugate(j)
            zero_ok = zero_ok and is_zero_symbol(space, space, symbol, tol=1e-10)
    # negative control: the wrong normalization fails both checks
    space = ModelSpace(Z2)
    w = 0.4
    bad = ONE / (ONE - np.conj(w) * space.rational)  # k = 1 instead of sqrt(1-|w|^2)
    bad_images = [bad * e for e in space.basis]
    bad_gram = np.array(
        [[inner_product(u, v) for v in bad_images] for u in bad_images]
    ).T
    bad_gram_fails = np.linalg.norm(bad_gram - np.eye(2)) > 1e-3
    bad_zero_fails = not is_zero_symbol(space, space, ONE - bad * circle_conjugate(bad))
    report(
        4,
        worst_gram < 1e-9 and zero_ok and bad_gram_fails and bad_zero_fails,
        f"isometric shift multipliers: gram residual {worst_gram:.3e} < 1e-9, "
        f"vanishing symbol confirmed, wrong normalization rejected",
    )


def test_criterion_5_complex_selfadjointness():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        space = ModelSpace(random_blaschke(rng, max_degree=4))
        c = conjugation_matrix(space)
        a = tto_matrix(space, space, random_rational(rng))
        lhs = c.J @ np.conj(a.entries) @ np.linalg.inv(c.J)
        worst = max(
            worst,
            float(np.linalg.norm(lhs - a.entries.conj().T))
            / (1.0 + float(np.linalg.norm(a.entries))),
        )
    a_mult = multiplier_between(K_Z2, K_ALPHA)
    frame = multiplication_matrix(K_Z2, K_ALPHA, a_mult)
    pulled = conjugation_pullback(conjugation_matrix(K_ALPHA), frame)
    pullback_residual = float(np.max(np.abs(pulled.J - conjugation_matrix(K_Z2).J)))
    report(
        5,
        worst < 1e-9 and pullback_residual < 1e-9,
        f"conjugation symmetry residual {worst:.3e} < 1e-9 on 20 random pairs; "
        f"multiplier pullback matches the canonical conjugation within "
        f"{pullback_residual:.3e}",
    )


def test_criterion_6_dual_kernel():
    deg1 = BlaschkeProduct((0.3,))
    alphas = (BlaschkeProduct(()), BlaschkeProduct((0.0,)), Z2, deg1, ALPHA)
    dims_ok = True
    worst_membership = 0.0
    for n in range(1, 6):
        theta = BlaschkeProduct((0.0,) * n)
        space = ModelSpace(theta)
        for alpha in alphas:
            res = dual_kernel(theta, alpha)
            dims_ok = dims_ok and res.dim == max(0, n - 1 - res.k)
            symbol = to_rational(alpha) * RationalFn(ComplexPoly([-1.0, 1.0]))
            for elem in res.basis:
                worst_membership = max(
                    worst_membership,
                    norm2(riesz_project(elem.total()).analytic),
                )
                image = symbol * elem.total()
                worst_membership = max(
                    worst_membership,
                    norm2(image - space.project(image)) / (1.0 + norm2(image)),
                )
    special = dual_kernel(Z2, Z2)
    f = special.basis[0].total()
    target = RationalFn.monomial(-2)
    ratio = complex(f(1.0)) / complex(target(1.0))
    span_ok = special.dim == 1 and norm2(f - ratio * target) < 1e-9
    report(
        6,
        dims_ok and worst_membership < 1e-9 and span_ok,
        f"dual kernel dimensions match max(0, n-1-k); membership residual "
        f"{worst_membership:.3e} < 1e-9; monomial case spanned by conj(z^2)",
    )


def test_criterion_7_wiener_hopf_inverse():
    c = 2.0 - 1.0j
    fact = wiener_hopf_factorize(1, RationalFn(ComplexPoly([c])))
    p = fact.g_plus_inv
    hand = (
        np.allclose(p[0][0].coeffs, [0.0, 1.0])
        and np.allclose(p[0][1].coeffs, [1.0 / c])
        and np.allclose(p[1][0].coeffs, [-c])
        and p[1][1].is_zero
    )
    rng = np.random.default_rng(107)
    worst = 0.0
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
        f = wiener_hopf_factorize(n, phi)
        for j in range(n):
            coords = direct.domain.coordinates(
                tto_inverse_via_wh(f, RationalFn.monomial(j))
            )
            worst = max(worst, float(np.max(np.abs(coords - direct.entries[:, j]))))
        checked += 1
    report(
        7,
        hand and worst < 1e-8,
        f"hand-solved factorization reproduced; formula inverse matches the "
        f"direct inverse within {worst:.3e} < 1e-8 on 20 random symbols",
    )


def test_criterion_8_rank_equivalence():
    rng = np.random.default_rng(108)
    worst = 0.0
    cond_worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 6))
        r = int(rng.integers(0, n + 1))

        def rand_rank(rank):
            if rank == 0:
                return np.zeros((n, n), dtype=complex)
            x = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
            y = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
            return x @ y

        a, b = rand_rank(r), rand_rank(r)
        e_mat, f_mat = rank_equivalence(a, b)
        worst = max(
            worst,
            float(np.linalg.norm(a - e_mat @ b @ f_mat) / (1.0 + np.linalg.norm(a))),
        )
        cond_worst = max(cond_worst, np.linalg.cond(e_mat), np.linalg.cond(f_mat))
    mismatch_raised = False
    try:
        rank_equivalence(np.eye(2), np.diag([1.0, 0.0]))
    except NotEquivalentError:
        mismatch_raised = True
    report(
        8,
        worst < 1e-8 and cond_worst < 1e8 and mismatch_raised,
        f"rank-equal pairs factor with residual {worst:.3e} < 1e-8 and condition "
        f"{cond_worst:.2e} < 1e8; unequal ranks rejected",
    )


def test_criterion_9_product_splitting():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 3))
        extra = int(rng.integers(1, 3))
        b = random_blaschke(rng, degree=d)
        big = BlaschkeProduct(b.zeros + (0.0,) * extra, b.constant)
        phi = RationalFn(
            ComplexPoly(rng.standard_normal(extra + 1) + 1j * rng.standard_normal(extra + 1))
        )
        check = brown_halmos_product(
            ModelSpace(b),
            ModelSpace(big),
            ModelSpace(random_blaschke(rng, max_degree=3)),
            random_rational(rng),
            phi,
        )
        worst = max(worst, check.residual if check.hypothesis_ok else 1.0)
    k_z = ModelSpace(BlaschkeProduct((0.0,)))
    control = brown_halmos_product(K_Z2, k_z, K_Z2, RationalFn.monomial(-1), ONE)
    report(
        9,
        worst < 1e-9 and not control.hypothesis_ok and control.residual > 1e-3,
        f"product splitting residual {worst:.3e} < 1e-9 under the hypothesis; "
        f"violating control flagged with residual {control.residual:.3e} > 1e-3",
    )


def test_criterion_10_core_analysis():
    rng = np.random.default_rng(110)
    zs = unit_circle_samples(32)
    recon = idem = selfadj = parseval = 0.0
    funcs = [random_rational(rng) for _ in range(100)]
    for f in funcs:
        split = riesz_project(f)
        recon = max(recon, float(np.max(np.abs(split.reconstruct()(zs) - f(zs)))))
        again = riesz_project(split.analytic)
        idem = max(idem, equality_residual(again.analytic, split.analytic))
    for f, g in zip(funcs[0::2], funcs[1::2]):
        lhs = inner_product(riesz_project(f).analytic, g)
        rhs = inner_product(f, riesz_project(g).analytic)
        selfadj = max(selfadj, abs(lhs - rhs) / (1.0 + norm2(f) * norm2(g)))
        fb, gb = fourier_block(f, 80), fourier_block(g, 80)
        parseval = max(
            parseval,
            abs(np.sum(fb * np.conj(gb)) - inner_product(f, g))
            / (1.0 + norm2(f) * norm2(g)),
        )
    core_ok = max(recon, idem, selfadj, parseval) < 1e-10
    proj = 0.0
    for _ in range(5):
        d = int(rng.integers(1, 4))
        src = ModelSpace(random_blaschke(rng, degree=d))
        dst = ModelSpace(random_blaschke(rng, degree=d))
        a = multiplier_between(src, dst)
        a_bar = circle_conjugate(a)
        for _ in range(10):
            f = random_rational(rng)
            lhs = dst.project(f)
            scale = 1.0 + norm2(lhs)
            proj = max(proj, norm2(a * src.project(a.inverse() * lhs) - lhs) / scale)
            rhs = dst.project(a_bar.inverse() * src.project(a_bar * f))
            proj = max(proj, norm2(rhs - lhs) / scale)
    report(
        10,
        core_ok and proj < 1e-9,
        f"riesz reconstruction/idempotence/self-adjointness/parseval all "
        f"within 1e-10 (worst {max(recon, idem, selfadj, parseval):.3e}); "
        f"projection transport within {proj:.3e} < 1e-9",
    )


def test_all_module_suites_pass():
    for name in ("rational", "blaschke", "model", "operators", "dual", "wh"):
        rep = run_suite(name)
        failing = [c.name for c in rep.checks if not c.passed]
        print(f"SUITE {name}: {'PASS' if rep.passed else 'FAIL'} {failing or ''}")
        assert rep.passed, f"suite {name} failed: {failing}"
