"""The benchmark's four closed-loop workloads.

Each workload turns ``(seed, k)`` into the inputs of op ``k`` with its own
generator, so the same seed always yields the same op sequence however many
ops a run completes.  ``Op.call`` is the only timed code: one call into the
public ``mst`` API or into ``mst.cli.run_command``.  ``Op.check`` runs
outside the timed region; it compares the result with the independent
oracle in ``oracle.py`` and returns the deviation relative to
``1 + ||result||`` (``inf`` for a wrong verdict or a non-zero exit code).
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
from numpy.polynomial import polynomial as npp

import oracle

# An op fails when its deviation from the oracle exceeds this: six digits
# lost is a wrong answer.  Precision above it is tracked by err_mean_digits.
FAIL_TOL = 1e-6

# Index of the warm-up op: beyond any op count a run reaches, so warm-up
# inputs never coincide with measured ones and no cache can carry over.
WARMUP = 2**31 - 1


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


def disk_points(rng, count, radius=0.8):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    return r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def random_symbol(rng, num_degree, inside, outside, margin=0.2):
    """Numerator coefficients and poles, every pole ``margin`` off the circle.

    The numerator is scaled to a sup norm of one on the circle, so absolute
    residuals (``dual_equivalence`` reports one) read as relative ones.
    """
    num = rng.standard_normal(num_degree + 1) + 1j * rng.standard_normal(num_degree + 1)
    poles = np.concatenate([
        disk_points(rng, inside, radius=1.0 - margin),
        rng.uniform(1.0 + margin, 3.0, outside)
        * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, outside)),
    ])
    return num / np.max(np.abs(SampledSymbol(num, poles)(oracle.nodes(512)))), poles


def multiplier_coeffs(source_zeros, target_zeros):
    """Ascending coefficients of the canonical multiplier's num and den."""
    num, den = np.ones(1, dtype=complex), np.ones(1, dtype=complex)
    for s in source_zeros:
        num = npp.polymul(num, [1.0, -np.conj(s)])
    for t in target_zeros:
        den = npp.polymul(den, [1.0, -np.conj(t)])
    return num, den


def pairs(doc):
    return np.array([complex(re, im) for re, im in doc], dtype=complex)


def matrix(doc):
    return np.array([[complex(re, im) for re, im in row] for row in doc], dtype=complex)


def residual_dev(r) -> float:
    """Deviation of a reported residual from its exact value, zero."""
    r = abs(float(r))
    return r / (1.0 + r)


def transport_dev(e, f, zeros, symbol_at, tilde_at) -> float:
    """Check ``A = E B F`` with ``A``, ``B`` from the oracle and the
    returned ``E``, ``F``.  ``zeros`` is ``(theta, alpha, eta, gamma)``."""
    theta, alpha, eta, gamma = zeros
    z = oracle.nodes(oracle.node_count(np.concatenate(zeros + (symbol_at.poles,))))
    a = oracle.compression(theta, alpha, symbol_at(z), z)
    b = oracle.compression(eta, gamma, tilde_at(z), z)
    return oracle.rel_dev(e @ b @ f, a)


class SampledSymbol:
    """A symbol the oracle evaluates from its generated data."""

    def __init__(self, num, den_roots):
        self.num = np.asarray(num, dtype=complex)
        self.poles = np.asarray(den_roots, dtype=complex)

    def __call__(self, z):
        out = oracle.polyval(self.num, z)
        for p in self.poles:
            out = out / (z - p)
        return out


def tilde_for(zeros, symbol):
    """Transported symbol ``conj(a2) * symbol * a1`` on the circle, with
    ``a1`` carrying the eta-space onto the theta-space and ``a2`` the
    gamma-space onto the alpha-space."""
    theta, alpha, eta, gamma = zeros

    def tilde(z):
        a1 = oracle.multiplier(eta, theta, z)
        a2 = oracle.multiplier(gamma, alpha, z)
        return np.conj(a2) * symbol(z) * a1

    return tilde


class Inputs:
    """What a run's inputs looked like: degrees, pole margin, repeats."""

    def __init__(self):
        self.degrees = set()
        self.min_margin = np.inf
        self.repeated_zeros = False

    def spaces(self, *zero_sets):
        for zeros in zero_sets:
            zeros = np.asarray(zeros, dtype=complex)
            self.degrees.add(int(zeros.size))
            if zeros.size:
                self.min_margin = min(self.min_margin, float(1.0 - np.max(np.abs(zeros))))
                self.repeated_zeros |= len(set(zeros.tolist())) < zeros.size

    def poles(self, poles):
        poles = np.asarray(poles, dtype=complex)
        if poles.size:
            self.min_margin = min(self.min_margin, float(np.min(np.abs(np.abs(poles) - 1.0))))

    def record(self):
        return {
            "degrees": sorted(self.degrees),
            "min_pole_margin": None if not np.isfinite(self.min_margin) else self.min_margin,
            "repeated_zeros": self.repeated_zeros,
        }


class Workload:
    name = ""
    prefix = 1  # ops that always run; accuracy is taken over exactly these
    period = 1  # length of the op rotation; runs end on a whole rotation

    def __init__(self, mst, seed):
        self.mst = mst
        self.seed = seed
        self.inputs = Inputs()

    def rng(self, k):
        return np.random.default_rng([self.seed, k])

    def request(self, k) -> Op:
        raise NotImplementedError

    def warmup(self) -> Op:
        return self.request(WARMUP)


def tto_pool(mst, seed):
    """Four degree-16 model spaces; the last has a repeated zero."""
    rng = np.random.default_rng([seed, 2**32 - 1])
    spaces = []
    for i in range(4):
        zeros = disk_points(rng, 16)
        if i == 3:
            zeros[9] = zeros[4]
        spaces.append(mst.ModelSpace(mst.BlaschkeProduct(tuple(zeros))))
    return spaces


def gram_defect_max(spaces) -> float:
    return max(float(np.linalg.norm(s.gram() - np.eye(s.dim))) for s in spaces)


class TtoLarge(Workload):
    name = "tto_large"
    prefix = 8
    period = 4
    # (domain, codomain) indices into the pool: one pair on one space, whose
    # pairings cancel and run faster, and three between two spaces, so the
    # median op falls inside one cost cluster
    PAIRS = ((0, 0), (1, 2), (2, 3), (3, 1))

    def __init__(self, mst, seed):
        super().__init__(mst, seed)
        self.pool = tto_pool(mst, seed)
        self.inputs.spaces(*(s.inner.zeros for s in self.pool))

    def request(self, k):
        mst = self.mst
        d, c = self.PAIRS[k % len(self.PAIRS)]
        dom, cod = self.pool[d], self.pool[c]
        num, poles = random_symbol(self.rng(k), 4, 2, 2)
        self.inputs.poles(poles)
        symbol = mst.RationalFn(mst.ComplexPoly(num), mst.ComplexPoly(npp.polyfromroots(poles)))
        sampled = SampledSymbol(num, poles)

        def check(result):
            zeros = np.concatenate([dom.inner.zeros, cod.inner.zeros, poles])
            z = oracle.nodes(oracle.node_count(zeros))
            ref = oracle.compression(dom.inner.zeros, cod.inner.zeros, sampled(z), z)
            return oracle.rel_dev(result.entries, ref)

        return Op("tto_matrix", lambda: mst.tto_matrix(dom, cod, symbol), check)


class TransportSmall(Workload):
    name = "transport_small"
    prefix = 36
    period = 12

    def request(self, k):
        mst = self.mst
        rng = self.rng(k)
        d = 1 + (k // 3) % 4
        d2 = 1 + (k // 3 + 2) % 4
        zeros = (disk_points(rng, d), disk_points(rng, d2), disk_points(rng, d), disk_points(rng, d2))
        num, poles = random_symbol(rng, 2, 1, 1)
        self.inputs.spaces(*zeros)
        self.inputs.poles(poles)
        inner = [mst.BlaschkeProduct(tuple(z)) for z in zeros]
        symbol = mst.RationalFn(mst.ComplexPoly(num), mst.ComplexPoly(npp.polyfromroots(poles)))
        kind = k % 3
        if kind == 0:
            sampled = SampledSymbol(num, poles)

            def check(result):
                return transport_dev(result.E.entries, result.F.entries, zeros, sampled,
                                     tilde_for(zeros, sampled))

            return Op("equivalence_transform",
                      lambda: mst.equivalence_transform(*inner, symbol), check)
        if kind == 1:
            probe_seed = int(rng.integers(2**31))
            return Op("dual_equivalence",
                      lambda: mst.dual_equivalence(*inner, symbol, probes=2, seed=probe_seed),
                      residual_dev)
        # phi is the canonical multiplier of k1 onto mid, so phi * k1 lies in
        # mid and the product of the compressions equals the compression of
        # the product exactly
        k1_zeros, k2_zeros, mid_zeros = zeros[0], zeros[1], zeros[2]
        phi_num, phi_den = multiplier_coeffs(k1_zeros, mid_zeros)
        phi = mst.RationalFn(mst.ComplexPoly(phi_num), mst.ComplexPoly(phi_den))

        def call():
            k1, mid, k2 = (mst.ModelSpace(inner[i]) for i in (0, 2, 1))
            return mst.brown_halmos_product(k1, mid, k2, symbol, phi)

        def check(result):
            return residual_dev(result.residual) if result.hypothesis_ok else np.inf

        return Op("brown_halmos_product", call, check)


def run_cli(mst, argv):
    """One in-process ``mst`` request: ``(exit code, stdout text)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mst.cli.run_command(argv)
    return code, out.getvalue()


def cli_check(check_payload):
    """Wrap a payload check: non-zero exit or unparsable output fails."""

    def check(result):
        code, text = result
        if code != 0:
            return np.inf
        return check_payload(json.loads(text))

    return check


# checks of `mst verify` whose residual is an identity defect, exactly zero
# in exact arithmetic; larger tolerances gate counts, flags or conditions
IDENTITY_TOL = 1e-6


def verify_dev(payload) -> float:
    if not payload["passed"]:
        return np.inf
    residuals = [
        c["residual"]
        for suite in payload["suites"]
        for c in suite["checks"]
        if c["direction"] == "below" and c["tolerance"] <= IDENTITY_TOL
    ]
    return residual_dev(max(residuals))


class VerifyAll(Workload):
    """The documented ``mst verify --suite all`` at its default seed, the
    instance the acceptance gate runs, one suite per op in the order
    ``run_all`` runs them, so each rotation is one whole ``--suite all``.
    The suite seed does not follow the benchmark seed: some suite seeds
    fail the dual transport check (3027 reports 1.4e-8 against its 1e-8
    tolerance), a library defect that would turn runs of this workload
    into failures at random."""

    name = "verify_all"

    def __init__(self, mst, seed):
        super().__init__(mst, seed)
        self.suites = tuple(mst.SUITE_NAMES)
        self.prefix = self.period = len(self.suites)

    def request(self, k):
        argv = ["verify", "--suite", self.suites[k % self.period]]
        return Op("verify", lambda: run_cli(self.mst, argv), cli_check(verify_dev))

    def warmup(self):
        argv = ["verify", "--suite", "blaschke"]
        return Op("verify", lambda: run_cli(self.mst, argv), cli_check(verify_dev))


# -- cli_readme: request text in shorthand or JSON ---------------------------


def fmt_complex(c) -> str:
    c = complex(c)
    return f"{c.real!r}{c.imag:+}i"


def fmt_poly(coeffs) -> str:
    """Shorthand polynomial, one parenthesized coefficient per power."""
    terms = []
    for p, c in enumerate(coeffs):
        power = "" if p == 0 else ("z" if p == 1 else f"z^{p}")
        terms.append(f"({fmt_complex(c)}){power}")
    return "+".join(terms)


def fmt_space(zeros, as_json, constant=1.0) -> str:
    if as_json:
        return json.dumps({
            "zeros": [[z.real, z.imag] for z in map(complex, zeros)],
            "constant": [complex(constant).real, complex(constant).imag],
        })
    return "blaschke(" + ", ".join(fmt_complex(z) for z in zeros) + ")"


def fmt_rational(num, den, as_json) -> str:
    """``num``/``den`` need two or more terms each in shorthand form."""
    if as_json:
        return json.dumps({
            "num": [[c.real, c.imag] for c in map(complex, num)],
            "den": [[c.real, c.imag] for c in map(complex, den)],
        })
    return f"({fmt_poly(num)})/({fmt_poly(den)})"


class CliReadme(Workload):
    name = "cli_readme"
    prefix = 84
    period = 42
    COMMANDS = ("tto", "equiv", "dual-kernel", "wh-inverse", "crofoot",
                "conjugation-check", "rank-equiv")

    def request(self, k):
        rng = self.rng(k)
        # every choice that sets an op's cost (command, degree, format and
        # the shape options below) follows its position in the rotation, so
        # each rotation and each seed hold the same mix; only values vary
        p = k % self.period
        command = self.COMMANDS[p % len(self.COMMANDS)]
        d = 1 + p // len(self.COMMANDS)
        as_json = p % 2 == 1
        self.shape = (p // 2) % 2 == 1
        argv, check = getattr(self, "_" + command.replace("-", "_"))(rng, d, as_json)
        return Op(command, lambda: run_cli(self.mst, argv), cli_check(check))

    def _symbol(self, rng):
        num, poles = random_symbol(rng, 2, 1, 1)
        self.inputs.poles(poles)
        return num, poles, SampledSymbol(num, poles)

    def _tto(self, rng, d, as_json):
        dom = disk_points(rng, d)
        cod = disk_points(rng, d) if self.shape else dom
        num, poles, sampled = self._symbol(rng)
        self.inputs.spaces(dom, cod)
        argv = ["tto", "--space", fmt_space(dom, as_json),
                "--symbol", fmt_rational(num, npp.polyfromroots(poles), as_json)]
        if cod is not dom:
            argv += ["--codomain", fmt_space(cod, as_json)]

        def check(payload):
            z = oracle.nodes(oracle.node_count(np.concatenate([dom, cod, poles])))
            return oracle.rel_dev(matrix(payload["entries"]),
                                  oracle.compression(dom, cod, sampled(z), z))

        return argv, check

    def _equiv(self, rng, d, as_json):
        d2 = 1 + d % 3
        zeros = (disk_points(rng, d), disk_points(rng, d2), disk_points(rng, d), disk_points(rng, d2))
        num, poles, sampled = self._symbol(rng)
        self.inputs.spaces(*zeros)
        argv = ["equiv"]
        for flag, z in zip(("--theta", "--alpha", "--eta", "--gamma"), zeros):
            argv += [flag, fmt_space(z, as_json)]
        argv += ["--symbol", fmt_rational(num, npp.polyfromroots(poles), as_json)]

        def check(payload):
            return transport_dev(matrix(payload["E"]["entries"]), matrix(payload["F"]["entries"]),
                                 zeros, sampled, tilde_for(zeros, sampled))

        return argv, check

    def _dual_kernel(self, rng, d, as_json):
        alpha = disk_points(rng, d)
        shared = d // 2
        with_origin = shared < d and self.shape
        theta = np.concatenate([alpha[:shared], [0.0] * with_origin,
                                disk_points(rng, d - shared - with_origin)])
        self.inputs.spaces(theta, alpha)
        # common inner factor of theta and z * alpha, counted by hand
        left = [0.0] + list(alpha)
        common = 0
        for t in theta:
            if t in left:
                left.remove(t)
                common += 1
        k_expected = d - common
        dim_expected = max(0, d - 1 - k_expected)
        argv = ["dual-kernel", "--theta", fmt_space(theta, as_json),
                "--alpha", fmt_space(alpha, as_json)]

        def check(payload):
            if payload["dim"] != dim_expected or payload["k"] != k_expected:
                return np.inf
            if not payload["basis"]:
                return 0.0
            z = oracle.nodes(oracle.node_count(np.concatenate([theta, alpha])))
            half = z.size // 2
            symbol = oracle.blaschke(alpha, z) * (z - 1.0)
            theta_bar = np.conj(oracle.blaschke(theta, z))
            samples, worst = [], 0.0
            for element in payload["basis"]:
                f = sum(oracle.ratval(pairs(part["num"]), pairs(part["den"]), z)
                        for part in (element["analytic"], element["antianalytic"]))
                g = symbol * f
                # f in the anti-analytic half; its image in the theta-space
                leak = np.concatenate([oracle.fourier(f)[:half], oracle.fourier(g)[half:],
                                       oracle.fourier(theta_bar * g)[:half]])
                worst = max(worst, float(np.linalg.norm(leak))
                            / (1.0 + float(np.sqrt(np.mean(np.abs(f) ** 2)))))
                samples.append(f)
            s = np.linalg.svd(np.array(samples) / np.sqrt(z.size), compute_uv=False)
            return worst if s[-1] > 1e-8 * s[0] else np.inf

        return argv, check

    def _wh_inverse(self, rng, d, as_json):
        # phi = 1 + sum of c_k z^k over 0 < |k| <= 2 with sum |c_k| <= 0.8,
        # so the Toeplitz section is invertible for every n
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c *= 0.8 * rng.uniform() / np.sum(np.abs(c))
        laurent = np.array([c[0], c[1], 1.0, c[2], c[3]], dtype=complex)  # z^-2 .. z^2
        rhs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        self.inputs.degrees.add(d)
        if as_json:
            symbol = fmt_rational(laurent, [0.0, 0.0, 1.0], True)
            rhs_text = fmt_rational(rhs, [1.0], True)
        else:
            symbol = f"({fmt_poly(laurent)})/z^2"
            rhs_text = fmt_poly(rhs)
        argv = ["wh-inverse", "--n", str(d), "--symbol", symbol, "--rhs", rhs_text]

        def check(payload):
            toeplitz = np.zeros((d, d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    if abs(i - j) <= 2:
                        toeplitz[i, j] = laurent[2 + i - j]
            expected = np.linalg.solve(toeplitz, rhs)
            num, den = pairs(payload["solution"]["num"]), pairs(payload["solution"]["den"])
            z = oracle.nodes(oracle.node_count(np.roots(den[::-1]) if den.size > 1 else []))
            coeffs = oracle.fourier(oracle.ratval(num, den, z))
            reference = np.zeros(z.size, dtype=complex)
            reference[:d] = expected
            return oracle.rel_dev(coeffs, reference)

        return argv, check

    def _crofoot(self, rng, d, as_json):
        # Envelope where exit code 0 is expected: with zeros out to 0.8 the
        # multiplier's poles near the circle make the handler's zero-symbol
        # check (at 1e-10) fail on about one input in thirteen.
        zeros = disk_points(rng, d, radius=0.5)
        w = complex(disk_points(rng, 1, radius=0.5)[0])
        self.inputs.spaces(zeros)
        argv = ["crofoot", "--space", fmt_space(zeros, as_json), "--w=" + fmt_complex(w)]

        def check(payload):
            if not payload["zero_symbol_check"]:
                return np.inf
            num, den = pairs(payload["multiplier"]["num"]), pairs(payload["multiplier"]["den"])
            target = payload["target"]
            t_zeros, t_const = pairs(target["zeros"]), complex(*target["constant"])
            poles = np.roots(den[::-1]) if den.size > 1 else []
            z = oracle.nodes(oracle.node_count(np.concatenate([zeros, t_zeros, poles])))
            b = oracle.blaschke(zeros, z)
            j_ref = np.sqrt(1.0 - abs(w) ** 2) / (1.0 - np.conj(w) * b)
            shifted = (b - w) / (1.0 - np.conj(w) * b)
            j_dev = np.max(np.abs(oracle.ratval(num, den, z) - j_ref)) / (1.0 + np.max(np.abs(j_ref)))
            return max(float(j_dev),
                       float(np.max(np.abs(oracle.blaschke(t_zeros, z, t_const) - shifted))),
                       residual_dev(payload["gram_residual"]))

        return argv, check

    def _conjugation_check(self, rng, d, as_json):
        zeros = disk_points(rng, d)
        constant = np.exp(2j * np.pi * rng.uniform())
        num, poles, sampled = self._symbol(rng)
        self.inputs.spaces(zeros)
        space = fmt_space(zeros, as_json, constant) if as_json else fmt_space(zeros, False)
        constant = constant if as_json else 1.0
        argv = ["conjugation-check", "--space", space,
                "--symbol", fmt_rational(num, npp.polyfromroots(poles), as_json)]

        def check(payload):
            if not payload["selfadjoint"]:
                return np.inf
            z = oracle.nodes(oracle.node_count(zeros))
            e = oracle.tm_basis(zeros, z)
            image = oracle.blaschke(zeros, z, constant) * np.conj(z) * np.conj(e)
            reference = (np.conj(e) @ image.T) / z.size
            return max(oracle.rel_dev(matrix(payload["conjugation"]), reference),
                       residual_dev(payload["residual"]))

        return argv, check

    def _rank_equiv(self, rng, d, as_json):
        r = (d + 1) // 2

        def low_rank():
            x = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
            y = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
            return x @ y

        a, b = low_rank(), low_rank()
        self.inputs.degrees.add(d)
        doc = lambda m: json.dumps({"entries": [[[v.real, v.imag] for v in row] for row in m]})
        argv = ["rank-equiv", "--a", doc(a), "--b", doc(b)]

        def check(payload):
            if not payload["equivalent"]:
                return np.inf
            e, f = matrix(payload["E"]), matrix(payload["F"])
            if max(np.linalg.cond(e), np.linalg.cond(f)) > 1e12:
                return np.inf
            return oracle.rel_dev(e @ b @ f, a)

        return argv, check


WORKLOADS = {w.name: w for w in (TtoLarge, TransportSmall, VerifyAll, CliReadme)}
