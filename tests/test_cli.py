"""Command-line interface: shorthand grammar, dispatch, exit codes, formats."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mst import cli
from mst.blaschke import BlaschkeProduct
from mst.cli import ShorthandError, parse_shorthand, run_command
from mst.rational import ComplexPoly, RationalFn


class TestParseShorthand:
    def test_monomial_power(self):
        b = parse_shorthand("z^3")
        assert isinstance(b, BlaschkeProduct)
        assert b.zeros == (0.0, 0.0, 0.0)

    def test_blaschke_list(self):
        b = parse_shorthand("blaschke(0.5, 0.3333333333)")
        assert isinstance(b, BlaschkeProduct)
        assert abs(b.zeros[0] - 0.5) < 1e-15
        assert abs(b.zeros[1] - 0.3333333333) < 1e-15

    def test_rational_with_denominator(self):
        f = parse_shorthand("(1 + 0.8333333333z)/1")
        assert isinstance(f, RationalFn)
        assert np.allclose(f.num.coeffs, [1.0, 0.8333333333])
        assert np.allclose(f.den.coeffs, [1.0])

    def test_bare_polynomial(self):
        f = parse_shorthand("2z^2 - 0.5z + 1")
        assert np.allclose(f.num.coeffs, [1.0, -0.5, 2.0])

    def test_complex_coefficients(self):
        b = parse_shorthand("blaschke(0.3-0.2i, 0.1i)")
        assert abs(b.zeros[0] - (0.3 - 0.2j)) < 1e-15
        assert abs(b.zeros[1] - 0.1j) < 1e-15

    def test_parenthesized_complex_coefficient(self):
        f = parse_shorthand("(0.5+0.5i)z^2")
        assert np.allclose(f.num.coeffs, [0.0, 0.0, 0.5 + 0.5j])

    def test_laurent_shorthand(self):
        f = parse_shorthand("(z^2+1)/z")
        assert np.allclose(f.num.coeffs, [1.0, 0.0, 1.0])
        assert np.allclose(f.den.coeffs, [0.0, 1.0])

    def test_json_passthrough(self):
        b = parse_shorthand('{"zeros": [[0.5, 0.0]]}')
        assert isinstance(b, BlaschkeProduct)
        f = parse_shorthand('{"num": [[1.0, 0.0]], "den": [[1.0, 0.0]]}')
        assert isinstance(f, RationalFn)

    def test_errors_carry_positions(self):
        with pytest.raises(ShorthandError):
            parse_shorthand("")
        with pytest.raises(ShorthandError):
            parse_shorthand("blaschke(0.5")
        with pytest.raises(ShorthandError) as info:
            parse_shorthand("1 + $z")
        assert "position" in str(info.value)


# -- reference scanners: four separate parenthesis-depth loops -------------


def _ref_split_top_level(s, separators):
    depth = 0
    start = 0
    pieces = []
    for k, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ShorthandError("unbalanced ')'", k)
        elif ch in separators and depth == 0 and k > start:
            pieces.append((s[start:k], start))
            start = k + 1
    if depth != 0:
        raise ShorthandError("unbalanced '('", len(s) - 1)
    pieces.append((s[start:], start))
    return pieces


def _ref_balanced(s):
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def _ref_is_sum(s):
    depth = 0
    for k, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and k > 0 and s[k - 1] not in "eE":
            return True
    return False


def _ref_parse_poly(text, offset=0):
    s = text.strip()
    if s.startswith("(") and s.endswith(")") and _ref_balanced(s[1:-1]):
        inner = s[1:-1]
        if "z" in inner or _ref_is_sum(inner):
            return _ref_parse_poly(inner, offset + 1)
    coeffs = {}
    k = 0
    terms = []
    depth = 0
    term_start = 0
    while k < len(s):
        ch = s[k]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and k > 0 and s[k - 1] not in "eE+-*/^(":
            terms.append((s[term_start:k], term_start))
            term_start = k
        k += 1
    terms.append((s[term_start:], term_start))
    for raw, at in terms:
        t = raw.strip()
        if not t:
            raise ShorthandError("empty term", offset + at)
        sign = 1.0
        while t and t[0] in "+-":
            if t[0] == "-":
                sign = -sign
            t = t[1:].strip()
        match = cli._TERM_RE.match(t.replace(" ", ""))
        if not match or (not match.group("coeff") and not match.group("zpart")):
            raise ShorthandError(f"bad term {raw.strip()!r}", offset + at)
        coeff_text = match.group("coeff") or ""
        if coeff_text.startswith("("):
            coeff = cli._parse_complex(coeff_text[1:-1], offset + at)
        elif coeff_text in ("", None):
            coeff = 1.0 + 0.0j
        else:
            coeff = cli._parse_complex(coeff_text, offset + at)
        power = 0
        if match.group("zpart"):
            power = int(match.group("exp") or 1)
        coeffs[power] = coeffs.get(power, 0.0) + sign * coeff
    top = max(coeffs) if coeffs else 0
    dense = np.zeros(top + 1, dtype=complex)
    for p, c in coeffs.items():
        dense[p] = c
    return ComplexPoly(dense)


def _outcome(text):
    """What a parse gives: coefficient bytes, zeros, or the exception."""
    try:
        obj = parse_shorthand(text)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(obj, RationalFn):
        return obj.num.coeffs.tobytes(), obj.den.coeffs.tobytes()
    return repr(obj.zeros), repr(obj.constant)


def _reference_outcome(text):
    with mock.patch.object(cli, "_split_top_level", _ref_split_top_level), \
            mock.patch.object(cli, "_parse_poly", _ref_parse_poly):
        return _outcome(text)


GRAMMAR_ATOMS = [
    "z", "z^2", "z^10", "z^", "2", "0.5", ".5", "1.5", "0", "1e-3", "2E+2", "1e",
    "e", "e-", "i", "j", "-i", "3i", "0.25j", "ij", "(", ")", "(1+2i)",
    "(0.5-0.5i)", "(z+1)", "(1)", "+", "-", "+-", "*", "**", "/", "^", ",", " ",
    "blaschke(", "blaschke()", "nan", "inf",
]

KNOWN_INPUTS = [
    "z^3", "blaschke(0.5, 0.3333333333)", "(1 + 0.8333333333z)/1", "2z^2 - 0.5z + 1",
    "blaschke(0.3-0.2i, 0.1i)", "(0.5+0.5i)z^2", "(z^2+1)/z", "1 + 0.8333333333z",
    "1 + $z", "blaschke(0.5", "(1+0.3z)/(z-0.000000001)", "1/(1-z)", "1/0", "1e400",
    "(0.1+0.2i)+(0.3-0.1i)z+(-0.5+0.0i)z^2", "((0.25-1.5e-05i)+(1.0+0.0i)z)/((2.0+0.0i))",
    "(1)+(2)", "(1*-2)", "((z))", "-(z)", "blaschke((0.5), 0.1)", "blaschke(,0.5)",
]


class TestScannerDifferential:
    """One top-level scanner parses exactly as four separate loops did."""

    @pytest.mark.parametrize("text", KNOWN_INPUTS)
    def test_known_inputs(self, text):
        assert _outcome(text) == _reference_outcome(text)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(GRAMMAR_ATOMS), max_size=12).map("".join))
    def test_random_joins_of_grammar_atoms(self, text):
        assert _outcome(text) == _reference_outcome(text)


class TestCommands:
    def test_tto_matches_known_matrix(self, capsys):
        code = run_command(
            [
                "tto",
                "--space",
                '{"zeros":[[0,0],[0,0]]}',
                "--symbol",
                '{"num":[[1,0],[0.8333333333,0]],"den":[[1,0]]}',
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        entries = np.array([[complex(re, im) for re, im in row] for row in doc["entries"]])
        assert np.max(np.abs(entries - np.array([[1.0, 0.0], [0.8333333333, 1.0]]))) < 1e-12

    def test_round_trip_bit_exact(self, capsys):
        code = run_command(["tto", "--space", "z^2", "--symbol", "(1+0.1z)/(1-0.3z)"])
        assert code == 0
        text = capsys.readouterr().out
        assert json.loads(text) == json.loads(json.dumps(json.loads(text)))

    def test_dual_kernel_example(self, capsys):
        code = run_command(["dual-kernel", "--theta", "z^2", "--alpha", "z^2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 1 and doc["k"] == 0
        element = doc["basis"][0]
        num = element["antianalytic"]["num"]
        den = element["antianalytic"]["den"]
        assert len(den) - len(num) == 2  # a multiple of conj(z^2)

    def test_equiv_exit_codes(self, capsys):
        argv = [
            "equiv",
            "--theta", "blaschke(0.5, 0.3333333333)",
            "--alpha", "blaschke(0.5, 0.3333333333)",
            "--eta", "z^2",
            "--gamma", "z^2",
            "--symbol", "(z^2+1)/z",
        ]
        assert run_command(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["residual"] < 1e-9
        # an absurdly tight tolerance flips the exit code to 2
        assert run_command(argv + ["--tol", "1e-30"]) == 2

    def test_equiv_degree_six_ill_conditioned_factor(self, capsys):
        # cli_readme seed 8 op 1128: cond_F is 9.4e3, and exact pairings of
        # 1/a1 left the residual at 1.17e-9 against the default 1e-9
        argv = [
            "equiv",
            "--theta", "blaschke(0.4553327887713775+0.11434538137758142i, "
            "-0.4364496031017643-0.66258350545015i, 0.247714326576858-0.5965715373462553i, "
            "0.48124801599157085+0.13245603777771803i, "
            "0.24654266532727456-0.6737871719312363i, -0.2577566699065353-0.6079879021161753i)",
            "--alpha", "blaschke(0.4553755304770746-0.4039283482444099i)",
            "--eta", "blaschke(-0.07772792086178641+0.3151289627075909i, "
            "0.13086782506558975+0.2927290768745655i, 0.12195216054239388+0.5292331190211738i, "
            "0.3300101599488396+0.6522096358538243i, 0.07780714940035807+0.7314058632104451i, "
            "-0.5642712097198027+0.18075860341529226i)",
            "--gamma", "blaschke(-0.5276626492838514+0.39398402127655735i)",
            "--symbol", "((0.36079580833993186-0.2766131880334484i)"
            "+(-0.3567527914096566+0.006093189127128251i)z"
            "+(-0.1424673943321247-0.06498279118100715i)z^2)"
            "/((0.12788928104715813-0.707662013278721i)"
            "+(-1.4361976585227985+1.2172977213901544i)z+(1.0+0.0i)z^2)",
        ]
        assert run_command(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["residual"] < 1e-9

    def test_wh_inverse(self, capsys):
        code = run_command(
            ["wh-inverse", "--n", "2", "--symbol", "1 + 0.8333333333z", "--rhs", "1"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        sol = doc["solution"]["num"]
        assert abs(sol[0][0] - 1.0) < 1e-9 and abs(sol[1][0] + 0.8333333333) < 1e-9

    def test_wh_inverse_singular(self, capsys):
        code = run_command(["wh-inverse", "--n", "1", "--symbol", "0"])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "no-canonical-factorization"

    def test_crofoot(self, capsys):
        code = run_command(["crofoot", "--space", "z^2", "--w", "0.4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gram_residual"] < 1e-9
        assert doc["zero_symbol_check"] is True

    # zeros and w out to radius 0.8 (the first is op 627 of the cli_readme
    # benchmark at seed 1, the others default_rng([7, k]) draws), where the poles of J come within 1.02 to
    # 1.10 of the circle and the degree-doubled symbol 1 - |J|^2 loses digits
    # in the residue path; the Gram matrix of J e_k keeps them
    NEAR_CIRCLE_CROFOOT = [
        ([(0.45102275163431893, 0.2106271137393867), (0.3223766381965317, 0.22315985542638478),
          (0.27654050619190196, -0.16845987895451833), (0.35319568669436435, 0.21301731023810785),
          (0.21090153018123692, -0.36195877524440323), (0.39263457684132885, 0.1838372529089742)],
         "-0.1683519695451475+0.25790913387951353i"),
        ([(0.37345106865728683, -0.5788984871258465), (0.5189111696453753, -0.14378965669398658),
          (0.5831432497602876, 0.2133786291623019), (-0.2447927676647101, 0.5350544978837432),
          (0.5916060473353959, 0.4744253229865291), (0.2758987049470694, -0.18200248241796338)],
         "0.4990098503332005+0.4545312513666654i"),
        ([(0.02104186806528592, -0.5797701312087806), (-0.020859741533163924, -0.7669439775912328),
          (-0.5277467236496132, -0.28396212179886443)],
         "-0.26174506269442316+0.5512761458073135i"),
        ([(-0.4679570926151815, 0.4884715033438108), (-0.5249900255631229, -0.09571380918436241),
          (-0.3438354432377063, 0.29576007955742395), (-0.5083631066948985, 0.1414130076712961)],
         "0.21028261860804726+0.48453081494737105i"),
        ([(-0.4466277658340405, 0.14792962717740085), (0.03945259444504524, 0.759201776246922),
          (0.38515596742814995, 0.5924131652077114), (0.7553884792275464, 0.0809875349553729),
          (-0.06809086113268496, 0.6018077206090371)],
         "-0.4445281684395771-0.5094722080384135i"),
        ([(-0.12949768130000544, -0.774514023926834), (0.18270532559445224, -0.7200427720656116),
          (0.2637099700932598, 0.0026754882916270465), (0.6737684319049754, 0.1747824851306423),
          (-0.07098148881959315, 0.7130375234126757), (0.1452799028206619, -0.5675651349533932)],
         "-0.2506797065322011-0.716355918877827i"),
    ]

    @pytest.mark.parametrize(
        "zeros, w", NEAR_CIRCLE_CROFOOT, ids=["op627", "k17", "k20", "k39", "k46", "k65"]
    )
    def test_crofoot_near_circle_poles(self, capsys, zeros, w):
        space = json.dumps({"zeros": [list(z) for z in zeros], "constant": [1.0, 0.0]})
        code = run_command(["crofoot", "--space", space, "--w=" + w])
        doc = json.loads(capsys.readouterr().out)
        assert doc["zero_symbol_check"] is True
        assert code == 0

    def test_conjugation_check(self, capsys):
        code = run_command(
            ["conjugation-check", "--space", "blaschke(0.5,0.3333333333)", "--symbol", "(z^2+1)/z"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["selfadjoint"] is True

    def test_rank_equiv(self, capsys):
        a = json.dumps({"entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]})
        b = json.dumps({"entries": [[[0, 0], [0, 0]], [[0, 0], [2, 0]]]})
        assert run_command(["rank-equiv", "--a", a, "--b", b]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["equivalent"] is True and doc["residual"] < 1e-10
        c = json.dumps({"entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
        assert run_command(["rank-equiv", "--a", a, "--b", c]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["equivalent"] is False

    def test_verify_suite(self, capsys):
        code = run_command(["verify", "--suite", "wh", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("suite,check,residual")

    def test_malformed_json_diagnostic(self, capsys):
        code = run_command(["tto", "--space", '{"zeros": [[0,0],', "--symbol", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_field_rejected(self, capsys):
        code = run_command(
            ["tto", "--space", '{"zeros": [], "spin": 1}', "--symbol", "1"]
        )
        assert code == 1

    def test_circle_pole_rejected(self, capsys):
        code = run_command(["tto", "--space", "z^2", "--symbol", "1/(1-z)"])
        assert code == 1

    # each input once raised past run_command (ZeroDivisionError,
    # ArithmeticError) or, for non-finite coefficients, was trimmed to the
    # zero symbol and exited 0 with a zero matrix
    REJECTED = [
        ["tto", "--space", "z", "--symbol", "1/0"],
        ["tto", "--space", "z", "--symbol", '{"num": [[1, 0]], "den": []}'],
        ["crofoot", "--space", "blaschke(0.9999999, 0.9999998)", "--w", "0.99999999"],
        ["tto", "--space", "z", "--symbol", "1e400"],
        ["tto", "--space", "z", "--symbol", '{"num": [[NaN, 0]], "den": [[1, 0]]}'],
    ]

    @pytest.mark.parametrize(
        "argv", REJECTED, ids=["zero-den", "json-empty-den", "degenerate-shift", "overflow", "nan"]
    )
    def test_rejected_input_exits_one(self, capsys, argv):
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert "input error" in captured.err
        assert captured.out == ""

    def test_wh_inverse_rejects_pole_near_origin(self, capsys):
        # a pole at 1e-9 is no monomial denominator: it is not read as 1/z
        argv = ["wh-inverse", "--n", "2", "--symbol", "(1+0.3z)/(z-0.000000001)", "--rhs", "1"]
        assert run_command(argv) == 1
        assert "Laurent polynomial" in capsys.readouterr().err

    def test_env_tolerance(self, capsys, monkeypatch):
        argv = [
            "equiv",
            "--theta", "blaschke(0.5, 0.3333333333)",
            "--alpha", "blaschke(0.5, 0.3333333333)",
            "--eta", "z^2",
            "--gamma", "z^2",
            "--symbol", "(z^2+1)/z",
        ]
        monkeypatch.setenv("MST_TOL", "1e-30")
        assert run_command(argv) == 2
        capsys.readouterr()
        monkeypatch.setenv("MST_TOL", "1e-6")
        assert run_command(argv) == 0

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "matrix.json"
        code = run_command(
            ["tto", "--space", "z^2", "--symbol", "1", "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["rows"] == 2

    def test_csv_matrix(self, capsys):
        code = run_command(["tto", "--space", "z^2", "--symbol", "z", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "0.0+0.0i,0.0+0.0i"
        assert lines[1] == "1.0+0.0i,0.0+0.0i"


# Every check of ``mst verify --suite all``, in output order: (suite, name,
# tolerance, direction).  The benchmark's verify workload and readers of the
# JSON select checks by these fields, so a change here is a change of the
# output format.
VERIFY_CHECKS = [
    ("rational", "riesz reconstruction on circle samples", 1e-10, "below"),
    ("rational", "riesz idempotence (coefficient residual)", 1e-12, "below"),
    ("rational", "riesz self-adjointness", 1e-10, "below"),
    ("rational", "parseval cross-check", 1e-10, "below"),
    ("rational", "circle involution squared", 1e-12, "below"),
    ("blaschke", "frostman shift pointwise identity", 1e-9, "below"),
    ("blaschke", "monomial factorization reconstruction", 1e-10, "below"),
    ("blaschke", "generalized shift unimodularity", 1e-9, "below"),
    ("blaschke", "generalized shift factor identity", 1e-9, "below"),
    ("blaschke", "gcd times quotient reconstruction", 1e-9, "below"),
    ("model", "projection transport identities", 1e-9, "below"),
    ("model", "annihilator duality", 1e-9, "below"),
    ("model", "crofoot image gram identity", 1e-9, "below"),
    ("model", "reproducing property", 1e-9, "below"),
    ("model", "multiplier root margin outside the disk", 0.0, "above"),
    ("operators", "equivalence identity (random instances)", 1e-9, "below"),
    ("operators", "equivalence factor condition numbers", 1e8, "below"),
    ("operators", "kernel transport subspace angle", 1e-7, "below"),
    ("operators", "multiplier inverse transport", 1e-9, "below"),
    ("operators", "complex selfadjointness of compressions", 1e-9, "below"),
    ("operators", "product splitting residual", 1e-9, "below"),
    ("operators", "unitary criterion agreement", 0.5, "below"),
    ("dual", "dual symbol uniqueness probes", 0.5, "below"),
    ("dual", "dual kernel dimension table", 0.5, "below"),
    ("dual", "dual kernel membership residuals", 1e-9, "below"),
    ("dual", "dual transport residual", 1e-8, "below"),
    ("dual", "dual transport negative control", 1e-3, "above"),
    ("dual", "hankel rank monotone and stable", 0.5, "below"),
    ("wh", "factorization recombination", 1e-9, "below"),
    ("wh", "formula inverse vs direct inverse", 1e-8, "below"),
    ("wh", "factorization/invertibility dichotomy", 0.5, "below"),
]


def test_verify_all_check_table(capsys):
    assert run_command(["verify", "--suite", "all"]) == 0
    doc = json.loads(capsys.readouterr().out)
    got = [
        (suite["suite"], c["name"], c["tolerance"], c["direction"])
        for suite in doc["suites"]
        for c in suite["checks"]
    ]
    assert got == VERIFY_CHECKS
    assert doc["passed"] and all(c["passed"] for s in doc["suites"] for c in s["checks"])
