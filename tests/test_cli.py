import contextlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamond import cli
from diamond.cli import (
    MAX_CYCLOTOMIC_ORDER,
    MAX_DEGREE,
    MAX_EXPR_BITS,
    MAX_EXPR_DEPTH,
    MAX_EXPR_LETTERS,
    MAX_EXPR_TERMS,
    MAX_GROWTH_LEN,
    MAX_HOPF_DEGREE,
    ExprError,
    UsageError,
    parse_defining,
    parse_expr,
    run_command,
)
from diamond.claims import run_claim_suites
from diamond.coalgebra import hopf_ideal_check
from diamond.freealg import Alphabet, NcPoly, bidegree_sum
from diamond.presentations import AX, DefiningPolynomial, build_system
from diamond.rewrite import ReductionStats, check_confluence, normal_form, resolve_ambiguity
from diamond.scalars import CyclotomicField

A, X = 0, 1


def mono(*letters):
    return NcPoly.monomial(AX, letters)


def test_parsed_input_reduces_in_int():
    # the parser gives int and Fraction coefficients; the integral system maps them
    # into its int domain, so the normal form comes back in int
    system = build_system(DefiningPolynomial.from_coefficients((0, 0, 0, 1))).system
    nf = normal_form(parse_expr("2*x^4*a + a*x^4", AX), system)
    assert nf and {type(c) for _, c in nf.items()} == {int}


def test_parse_examples():
    assert parse_expr("a*x + x*a", AX) == bidegree_sum(AX, 1, 1)
    g = parse_defining("x^3 + 2*x^2 + 1/2*x")
    assert g.coefficients == (Fraction(1, 2), Fraction(2), Fraction(1))
    assert parse_expr("a*x - x*a", AX) != parse_expr("x*a - a*x", AX)
    assert parse_expr("a*x - x*a", AX) == -parse_expr("x*a - a*x", AX)


def test_parse_structure():
    assert parse_expr("-(a + x)^2", AX) == -(mono(A) + mono(X)) ** 2
    assert parse_expr("3/4", AX) == NcPoly.one(AX).scale(Fraction(3, 4))
    assert parse_expr(" a * x ^ 2 ", AX) == mono(A, X, X)


def test_parse_coefficient_list():
    g = parse_defining("1, 0, 1")
    assert g.coefficients == (Fraction(1), Fraction(0), Fraction(1))
    g = parse_defining("1/2, -3")
    assert g.coefficients == (Fraction(1, 2), Fraction(-3))


def test_parse_cyclotomic():
    field = CyclotomicField(3)
    p = parse_expr("q*a + q^2*x", AX, field)
    assert p.coeff((A,)) == field.q
    assert p.coeff((X,)) == field.q ** 2
    with pytest.raises(ExprError):
        parse_expr("q*a", AX)  # q needs a cyclotomic context


def test_parse_errors():
    with pytest.raises(ExprError):
        parse_expr("a x", AX)  # juxtaposition
    with pytest.raises(ExprError):
        parse_expr("a*(x", AX)
    with pytest.raises(ExprError):
        parse_expr("z + 1", AX)
    with pytest.raises(ExprError):
        parse_expr("x^0", AX)
    with pytest.raises(ExprError):
        parse_expr("1/0", AX)
    with pytest.raises(ExprError):
        parse_expr("a $ x", AX)
    err = None
    try:
        parse_expr("a*x + + x", AX)
    except ExprError as exc:
        err = exc
    assert err is not None and "position" in str(err)


def test_numbers_are_decimal_digits(capsys):
    # a number is what int() reads, the str.isdecimal digits: a superscript
    # digit is an unexpected character, an Arabic-Indic digit is a number
    with pytest.raises(ExprError, match="unexpected character '²'") as info:
        parse_expr("x^²", AX)
    assert info.value.position == 2
    assert parse_expr("x^٣ + １", AX) == mono(X, X, X) + NcPoly.one(AX)
    assert run_command(["nf", "--g", "x^2", "--expr", "x^²"]) == 2
    assert capsys.readouterr().err == "error: unexpected character '²' (at position 2)\n"
    assert run_command(["present", "--g", "1,²"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unexpected character '²'" in err


def test_coefficient_list_errors_point_into_the_text(capsys):
    # the position counts from the start of --g, not from the stripped entry
    for text, entry, message, position in (
        ("1,²", "²", "unexpected character '²'", 2),
        ("1, 2, x^", "x^", "expected 'int', found ''", 8),
        ("1/2,  1/0", "1/0", "zero denominator", 7),
        (" 1 ,(2", "(2", "expected ')', found ''", 6),
    ):
        assert run_command(["present", "--g", text]) == 2
        expected = f"error: coefficient {entry!r}: {message} (at position {position})\n"
        assert capsys.readouterr().err == expected


@settings(max_examples=500, deadline=None)
@given(
    st.text(alphabet="ax+-*/^() 0123456789q²٣１é_", max_size=12),
    st.sampled_from([None, CyclotomicField(4)]),
)
def test_parse_expr_returns_a_poly_or_raises_expr_error(text, field):
    try:
        result = parse_expr(text, AX, field)
    except ExprError:
        return
    assert isinstance(result, NcPoly)


def test_coefficient_list_entries_are_constant_expressions():
    # each entry of a list is read by the expression grammar
    field = CyclotomicField(8)
    for entry in ("q/2", "(1+q)^2", "2*q*q", "1/q", "-3/4", "2^3/3^2"):
        listed = parse_defining(f"{entry}, 0, 1", "x", field)
        expression = parse_defining(f"({entry})*x + x^3", "x", field)
        assert listed == expression
        assert listed.coefficient(1) == parse_expr(entry, AX, field).coeff(())
    assert parse_expr("q/2", AX, field) == parse_expr("1/2*q", AX, field)
    assert parse_expr("2/3^2", AX) == NcPoly.one(AX).scale(Fraction(2, 9))
    assert parse_defining("x/2 + x^2") == parse_defining("1/2, 1")
    for text, message in (
        ("0.5, 1", "unexpected character '.'"),
        ("1e3, 1", "missing '*'"),
        ("1/0, 1", "zero denominator"),
        ("x, 1", "is not a constant"),
        ("q, 1", "unknown symbol 'q'"),
    ):
        with pytest.raises(UsageError, match=message):
            parse_defining(text)
    for text in ("x/x", "x/(q-q)", "a/0"):
        with pytest.raises(ExprError):
            parse_expr(text, AX, field)


def test_zero_denominator_exits_2(capsys):
    for argv in (
        ["present", "--g", "1/0, 1"],
        ["present", "--g", "x^2 + x/0"],
        ["nf", "--g", "x^2", "--expr", "a/(1-1)"],
        ["present", "--g", "x^2 + x/(q^4+1)", "--cyclotomic", "8"],
    ):
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "zero denominator" in err


FUZZ_TEXT = st.text(alphabet="xq0129+-*/^(). ", max_size=14)


@settings(max_examples=150, deadline=None)
@given(FUZZ_TEXT, FUZZ_TEXT, st.sampled_from([None, "1", "2", "8"]))
def test_random_defining_text_exits_0_or_2(first, second, order):
    # any text, as an expression or as a two-entry list, is either accepted
    # or refused with exit 2; no input may raise.  The degree guard is
    # lowered so that accepted inputs stay cheap to build.
    extra = [] if order is None else ["--cyclotomic", order]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "MAX_DEGREE", 8)
        for text in (first, f"{first}, {second}"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_command(["present", f"--g={text}", *extra])
            assert code in (0, 2)
            assert (code == 2) == err.getvalue().startswith("error:")


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
words = st.lists(st.integers(0, 1), max_size=4).map(tuple)
polys = st.dictionaries(words, coeffs, max_size=4).map(lambda d: NcPoly(AX, d))


@settings(max_examples=50, deadline=None)
@given(polys)
def test_render_parse_round_trip(p):
    assert parse_expr(p.render(), AX) == p


def test_cmd_nf(capsys):
    assert run_command(["nf", "--g", "x^2", "--expr", "a*x*a*x"]) == 0
    assert capsys.readouterr().out.strip() == "-x^2*a^2"


def test_cmd_present(capsys):
    assert run_command(["present", "--g", "x^2 + x"]) == 0
    out = capsys.readouterr().out
    assert "sigma_1" in out and "a*x + x*a - a^2 + a" in out


def test_cmd_confluence(capsys):
    assert run_command(["confluence", "--g", "x^5"]) == 0
    out = capsys.readouterr().out
    assert "6 overlap, 0 inclusion" in out
    assert "overall: resolvable" in out


def test_cmd_basis(capsys):
    assert run_command(["basis", "--n", "3", "--max-len", "3"]) == 0
    out = capsys.readouterr().out
    assert "counts per length: [1, 2, 4, 6]" in out
    # 342,092 words: refused from the census count before enumerating
    assert run_command(["basis", "--n", "5", "--max-len", "20"]) == 2
    err = capsys.readouterr().err
    assert "resource guard: the basis has 342092 words" in err
    # --max-len is checked before the census, whose counts of an exponential
    # system would be too long to print in the word-count message
    assert run_command(["basis", "--n", "6", "--max-len", "20000"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"<= {MAX_GROWTH_LEN}" in err
    assert "integer string conversion" not in err
    assert run_command(["basis", "--n", "3", "--max-len", "-1"]) == 2
    assert run_command(["growth", "--n", "3", "--max-len", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "max_len must be >= 0" in err


def test_cmd_growth(capsys):
    assert run_command(["growth", "--n", "2", "--max-len", "12"]) == 0
    out = capsys.readouterr().out
    assert "polynomial, exponent 2" in out
    # the classification reads the automaton, not the counts
    assert run_command(["growth", "--n", "3", "--max-len", "3"]) == 0
    assert "classification: polynomial, exponent 3" in capsys.readouterr().out
    assert run_command(["growth", "--n", "5"]) == 0
    assert "classification: exponential\n" in capsys.readouterr().out
    for n in ("1", "0", "-3"):
        assert run_command(["growth", "--n", n]) == 2
        assert run_command(["basis", "--n", n]) == 2
    assert "--n must be >= 2" in capsys.readouterr().err


def test_power_system_keeps_the_automaton_of_build_system():
    # growth and basis build only the left sides; the census and the
    # classification read nothing else
    for n in range(2, 9):
        full = build_system(DefiningPolynomial.from_coefficients((0,) * (n - 1) + (1,))).system
        left = cli._power_system(n)
        assert [r.lhs for r in left.rules] == [r.lhs for r in full.rules]
        assert left.automaton.delta == full.automaton.delta
        assert left.automaton.rank == full.automaton.rank


def test_cmd_growth_long(tmp_path, capsys):
    # counts of x^i <blocks> a^k for blocks a^p x^q (p, q > 0, p + q < 5):
    # the block products d obey d_l = d_(l-2) + 2 d_(l-3) + 3 d_(l-4), and
    # the census is their second running sum
    L = 200
    out = tmp_path / "growth.json"
    assert run_command(["growth", "--n", "5", "--max-len", str(L), "--json", str(out)]) == 0
    d = [1] + [0] * L
    for ell in range(1, L + 1):
        d[ell] = sum(c * d[ell - t] for t, c in ((2, 1), (3, 2), (4, 3)) if ell >= t)
    e = [sum(d[: ell + 1]) for ell in range(L + 1)]
    expected = [sum(e[: ell + 1]) for ell in range(L + 1)]
    doc = json.loads(out.read_text())
    assert doc["counts"] == expected
    assert doc["classification"] == "exponential"


def test_budget_exceeded_exit_code(tmp_path, capsys):
    out = tmp_path / "error.json"
    argv = ["confluence", "--g", "x^4", "--budget", "1", "--json", str(out)]
    assert run_command(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: exceeded 1 elementary reductions")
    assert json.loads(out.read_text())["error"] == "budget_exceeded"
    argv = ["nf", "--g", "x^2", "--expr", "a*x*a*x", "--budget", "1"]
    assert run_command(argv) == 3
    assert capsys.readouterr().err.count("\n") == 1


def test_confluence_budget_bounds_each_s_polynomial(capsys):
    # --budget bounds each normal_form call, and confluence makes one per
    # ambiguity it reduces: the reduction of its S-polynomial
    system = build_system(DefiningPolynomial.from_coefficients((0, 0, 0, 0, 1))).system
    steps = []
    for res in check_confluence(system).resolutions:
        if res.implied_by is None:
            stats = ReductionStats()
            resolve_ambiguity(res.ambiguity, system, stats)
            steps.append(stats.steps)
    largest = max(steps)
    assert run_command(["confluence", "--g", "x^5", "--budget", str(largest)]) == 0
    assert run_command(["confluence", "--g", "x^5", "--budget", str(largest - 1)]) == 3
    assert f"exceeded {largest - 1} elementary reductions" in capsys.readouterr().err


def test_cmd_central(capsys):
    assert run_command(["central", "--g", "x^3", "--expr", "a^3"]) == 0
    assert run_command(["central", "--g", "x^2", "--expr", "a"]) == 1


def test_cmd_hopf_ideal(capsys):
    assert run_command(["hopf-ideal", "--g", "x^3"]) == 0


def test_hopf_ideal_guard(capsys, monkeypatch):
    # the guard is checked before the system is built; the check itself
    # runs on x^2 here, since x^10 takes over a second
    checked = []

    def check(pres):
        checked.append(pres.system.describe())
        return hopf_ideal_check(build_system(DefiningPolynomial.from_coefficients((0, 1))))

    monkeypatch.setattr(cli, "hopf_ideal_check", check)
    assert run_command(["hopf-ideal", "--g", f"x^{MAX_HOPF_DEGREE + 1}"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"hopf-ideal needs degree <= {MAX_HOPF_DEGREE}" in err
    assert checked == []
    assert run_command(["hopf-ideal", "--g", f"x^{MAX_HOPF_DEGREE}"]) == 0
    assert checked == [f"Sigma[x^{MAX_HOPF_DEGREE}]"]


def test_cmd_tensor(capsys):
    assert run_command(["tensor", "--g", "x^2 + x^3", "--f", "y^2"]) == 0
    out = capsys.readouterr().out
    assert "curve" in out and "group" in out


def test_cmd_nf_tensor(capsys):
    code = run_command(["nf", "--g", "x^2", "--f", "y^2", "--expr", "y*a - a*y"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_usage_errors(capsys):
    assert run_command(["nonsense"]) == 2
    assert run_command(["nf", "--g", "x^2", "--expr", "a x"]) == 2
    assert run_command(["present", "--g", "x"]) == 2  # degree must be >= 2
    for budget in ("0", "-1"):
        assert run_command(["nf", "--g", "x^2", "--expr", "a*x", "--budget", budget]) == 2
        assert run_command(["confluence", "--g", "x^3", "--budget", budget]) == 2
        assert "--budget: expected a positive integer" in capsys.readouterr().err
    too_long = str(MAX_GROWTH_LEN + 1)
    assert run_command(["growth", "--n", "6", "--max-len", too_long]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"<= {MAX_GROWTH_LEN}" in err
    # build_system creates 2^n - 2 words, so every way in to a degree is capped
    big = str(MAX_DEGREE + 1)
    coefficient_list = ", ".join(["0"] * MAX_DEGREE + ["1"])
    for argv in (
        ["present", "--g", f"x^{big}"],
        ["confluence", "--g", coefficient_list],
        ["nf", "--g", "x^2", "--f", f"y^{big}", "--expr", "a"],
        ["tensor", "--g", "x^2", "--f", f"y^{big}"],
        ["growth", "--n", big],
        ["basis", "--n", big],
    ):
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"degree must be <= {MAX_DEGREE}" in err
    # an order above the guard is refused before its field is built
    start = time.monotonic()
    for order in (str(MAX_CYCLOTOMIC_ORDER + 1), "99999999"):
        assert run_command(["present", "--g", "x^2", "--cyclotomic", order]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"--cyclotomic must be <= {MAX_CYCLOTOMIC_ORDER}" in err
    assert time.monotonic() - start < 5
    assert run_command(["present", "--g", "x^2 + q*x", "--cyclotomic", str(MAX_CYCLOTOMIC_ORDER)]) == 0
    capsys.readouterr()
    # --cyclotomic 0 used to fall back to Q silently
    for order in ("0", "-3"):
        assert run_command(["present", "--g", "x^2", "--cyclotomic", order]) == 2
        assert "--cyclotomic: expected a positive integer" in capsys.readouterr().err


def test_parser_size_guard(capsys):
    for text in ("(a+x)^20", "x^32000", "(a+x)^9*(a+x)^8", "a^600*x^401", "2^1001"):
        start = time.monotonic()
        with pytest.raises(ExprError, match="resource guard"):
            parse_expr(text, AX)
        assert time.monotonic() - start < 5
    start = time.monotonic()
    assert run_command(["nf", "--g", "x^2", "--expr", "(a+x)^20"]) == 2
    assert run_command(["present", "--g", "x^100000"]) == 2
    assert time.monotonic() - start < 5
    assert capsys.readouterr().err.count("error: resource guard") == 2
    # both caps are inclusive
    assert len(parse_expr("(a+x)^16", AX)) == MAX_EXPR_TERMS
    assert parse_expr(f"x^{MAX_EXPR_LETTERS}", AX).degree() == MAX_EXPR_LETTERS


def test_parser_coefficient_guard(capsys):
    # powers of constants used to build coefficients of a million bits and
    # more, and then failed with Python's limit on integer text, not a guard
    big_literal = "9" * (3 * MAX_EXPR_BITS // 10)
    for text in (
        "(2^1000)^1000",
        "((2^1000)*x)^1000",
        "(2^1000)^10",
        "2^999*(2^1000)^9*a",
        "9" * 5000,
        big_literal + "*x",
        "1/(2^1000)^9 + 1/(3^600)^9",
    ):
        start = time.monotonic()
        assert run_command(["nf", "--g", "x^2", "--expr", text]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: resource guard: coefficients")
        assert time.monotonic() - start < 5
    # the largest power of 2^999 the guard allows renders, and so does a
    # literal one digit shorter than the one refused
    assert run_command(["nf", "--g", "x^2", "--expr", "(2^999)^10*a"]) == 0
    assert capsys.readouterr().out == f"{2**9990}*a\n"
    assert run_command(["nf", "--g", "x^2", "--expr", big_literal[1:] + "*x"]) == 0
    assert capsys.readouterr().out == f"{big_literal[1:]}*x\n"
    # the bound is on the coefficients, not on the exponent: (1+q)^1000 over
    # Q(zeta_8) has coefficients of 885 bits
    assert run_command(["nf", "--g", "x^2", "--cyclotomic", "8", "--expr", "(1+q)^1000*a"]) == 0
    capsys.readouterr()


def test_printed_results_are_bounded(capsys):
    # the input guard bounds the parsed g and expression, not what reduction
    # makes of them: this normal form holds the square of a 9,991-bit
    # coefficient, past the 4,300 digits that Python turns into text
    argv = ["nf", "--g", "x^2 + (2^999)^10*x", "--expr", "(a*x)^2", "--json", "-"]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: resource guard: the result has coefficients")
    # residue entries count too
    argv = ["nf", "--g", "x^2 + (2^999)^10*q*x", "--cyclotomic", "8", "--expr", "(a*x)^2"]
    assert run_command(argv) == 2
    assert capsys.readouterr().err.startswith("error: resource guard: the result")
    # the g itself, and a normal form at the bound, still print
    assert run_command(["present", "--g", "x^2 + (2^999)^10*x"]) == 0
    assert str(2**9990) in capsys.readouterr().out
    assert run_command(["nf", "--g", "x^2 + (2^999)^10*x", "--expr", "a*x"]) == 0
    big = 2**9990
    assert capsys.readouterr().out == f"-x*a + {big}*a^2 - {big}*a\n"


def test_parser_depth_guard(capsys):
    # the parser recurses on each '(' and each unary '-'; deep nesting used
    # to end in a RecursionError traceback
    nested = "(" * 250 + "x" + ")" * 250
    for argv in (
        ["nf", "--g", "x^2", "--expr", nested],
        ["nf", "--g", "x^2", "--expr=" + "-" * 500 + "x"],
        ["present", "--g", "(" * 300 + "x" + ")" * 300 + "^2"],
    ):
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: resource guard")
    depth = MAX_EXPR_DEPTH
    assert parse_expr("(" * depth + "x" + ")" * depth, AX) == parse_expr("x", AX)
    assert parse_expr("-" * depth + "x", AX) == parse_expr("x", AX)
    assert parse_expr("-(" * (depth // 2) + "a" + ")" * (depth // 2), AX) == parse_expr("a", AX)
    for text in ("(" * (depth + 1) + "x" + ")" * (depth + 1), "-" * (depth + 1) + "x"):
        with pytest.raises(ExprError, match="resource guard"):
            parse_expr(text, AX)
    assert run_command(["present", "--g", "(" * depth + "x" + ")" * depth + "^2"]) == 0


def test_unwritable_json_path(tmp_path, capsys, monkeypatch):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran before the --json path was checked")

    monkeypatch.setattr(cli, "run_claim_suites", no_suite)
    missing = str(tmp_path / "missing" / "report.json")
    assert run_command(["verify", "all", "--json", missing]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and "report.json" in err
    assert run_command(["present", "--g", "x^2", "--json", missing]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cyclotomic_flag(capsys):
    code = run_command(
        ["nf", "--g", "0, q^2, 0, 1", "--cyclotomic", "8", "--expr", "a^3*x"]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out == "-a^2*x*a - a*x*a^2 - x*a^3"


def test_verify_single_suite(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run_command(["verify", "growth", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "growth-dichotomy" in out
    doc = json.loads(path.read_text())
    assert doc["tool"] == "diamond"
    assert [c["id"] for c in doc["claims"]] == sorted(c["id"] for c in doc["claims"])
    assert all(
        c["verdict"] in ("pass", "fail", "report-only") for c in doc["claims"]
    )


def test_order_flag_validation(capsys):
    # the order comes with the system, so --order (and verify's --slack)
    # are unknown arguments
    for argv in (
        ["nf", "--g", "x^2", "--expr", "a*x", "--order", "grlex+"],
        ["nf", "--g", "x^2", "--f", "y^2", "--expr", "a*x", "--order", "product"],
        ["central", "--g", "x^2", "--expr", "a*x", "--order", "grlex+"],
        ["verify", "growth", "--slack", "1"],
    ):
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --" in err, argv


def test_expression_values_may_begin_with_minus(capsys):
    # a separate value that begins with '-' is read as the option's value,
    # as the '=' form is; a missing value, or an option in its place, is not
    for argv, joined in (
        (["nf", "--g", "x^2", "--expr", "-a*x"], ["nf", "--g", "x^2", "--expr=-a*x"]),
        (["nf", "--g", "-x^2", "--expr", "a"], ["nf", "--g=-x^2", "--expr", "a"]),
        (["nf", "--g", "x^2", "--f", "-y^3", "--expr", "-a*x*y"],
         ["nf", "--g", "x^2", "--f=-y^3", "--expr=-a*x*y"]),
    ):
        assert run_command(joined) == 0
        expected = capsys.readouterr().out
        assert run_command(argv) == 0, argv
        assert capsys.readouterr().out == expected
    assert expected == "x*a*y\n"
    for argv in (
        ["nf", "--g", "x^2", "--expr"],
        ["nf", "--g", "x^2", "--expr", "--json", "-"],
        ["nf", "--g", "x^2", "--expr", "--js", "-"],
        ["nf", "--g", "x^2", "--expr", "-h"],
    ):
        assert run_command(argv) == 2, argv
        assert "--expr: expected one argument" in capsys.readouterr().err


def test_tensor_usage_errors(capsys):
    assert run_command(["tensor", "--g", "x^2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: tensor needs both --g and --f\n" and captured.out == ""


def test_determinism(capsys):
    assert run_command(["confluence", "--g", "x^4 + x^2"]) == 0
    first = capsys.readouterr().out
    assert run_command(["confluence", "--g", "x^4 + x^2"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_determinism_across_processes():
    import subprocess
    import sys as _sys

    cmd = [
        _sys.executable,
        "-m",
        "diamond.cli",
        "verify",
        "named-curves",
        "--json",
        "-",
    ]
    runs = [
        subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)
    ]
    assert runs[0] == runs[1]


CLI_GOLDENS = {
    "present_rational_nonmonic.json": ["present", "--g", "3*x^3 - 2/3*x^2 + 1/2*x"],
    "present_zeta8.json": [
        "present", "--g", "q/2*x + x^2/3 + (q^3 - 1)*x^3", "--cyclotomic", "8",
    ],
    "tensor_nodal.json": ["tensor", "--g", "x^3 + x^2", "--f", "y^2"],
    "tensor_rational.json": ["tensor", "--g", "x^2 - 1/2*x", "--f", "2/3*y^3 + y"],
    "hopf_ideal_x3.json": ["hopf-ideal", "--g", "x^3"],
    "hopf_ideal_zeta3.json": ["hopf-ideal", "--g", "x^3 + q*x^2", "--cyclotomic", "3"],
    "nf_tensor.json": ["nf", "--g", "x^2 + x", "--f", "y^3 - 1/2*y", "--expr", "(x + y)^3*a*b"],
    "central_tensor.json": ["central", "--g", "x^2", "--f", "y^3", "--expr", "a^2*b^3"],
    "basis_n3.json": ["basis", "--n", "3", "--max-len", "4"],
    "growth_n4.json": ["growth", "--n", "4", "--max-len", "9"],
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_cli_json_matches_golden(name, tmp_path, capsys):
    # the JSON reports of `present`, `tensor`, `hopf-ideal`, `nf`, `central`,
    # `basis` and `growth`, byte for byte
    out = tmp_path / name
    assert run_command([*CLI_GOLDENS[name], "--json", str(out)]) == 0
    capsys.readouterr()
    golden = Path(__file__).parent / "golden" / name
    assert out.read_text(encoding="utf-8") == golden.read_text(encoding="utf-8")


GOLDEN_CLAIMS = Path(__file__).parent / "golden" / "verify_claims.json"


@pytest.mark.parametrize("seed", [1, 7, 21, 2024])
def test_verify_claims_match_golden(seed):
    # the claims of `diamond verify all --json`, byte for byte; a change that
    # alters any id, statement, verdict or witness must update the file.
    # With every claim passing they are the same at every seed (2024 is the
    # default; 21 is among the benchmark's seeds)
    text = json.dumps(run_claim_suites(seed=seed), indent=2, sort_keys=True) + "\n"
    assert text == GOLDEN_CLAIMS.read_text(encoding="utf-8")
