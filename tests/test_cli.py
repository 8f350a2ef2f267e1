import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamond.cli import MAX_GROWTH_LEN, ExprError, parse_defining, parse_expr, run_command
from diamond.freealg import Alphabet, NcPoly, bidegree_sum
from diamond.presentations import AX
from diamond.scalars import CyclotomicField

A, X = 0, 1


def mono(*letters):
    return NcPoly.monomial(AX, letters)


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
    assert run_command(["basis", "--n", "3", "--max-len", "-1"]) == 2


def test_cmd_growth(capsys):
    assert run_command(["growth", "--n", "2", "--max-len", "12"]) == 0
    out = capsys.readouterr().out
    assert "polynomial, exponent 2" in out


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
    argv = ["confluence", "--g", "x^4", "--budget", "2", "--json", str(out)]
    assert run_command(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: exceeded 2 elementary reductions")
    assert json.loads(out.read_text())["error"] == "budget_exceeded"
    argv = ["nf", "--g", "x^2", "--expr", "a*x*a*x", "--budget", "1"]
    assert run_command(argv) == 3
    assert capsys.readouterr().err.count("\n") == 1


def test_cmd_central(capsys):
    assert run_command(["central", "--g", "x^3", "--expr", "a^3"]) == 0
    assert run_command(["central", "--g", "x^2", "--expr", "a"]) == 1


def test_cmd_hopf_ideal(capsys):
    assert run_command(["hopf-ideal", "--g", "x^3"]) == 0


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
    assert run_command(["nf", "--g", "x^2", "--expr", "a*x", "--order", "grlex+"]) == 0
    capsys.readouterr()
    assert run_command(["nf", "--g", "x^2", "--expr", "a*x", "--order", "product"]) == 2
    capsys.readouterr()


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
