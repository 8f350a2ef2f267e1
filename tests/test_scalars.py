import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamond.cli import constant_of, parse_expr
from diamond.freealg import Alphabet, NcPoly
from diamond.scalars import (
    Cyclotomic,
    CyclotomicField,
    common_denominator,
    cyclotomic_polynomial,
    divide_content,
    entries,
    exponent,
    euler_phi,
    rescale,
    scalar_str,
    scaled_integer,
    unscale,
)


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    # exact division of q^8 - 1 by Phi_1 Phi_2 Phi_4
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


# phi(1), ..., phi(30), listed by hand
TOTIENTS = (
    1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4, 12, 6, 8,
    8, 16, 6, 18, 8, 12, 10, 22, 8, 20, 12, 18, 12, 28, 8,
)


def test_cyclotomic_degree_is_totient():
    # euler_phi is the degree of the cyclotomic polynomial
    assert [euler_phi(n) for n in range(1, 31)] == list(TOTIENTS)
    for n in (0, -3):
        with pytest.raises(ValueError):
            euler_phi(n)


def test_rational_arithmetic():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_cube_root_relations():
    field = CyclotomicField(3)
    q = field.q
    assert q * q == Cyclotomic(3, [-1, -1])  # q^2 = -q - 1
    assert 1 + q + q * q == 0


def test_primitive_root_orders():
    # phi(1) = phi(2) = 1: q reduces to the rational root 1 resp. -1
    assert CyclotomicField(1).q == 1 and CyclotomicField(2).q == -1
    for n in range(1, 13):
        q = CyclotomicField(n).q
        assert q ** n == 1
        for d in range(1, n):
            if n % d == 0:
                assert q ** d != 1


def test_inverse_and_division():
    field = CyclotomicField(5)
    z = 2 + 3 * field.q - field.q ** 3
    assert z * z.inverse() == 1
    assert (field.one / z) * z == 1
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


def test_mixed_coercion():
    field = CyclotomicField(4)
    q = field.q
    assert q + Fraction(1, 2) == Fraction(1, 2) + q
    assert 2 * q - q == q
    assert q ** 2 == -1


def test_order_mixing_rejected():
    with pytest.raises(ValueError):
        CyclotomicField(3).q + CyclotomicField(4).q


def parse_scalar(text: str):
    """Parse the standalone scalar text forms with the expression grammar:
    ``p/q`` or ``p`` for rationals, ``<poly in q> (mod Phi_N)`` for
    cyclotomic literals."""
    field = None
    if "(mod" in text:
        text, _, tail = text.partition("(mod")
        tail = tail.strip(" )")
        if not tail.startswith("Phi_"):
            raise ValueError(f"malformed cyclotomic annotation in {text!r}")
        field = CyclotomicField(int(tail[4:]))
    return constant_of(parse_expr(text, Alphabet(("x",)), field))


def test_text_forms():
    assert parse_scalar("5/6") == Fraction(5, 6)
    assert parse_scalar("-3") == Fraction(-3)
    z = parse_scalar("q^2+q+1 (mod Phi_3)")
    assert z == 0
    w = parse_scalar("q^2 - 1/2 (mod Phi_8)")
    field = CyclotomicField(8)
    assert w == field.q ** 2 - Fraction(1, 2)
    assert str(w) == "q^2-1/2 (mod Phi_8)"
    assert scalar_str(Fraction(-7, 2)) == "-7/2"


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@st.composite
def cyclotomics(draw, order):
    phi = euler_phi(order)
    coeffs = draw(st.lists(rationals, min_size=0, max_size=phi))
    return Cyclotomic(order, coeffs)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(cyclotomics(n), cyclotomics(n), cyclotomics(n))))
def test_field_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert a * a.inverse() == 1


@settings(max_examples=40, deadline=None)
@given(rationals, rationals, rationals)
def test_rational_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    if a:
        assert a * (1 / a) == 1


def test_rational_cyclotomic_hashes_like_the_rational():
    AX = Alphabet(("a", "x"))
    assert len({NcPoly(AX, {(0,): 1}), NcPoly(AX, {(0,): Cyclotomic(8, [1])})}) == 1
    assert hash(Cyclotomic(8, [Fraction(1, 2)])) == hash(Fraction(1, 2))
    assert hash(Cyclotomic(8, [3])) == hash(3)
    assert Cyclotomic(8, [0, 1]) in {Cyclotomic(8, [0, 1])}


def test_int_and_fraction_residues_are_one_key():
    # an element keeps int residues as int, but is one value and one key
    # whatever the types of its entries
    ints = Cyclotomic(8, [1, 0, -2, 3])
    fracs = Cyclotomic(8, [Fraction(1), Fraction(0), Fraction(-2), Fraction(3)])
    assert [type(c) for c in ints.coeffs] == [int] * 4
    assert ints == fracs and hash(ints) == hash(fracs)
    assert {fracs: "found"}[ints] == "found"
    assert len({ints, fracs}) == 1
    three = Cyclotomic(8, [3])
    assert three.coeffs == (3, 0, 0, 0) and three == 3 == Cyclotomic(8, [Fraction(3)])
    assert hash(three) == hash(3) == hash(Cyclotomic(8, [Fraction(3)]))
    assert {3: "int"}[three] == "int"
    assert str(ints) == str(fracs) and scalar_str(three) == "3"


@pytest.mark.parametrize("order", [3, 5, 8, 12, 16])
def test_operators_agree_with_the_constructor(order):
    # the operators build reduced residues directly; the constructor reduces
    # the full product mod Phi_N itself
    rng = random.Random(order)
    phi = euler_phi(order)
    for _ in range(40):
        a = [rng.randint(-9, 9) for _ in range(phi)]
        b = [rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 4))) for _ in range(phi)]
        full = [0] * (2 * phi - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                full[i + j] += x * y
        x, y = Cyclotomic(order, a), Cyclotomic(order, b)
        assert x * y == Cyclotomic(order, full)
        assert x + y == Cyclotomic(order, [s + t for s, t in zip(a, b)])
        assert x - y == Cyclotomic(order, [s - t for s, t in zip(a, b)])
        assert -y == Cyclotomic(order, [-t for t in b])
        assert {type(c) for c in (x * x - x + 2 * x).coeffs} == {int}
        assert len((x * y).coeffs) == phi


def test_rescaling_helpers():
    assert common_denominator([1, Fraction(1, 6), Fraction(3, 4)]) == 12
    assert common_denominator([]) == 1
    assert common_denominator([Fraction(1, 2), Cyclotomic(8, [1])]) is None
    assert scaled_integer(Fraction(1, 6), 6, 1) == 1
    assert scaled_integer(Fraction(1, 6), 6, 0) is None
    assert scaled_integer(12, 2, -2) == 3
    assert scaled_integer(6, 4, -1) is None
    # e counts letter 1; 1/2 * (1, 1) -> 1/2 / 6^2, 3 * (0,) -> 3
    terms = {(1, 1): Fraction(1, 2), (0,): 3}
    images, m = rescale(terms.items(), 6, ((1, 1),))
    assert (images, m) == ({(1, 1): 1, (0,): 216}, 72)
    assert unscale(images, 6, ((1, 1),), m) == terms
    assert unscale({(1,): 2}, 3, ((1, 1),), 1) == {(1,): 6}
    # weighted: e(w) = #1 + 2 #2, so e((1, 2, 2)) = 5
    assert exponent((1, 2, 2, 0), ((1, 1), (2, 2))) == 5
    images, m = rescale({(1, 2, 2): Fraction(1, 2), (2,): 1}.items(), 2, ((1, 1), (2, 2)))
    assert (images, m) == ({(1, 2, 2): 1, (2,): 16}, 64)
    assert unscale(images, 2, ((1, 1), (2, 2)), m) == {(1, 2, 2): Fraction(1, 2), (2,): 1}
    # a residue moves into Z[q] entry by entry, with the multiplier m
    q = Cyclotomic(8, [0, 1])
    images, m = rescale({(1,): q, (0,): Fraction(1, 3)}.items(), 2, ((1, 1),))
    assert (images, m) == ({(1,): 3 * q, (0,): 2}, 6)
    assert [type(k) for k in images[(1,)].coeffs] == [int] * 4
    assert unscale(images, 2, ((1, 1),), m) == {(1,): q, (0,): Fraction(1, 3)}
    assert scaled_integer(Cyclotomic(8, [Fraction(1, 2), 0, 3]), 2, 1) == Cyclotomic(8, [1, 0, 6])
    assert scaled_integer(Cyclotomic(8, [Fraction(1, 4), 1]), 2, 1) is None
    assert entries(q) == (0, 1, 0, 0) and entries(Fraction(1, 2)) == (Fraction(1, 2),)
    # the content common to m and every entry is divided out of both
    assert divide_content({(0,): 6 * q + 4, (1,): 2}, 4) == ({(0,): 3 * q + 2, (1,): 1}, 2)
    assert divide_content({(0,): 3}, 1) == ({(0,): 3}, 1)
