import random
from fractions import Fraction

import pytest

from diamond.coalgebra import (
    AX_CONTEXT,
    CoalgebraContext,
    check_coproduct_bidegree,
    coassociativity_holds,
    coproduct,
    counit,
    counit_laws_hold,
    hopf_ideal_check,
    tensor_normal_form,
)
from diamond.freealg import Alphabet, NcPoly, TensorPoly, bidegree_sum
from diamond.presentations import AX, DefiningPolynomial, build_system, defining_relation

A, X = 0, 1


def mono(*letters):
    return NcPoly.monomial(AX, letters)


def simple(left, right):
    return TensorPoly.simple(AX, left, right)


def tensor(left, right):
    """left (x) right for two polynomials over AX."""
    return TensorPoly(
        AX, [((wl, wr), cl * cr) for wl, cl in left.items() for wr, cr in right.items()]
    )


def test_generator_coproducts():
    assert coproduct(mono(A), AX_CONTEXT) == simple((A,), (A,))
    assert coproduct(mono(X), AX_CONTEXT) == simple((), (X,)) + simple((X,), (A,))


def test_coproduct_of_x_squared():
    expected = (
        simple((), (X, X))
        + simple((X,), (A, X))
        + simple((X,), (X, A))
        + simple((X, X), (A, A))
    )
    assert coproduct(mono(X, X), AX_CONTEXT) == expected


def test_coproduct_of_bidegree_one_one():
    lhs = coproduct(bidegree_sum(AX, 1, 1), AX_CONTEXT)
    rhs = tensor(mono(A), bidegree_sum(AX, 1, 1)) + tensor(bidegree_sum(AX, 1, 1), mono(A, A))
    assert lhs == rhs


def test_closed_forms():
    assert check_coproduct_bidegree(0, 0)
    for ell in range(7):
        assert check_coproduct_bidegree(0, ell)
    assert check_coproduct_bidegree(1, 1)
    for j in range(6):
        for t in range(6 - j):
            assert check_coproduct_bidegree(j, t)


def test_counit():
    for coeffs in ((0, 1), (1, 1), (0, 0, 1), (2, 3, 1)):
        g = DefiningPolynomial.from_coefficients(coeffs)
        for j in range(1, g.degree):
            assert counit(defining_relation(g, j), AX_CONTEXT) == 0
    assert counit(mono(A, A, A, A, A), AX_CONTEXT) == 1
    assert counit(mono(X).scale(Fraction(3)) + mono(A).scale(Fraction(2)), AX_CONTEXT) == 2


def test_skew_companion_must_be_grouplike():
    with pytest.raises(ValueError):
        CoalgebraContext(AX, (("skew", 1), ("skew", 0)))


def test_tensor_normal_form():
    g = DefiningPolynomial.from_coefficients((0, 1))
    pres = build_system(g)
    delta_g = coproduct(mono(X, X), AX_CONTEXT)
    reduced = tensor_normal_form(delta_g, pres.system)
    assert reduced == simple((), (X, X)) + simple((X, X), (A, A))

    sigma = defining_relation(g, 1)
    assert tensor_normal_form(tensor(sigma, NcPoly.one(AX)), pres.system).is_zero()


def test_skew_primitivity_of_defining_polynomial():
    rng = random.Random(23)
    for _ in range(6):
        n = rng.randint(2, 5)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n - 1)] + [Fraction(1)]
        g = DefiningPolynomial.from_coefficients(coeffs)
        pres = build_system(g)
        gx = g.as_ncpoly(AX, X)
        delta = coproduct(gx, AX_CONTEXT)
        expected = tensor(NcPoly.one(AX), gx) + tensor(gx, mono(*((A,) * n)))
        assert tensor_normal_form(delta - expected, pres.system).is_zero()


def test_grouped_relation_coproduct():
    # Delta(sum r_l P(j, l-j)) reduces to r_j a^n (x) a^n
    rng = random.Random(29)
    for _ in range(5):
        n = rng.randint(2, 5)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n - 1)] + [Fraction(1)]
        g = DefiningPolynomial.from_coefficients(coeffs)
        pres = build_system(g)
        for j in range(1, n):
            summed = NcPoly.zero(AX)
            for i in range(j, n + 1):
                c = g.coefficient(i)
                if c:
                    summed = summed + bidegree_sum(AX, j, i - j).scale(c)
            reduced = tensor_normal_form(coproduct(summed, AX_CONTEXT), pres.system)
            expected = TensorPoly.simple(AX, (A,) * n, (A,) * n, g.coefficient(j))
            assert reduced == expected


def test_hopf_ideal_check():
    for coeffs in ((0, 0, 1), (1, 1), (1, 0, 2, 0, 1)):
        report = hopf_ideal_check(DefiningPolynomial.from_coefficients(coeffs))
        assert report.confluent and report.ok
        doc = report.to_json_dict()
        assert doc["certified"] and all(
            e["counit_zero"] and e["coproduct_in_ideal"] for e in doc["relations"]
        )


def test_coalgebra_laws_random():
    rng = random.Random(31)
    for _ in range(8):
        terms = {
            tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6))): Fraction(
                rng.randint(-4, 4), rng.randint(1, 4)
            )
            for _ in range(4)
        }
        p = NcPoly(AX, terms)
        assert coassociativity_holds(p, AX_CONTEXT)
        assert counit_laws_hold(p, AX_CONTEXT)


def test_four_generator_context():
    alphabet = Alphabet(("a", "x", "b", "y"))
    ctx = CoalgebraContext.standard(alphabet, [("x", "a"), ("y", "b")])
    y = alphabet.index("y")
    b = alphabet.index("b")
    delta_y = coproduct(NcPoly.generator(alphabet, y), ctx)
    assert delta_y == TensorPoly.simple(alphabet, (), (y,)) + TensorPoly.simple(
        alphabet, (y,), (b,)
    )
    p = NcPoly.monomial(alphabet, (y, 0, y))
    assert coassociativity_holds(p, ctx)
    assert counit_laws_hold(p, ctx)
