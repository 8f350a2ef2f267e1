import random
from fractions import Fraction
from functools import cache
from itertools import islice

import pytest

from diamond import coalgebra
from diamond.analysis import random_ncpoly
from diamond.coalgebra import (
    COPRODUCT_MAX_LETTERS,
    check_coproduct_bidegree,
    coassociativity_holds,
    coproduct,
    counit,
    counit_laws_hold,
    hopf_ideal_check,
    tensor_normal_form,
)
from diamond.freealg import NcPoly, TensorPoly, bidegree_sum
from diamond.ordering import GrlexPlus
from diamond.presentations import (
    AX,
    DefiningPolynomial,
    Presentation,
    build_system,
    build_tensor_presentation,
    defining_relation,
    tensor_alphabet,
)
from diamond.rewrite import ReductionSystem, Rule, normal_form
from diamond.scalars import CyclotomicField

A, X = 0, 1


def mono(*letters):
    return NcPoly.monomial(AX, letters)


def simple(left, right, coeff=1, alphabet=AX):
    """The simple tensor coeff * left (x) right."""
    return TensorPoly(alphabet, {(tuple(left), tuple(right)): coeff})


def tensor(left, right):
    """left (x) right for two polynomials over AX."""
    return TensorPoly(
        AX, [((wl, wr), cl * cr) for wl, cl in left.items() for wr, cr in right.items()]
    )


def test_generator_coproducts():
    assert coproduct(mono(A)) == simple((A,), (A,))
    assert coproduct(mono(X)) == simple((), (X,)) + simple((X,), (A,))


def letter_product_coproduct(poly):
    """The coproduct as the algebra map it extends: one ``TensorPoly`` per
    letter, multiplied along each word, scaled and summed."""
    alphabet = poly.alphabet

    def letter(c):
        if c % 2 == 0:
            return simple((c,), (c,), alphabet=alphabet)
        return simple((), (c,), alphabet=alphabet) + simple((c,), (c - 1,), alphabet=alphabet)

    total = TensorPoly.zero(alphabet)
    for word, coeff in poly.items():
        value = TensorPoly.one(alphabet)
        for c in word:
            value = value * letter(c)
        total = total + value.scale(coeff)
    return total


def test_closed_form_coproduct_matches_letter_products():
    # over (a, x), over (a, x, b, y) with b even and y odd, and with
    # Q(zeta_8) coefficients
    rng = random.Random(41)
    zeta = CyclotomicField(8).q
    cases = [(AX, 1), (tensor_alphabet(2, 3), 1), (AX, zeta), (tensor_alphabet(3, 2), zeta)]
    for alphabet, unit in cases:
        for _ in range(12):
            p = random_ncpoly(rng, alphabet, 7, 5).scale(unit)
            assert coproduct(p) == letter_product_coproduct(p)


def test_coproduct_of_a_word_has_two_to_the_odd_letters_terms():
    alphabet = tensor_alphabet(2, 2)
    for word in ((), (0, 2), (1,), (1, 1, 0), (3, 1, 2, 3), (1, 0, 3, 3, 1, 2, 1)):
        p = NcPoly.monomial(alphabet, word, Fraction(-2, 3))
        delta = coproduct(p)
        assert len(delta) == 2 ** sum(c % 2 for c in word)
        assert {c for _, c in delta.items()} == {Fraction(-2, 3)}
        assert delta == letter_product_coproduct(p)


def test_coproduct_of_x_squared():
    expected = (
        simple((), (X, X))
        + simple((X,), (A, X))
        + simple((X,), (X, A))
        + simple((X, X), (A, A))
    )
    assert coproduct(mono(X, X)) == expected


def test_coproduct_of_bidegree_one_one():
    lhs = coproduct(bidegree_sum(AX, 1, 1))
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


def test_coproduct_check_is_bounded(monkeypatch):
    # words of j + t = 12 letters are checked; one letter more is refused at
    # once, before the left side is enumerated
    assert COPRODUCT_MAX_LETTERS == 12
    assert check_coproduct_bidegree(0, 12) and check_coproduct_bidegree(12, 0)

    def enumerated(*args):
        raise AssertionError("bidegree sum built past the bound")

    monkeypatch.setattr(coalgebra, "bidegree_sum", enumerated)
    for j, t in ((0, 13), (5, 9), (6, 10), (40, 40)):
        with pytest.raises(ValueError, match="exceeds the 12 letters"):
            check_coproduct_bidegree(j, t)


def test_counit():
    for coeffs in ((0, 1), (1, 1), (0, 0, 1), (2, 3, 1)):
        g = DefiningPolynomial.from_coefficients(coeffs)
        for j in range(1, g.degree):
            assert counit(defining_relation(g, j)) == 0
    assert counit(mono(A, A, A, A, A)) == 1
    assert counit(mono(X).scale(Fraction(3)) + mono(A).scale(Fraction(2))) == 2


def test_tensor_normal_form():
    g = DefiningPolynomial.from_coefficients((0, 1))
    pres = build_system(g)
    delta_g = coproduct(mono(X, X))
    reduced = tensor_normal_form(delta_g, pres.system)
    assert reduced == simple((), (X, X)) + simple((X, X), (A, A))

    sigma = defining_relation(g, 1)
    assert tensor_normal_form(tensor(sigma, NcPoly.one(AX)), pres.system).is_zero()


def per_term_normal_form(tensor, system):
    """The reduction term by term: c u (x) v becomes c nf(u) (x) nf(v), and
    ``TensorPoly`` sums the products."""
    nf = cache(lambda word: normal_form(NcPoly.monomial(system.alphabet, word), system))
    return TensorPoly(tensor.alphabet, [
        ((wl, wr), coeff * (cl * cr))
        for (left, right), coeff in tensor.items()
        for wl, cl in nf(left).items()
        for wr, cr in nf(right).items()
    ])


def test_tensor_normal_form_matches_the_per_term_reduction():
    # x^10 has the largest coproducts ``hopf-ideal`` accepts: every
    # Delta(sigma_j) reduces to zero, while the coproduct of a single word
    # of sigma_j, scaled by a Fraction, does not
    for g, words in ((DefiningPolynomial.from_coefficients((0,) * 9 + (1,)), 3),
                     (DefiningPolynomial.from_coefficients((1, Fraction(-1, 2), 0, 3)), 9)):
        pres = build_system(g)
        for j in range(1, g.degree):
            sigma = defining_relation(g.monic(), j)
            tensors = [coproduct(sigma)] + [
                coproduct(mono(*word).scale(Fraction(-2, 3)))
                for word in islice(sigma.support(), words)
            ]
            reduced = [tensor_normal_form(tensor, pres.system) for tensor in tensors]
            for tensor, nf in zip(tensors, reduced):
                assert list(nf.items()) == list(per_term_normal_form(tensor, pres.system).items())
            assert reduced[0].is_zero() and not reduced[1].is_zero()


def test_skew_primitivity_of_defining_polynomial():
    rng = random.Random(23)
    for _ in range(6):
        n = rng.randint(2, 5)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n - 1)] + [Fraction(1)]
        g = DefiningPolynomial.from_coefficients(coeffs)
        pres = build_system(g)
        gx = g.as_ncpoly(AX, X)
        delta = coproduct(gx)
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
            reduced = tensor_normal_form(coproduct(summed), pres.system)
            expected = simple((A,) * n, (A,) * n, g.coefficient(j))
            assert reduced == expected


def test_hopf_ideal_check():
    for coeffs in ((0, 0, 1), (1, 1), (1, 0, 2, 0, 1)):
        report = hopf_ideal_check(build_system(DefiningPolynomial.from_coefficients(coeffs)))
        assert report.confluent and report.ok
        doc = report.to_json_dict()
        assert doc["certified"] and all(
            e["counit_zero"] and e["coproduct_in_ideal"] for e in doc["relations"]
        )


@pytest.mark.parametrize(
    "g, f",
    [
        ((0, 1), (0, 1)),  # x^2 | y^2
        ((0, 0, 1), (0, 1)),  # x^3 | y^2
        ((1, 1), (2, 1)),  # x^2 + x | y^2 + 2y
        ((0, 1, 1), (0, 1)),  # x^3 + x^2 | y^2
        ((0, 0, 0, 1), (0, 0, 1)),  # x^4 | y^3
    ],
)
def test_hopf_ideal_check_on_the_tensor_presentation(g, f):
    # the letter pairs (a, x), (b, y) give A(g, f) its coalgebra, so the one
    # check covers the cross commutators, both families and the group and
    # curve rules
    pres = build_tensor_presentation(
        DefiningPolynomial.from_coefficients(g), DefiningPolynomial.from_coefficients(f)
    )
    report = hopf_ideal_check(pres)
    assert report.confluent and report.ok
    assert len(report.entries) == len(pres.system.rules)


def test_hopf_ideal_check_refuses_a_non_coideal():
    # Delta(x^2) = 1 (x) x^2 + x (x) (x*a + a*x) + x^2 (x) a^2 leaves the
    # middle term outside I (x) F + F (x) I for I = (x^2); eps(x^2) = 0
    order = GrlexPlus(AX, weight_letter=1, lex_top=0)
    pres = Presentation(ReductionSystem(AX, order, [Rule((X, X), NcPoly.zero(AX), "r")]))
    report = hopf_ideal_check(pres)
    assert report.confluent and not report.ok
    assert report.entries == [("r", True, False)]


def per_relation_verdicts(pres):
    """The verdicts with every relation's legs reduced afresh."""
    return [
        (label, not counit(sigma), tensor_normal_form(coproduct(sigma), pres.system).is_zero())
        for label, sigma in pres.relations
    ]


def test_hopf_ideal_check_reduces_each_leg_word_once(monkeypatch):
    # the relations of a presentation share leg words; each is reduced once
    # per check, with every verdict as when each relation reduces its own
    zeta = CyclotomicField(8).q
    order = GrlexPlus(AX, weight_letter=1, lex_top=0)
    quartic = build_system(DefiningPolynomial((Fraction(1, 2), Fraction(-2, 3), 0, 1))).system
    first, *rest = quartic.rules
    bent = Rule(first.lhs, first.rhs + mono(X).scale(Fraction(1, 3)), first.label)
    presentations = [
        *(build_system(DefiningPolynomial.from_coefficients(c))
          for c in ((0, 1), (1, 1), (0, 0, 1), (Fraction(1, 2), 2, 1), (1, 0, 2, 0, 1))),
        build_system(DefiningPolynomial((zeta, 0, 1))),
        build_tensor_presentation(DefiningPolynomial((1, 1)), DefiningPolynomial((2, 1))),
        Presentation(ReductionSystem(AX, order, [Rule((X, X), NcPoly.zero(AX), "r")])),
        # not confluent: 1/3 x added to the right side of sigma_1
        Presentation(ReductionSystem(AX, quartic.order, [bent, *rest], exponents=(0, 1))),
    ]
    verdicts = set()
    for pres in presentations:
        reduced = []
        monkeypatch.setattr(coalgebra, "normal_form", lambda p, s: reduced.append(p) or normal_form(p, s))
        report = hopf_ideal_check(pres)
        monkeypatch.undo()
        assert report.entries == per_relation_verdicts(pres)
        legs = {
            word
            for _, sigma in pres.relations
            for pair, _ in coproduct(sigma).items()
            for word in pair
        }
        assert sorted(word for p in reduced for word, _ in p.items()) == sorted(legs)
        verdicts.update((report.confluent, cop) for _, _, cop in report.entries)
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


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
        assert coassociativity_holds(p)
        assert counit_laws_hold(p)


def test_four_generator_context():
    # the letters of tensor_alphabet pair as (a, x), (b, y): b grouplike, y
    # skew-primitive against b
    alphabet = tensor_alphabet(2, 3)
    a, _, b, y = range(4)
    delta_y = coproduct(NcPoly.generator(alphabet, y))
    assert delta_y == simple((), (y,), alphabet=alphabet) + simple((y,), (b,), alphabet=alphabet)
    assert coproduct(NcPoly.generator(alphabet, b)) == simple((b,), (b,), alphabet=alphabet)
    assert counit(NcPoly.monomial(alphabet, (b, y, a))) == 0
    assert counit(NcPoly.monomial(alphabet, (b, a, b))) == 1
    p = NcPoly.monomial(alphabet, (y, a, y))
    assert coassociativity_holds(p)
    assert counit_laws_hold(p)
    rng = random.Random(37)
    for _ in range(6):
        terms = {
            tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4))): Fraction(
                rng.randint(-4, 4), rng.randint(1, 4)
            )
            for _ in range(3)
        }
        p = NcPoly(alphabet, terms)
        assert coassociativity_holds(p)
        assert counit_laws_hold(p)
