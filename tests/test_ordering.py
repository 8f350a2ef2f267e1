import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamond.freealg import Alphabet, NcPoly
from diamond.ordering import GrlexPlus, ProductGrlex, check_compatibility
from diamond.presentations import (
    DefiningPolynomial,
    build_system,
    build_tensor_presentation,
    defining_relation,
    tensor_alphabet,
)

AX = Alphabet(("a", "x"))
A, X = 0, 1
ORDER = GrlexPlus(AX, weight_letter=X, lex_top=A)


def above(u, v, order=ORDER) -> bool:
    """u > v in the order: the sort keys compare as tuples."""
    return order.sort_key(u) > order.sort_key(v)


def max_word(poly, order):
    """Largest word in the support; raises on the zero polynomial."""
    if poly.is_zero():
        raise ValueError("zero polynomial has no leading word")
    return max(poly.support(), key=order.sort_key)


def test_compare_examples():
    # lengths tie, the x-heavier word wins
    assert above((X, X), (A, X))
    # lengths and x-weights tie, lex with a on top
    assert above((A, X, A), (X, A, A))
    # a^n carries no x-weight, so it sits below every a^j x^(n-j)
    for n in range(2, 7):
        for j in range(1, n):
            assert above((A,) * j + (X,) * (n - j), (A,) * n)


def test_equal_only_on_equal_words():
    # distinct words have distinct keys, so the order is total
    words = [w for n in range(6) for w in product((A, X), repeat=n)]
    assert len({ORDER.sort_key(w) for w in words}) == len(words)
    assert above((A,), ())


words = st.lists(st.integers(0, 1), max_size=6).map(tuple)


@settings(max_examples=100, deadline=None)
@given(words, words, words, words)
def test_semigroup_property(a, b, c, d):
    if above(b, a):
        assert above(c + b + d, c + a + d)


def test_leading_word_of_relations():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 5)
        coeffs = [rng.randint(-5, 5) for _ in range(n - 1)] + [1]
        g = DefiningPolynomial.from_coefficients(coeffs)
        for j in range(1, n):
            sigma = defining_relation(g, j)
            assert max_word(sigma, ORDER) == (A,) * j + (X,) * (n - j)


def test_max_word_of_zero_raises():
    with pytest.raises(ValueError):
        max_word(NcPoly.zero(AX), ORDER)


def test_compatibility_good_and_bad():
    pres = build_system(DefiningPolynomial.from_coefficients((0, 0, 1)))
    shape = [(rule.lhs, rule.rhs.support()) for rule in pres.system.rules]
    assert check_compatibility(pres.system.order, shape) == []
    bad = NcPoly.monomial(AX, (X, A)) + NcPoly.monomial(AX, (A, X, X))
    assert check_compatibility(ORDER, [((X, X), ()), ((A, X), bad.support())]) == [
        (1, (A, X, X))
    ]


def test_tensor_order_facts():
    g = DefiningPolynomial.from_coefficients((0, 1))       # degree 2
    f = DefiningPolynomial.from_coefficients((0, 0, 1))     # degree 3
    pres = build_tensor_presentation(g, f)  # construction checks compatibility
    order = pres.system.order
    a, x, b, y = 0, 1, 2, 3
    # b^m outranks a^n; commutators orient first-factor letters leftmost
    assert above((b,) * 3, (a,) * 2, order)
    assert above((y, a), (a, y), order)
    assert above((y, x), (x, y), order)
    assert above((b, a), (a, b), order)
    assert above((b, x), (x, b), order)
    # y^m outranks every word of g and of the tail of f
    assert above((y,) * 3, (x,) * 2, order)
    assert above((y,) * 3, (y,), order)


def test_product_order_needs_weights():
    with pytest.raises(ValueError):
        ProductGrlex(Alphabet(("a", "x", "b", "y")))


def test_product_order_restricts_to_grlex():
    alphabet = tensor_alphabet(3, 2)
    order = ProductGrlex(alphabet)
    # within the (a, x) factor: length, then x-count, then lex with a on top
    assert above((1, 1), (0, 1), order)
    assert above((0, 1, 0), (1, 0, 0), order)
    # within the (b, y) factor: y plays the weight role, b the lex top
    assert above((3, 3), (2, 3), order)
    assert above((2, 3, 2), (3, 2, 2), order)
