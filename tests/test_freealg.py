import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamond import claims
from diamond.freealg import (
    MASK_BITS,
    PEELS,
    Alphabet,
    NcPoly,
    TensorPoly,
    _mask_stream,
    _rest_masks,
    _routed_match,
    bidegree_masks,
    bidegree_sum,
    bidegree_words,
    check_splitting_identity,
    render_word,
)
from diamond.scalars import Cyclotomic

AX = Alphabet(("a", "x"))
A, X = 0, 1


def mono(*letters):
    return NcPoly.monomial(AX, letters)


def simple(left, right, coeff=1):
    """The simple tensor coeff * left (x) right over AX."""
    return TensorPoly(AX, {(tuple(left), tuple(right)): coeff})


def words_of(poly):
    return set(poly.support())


def encode(word):
    """The mask of a word in (a, x): bit len - 1 - p is set when position p holds a."""
    return sum(1 << (len(word) - 1 - p) for p, c in enumerate(word) if c == A)


def decode(mask, length):
    """The word in (a, x) of a mask of ``length`` letters."""
    return tuple(A if mask >> (length - 1 - p) & 1 else X for p in range(length))


def rest_sum(alphabet, m, q, pair=(A, X)):
    """Q(m, q): the bidegree sum without its sorted word pair[0]^m pair[1]^q."""
    sorted_word = (pair[0],) * m + (pair[1],) * q
    terms = bidegree_sum(alphabet, m, q, pair).items()
    return NcPoly(alphabet, {w: c for w, c in terms if w != sorted_word})


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


def test_bidegree_sum_base_cases():
    assert bidegree_sum(AX, 0, 0) == NcPoly.one(AX)
    assert bidegree_sum(AX, -1, 2).is_zero()
    assert bidegree_sum(AX, 2, -1).is_zero()
    assert bidegree_sum(AX, 1, 1) == mono(A, X) + mono(X, A)


def test_bidegree_sum_two_two():
    expected = (
        mono(A, A, X, X)
        + mono(A, X, A, X)
        + mono(A, X, X, A)
        + mono(X, A, A, X)
        + mono(X, A, X, A)
        + mono(X, X, A, A)
    )
    assert bidegree_sum(AX, 2, 2) == expected


def test_bidegree_counts_are_binomials():
    for j in range(9):
        for i in range(9):
            assert len(bidegree_sum(AX, j, i)) == math.comb(i + j, j)


def test_bidegree_sum_matches_brute_force():
    # every word of {first, second}^(i+j) with j letters first, each with the
    # int coefficient 1, in both letter orders and in a three-letter alphabet
    abc = Alphabet(("a", "b", "c"))
    for alphabet, pair in ((AX, (A, X)), (AX, (X, A)), (abc, (2, 0))):
        for j in range(8):
            for i in range(8):
                expected = {w: 1 for w in product(pair, repeat=i + j) if w.count(pair[0]) == j}
                terms = dict(bidegree_sum(alphabet, j, i, pair).items())
                assert terms == expected
                assert {type(c) for c in terms.values()} == {int}


def test_bidegree_sum_rejects_bad_pairs():
    # a repeated letter used to collapse C(3, 2) words into a^3, and a letter
    # outside the alphabet built a sum that could not be rendered
    for pair in ((A, A), (A, 5), (-1, X), (2, X)):
        for j, i in ((2, 1), (1, 1), (0, 0), (-1, 2)):
            with pytest.raises(ValueError):
                bidegree_sum(AX, j, i, pair)


def test_bidegree_rest():
    # the rest-sum stream of the q_tail1 check: P(m, q) without a^m x^q
    assert list(_rest_masks(1, 0)) == []
    assert list(_rest_masks(0, 5)) == []
    assert list(_rest_masks(1, 1)) == [encode((X, A))]
    assert list(_rest_masks(1, 2)) == [encode((X, A, X)), encode((X, X, A))]


def test_product_examples():
    assert mono(X) * mono(A) == mono(X, A)
    p = mono(A, X) + mono(X, A)
    assert p * p == (
        mono(A, X, A, X) + mono(A, X, X, A) + mono(X, A, A, X) + mono(X, A, X, A)
    )
    assert p * NcPoly.one(AX) == p


def test_alphabet_mismatch_raises():
    other = Alphabet(("b", "y"))
    with pytest.raises(ValueError):
        mono(A) + NcPoly.monomial(other, (0,))
    with pytest.raises(ValueError):
        mono(A) * NcPoly.monomial(other, (0,))


def test_scalar_action_and_cancellation():
    p = mono(A, X) - mono(X, A)
    assert (p - p).is_zero()
    assert p.scale(0).is_zero()
    assert 2 * p == p + p
    assert (-p) + p == NcPoly.zero(AX)


def test_splitting_depth_one():
    # P(1,1) = P(1,0) x + P(0,1) a
    assert check_splitting_identity("tail1", 1, 1)
    # Q(1,2) = Q(1,1) x + P(0,2) a
    assert check_splitting_identity("q_tail1", 1, 2)
    assert rest_sum(AX, 1, 1) * mono(X) + bidegree_sum(AX, 0, 2) * mono(A) == rest_sum(AX, 1, 2)


#: letters each kind peels off every word, listed by hand to pin the table
PEEL_DEPTH = {
    "tail1": 1,
    "tail2": 2,
    "head2": 2,
    "head1_tail1": 2,
    "tail3": 3,
    "head3": 3,
    "head2_tail1": 3,
    "head1_tail2": 3,
}


def test_splitting_degenerate_corners():
    # below h + t letters the left side is nonzero and every right-side sum
    # has a negative index, so each identity fails exactly there
    assert set(PEEL_DEPTH) == set(PEELS)
    for kind, depth in PEEL_DEPTH.items():
        for r in range(7):
            for s in range(7):
                assert check_splitting_identity(kind, r, s) == (r + s >= depth)
    # the rest-sum recursion fails exactly at s = 0 < r: its right side is a^r
    for r in range(7):
        for s in range(7):
            assert check_splitting_identity("q_tail1", r, s) == (s > 0 or r == 0)


def test_unknown_identity_kind():
    with pytest.raises(ValueError):
        check_splitting_identity("sideways", 1, 1)
    for kind in ("tail2", "q_tail1"):
        with pytest.raises(ValueError):
            check_splitting_identity(kind, -1, 2)


def test_splitting_indices_fit_one_mask():
    # a word of r + s letters is one 8-byte mask: a^64 fits, and one letter
    # more is refused at once, before any enumeration
    assert MASK_BITS == 64
    assert check_splitting_identity("tail1", 64, 0)
    assert check_splitting_identity("q_tail1", 0, 64)
    for kind, r, s in (("tail1", 65, 0), ("head2", 1, 64), ("q_tail1", 40, 40)):
        with pytest.raises(ValueError, match="exceeds the 64 letters"):
            check_splitting_identity(kind, r, s)


def term_map_check(kind, r, s, alphabet, pair):
    """The splitting identity compared as two full term maps, the right side
    summed from the bidegree sums: the oracle of the routed word match."""
    first, second = pair
    if kind == "q_tail1":
        a, x = (NcPoly.monomial(alphabet, (c,)) for c in pair)
        rhs = rest_sum(alphabet, r, s - 1, pair) * x + bidegree_sum(
            alphabet, r - 1, s, pair
        ) * a
        return rest_sum(alphabet, r, s, pair) == rhs
    h, t = PEELS[kind]
    rhs = NcPoly(
        alphabet,
        (
            (u + w + v, c)
            for u in product(pair, repeat=h)
            for v in product(pair, repeat=t)
            for w, c in bidegree_sum(
                alphabet, r - (u + v).count(first), s - (u + v).count(second), pair
            ).items()
        ),
    )
    return bidegree_sum(alphabet, r, s, pair) == rhs


ABC = Alphabet(("a", "b", "c"))


@pytest.mark.parametrize("kind", [*PEELS, "q_tail1"])
@pytest.mark.parametrize(
    "alphabet, pair",
    [(AX, (A, X)), (AX, (X, A)), (ABC, (0, 2)), (ABC, (2, 1)), (ABC, (1, 0))],
    ids=["ax", "xa", "abc-ac", "abc-cb", "abc-ba"],
)
def test_routed_check_matches_term_map_oracle(kind, alphabet, pair):
    # the routed check in a, x against the oracle in each pair of letters:
    # an identity does not depend on the names of its two letters
    for r in range(7):
        for s in range(7):
            assert check_splitting_identity(kind, r, s) == term_map_check(
                kind, r, s, alphabet, pair
            ), (r, s)


def test_bidegree_sum_holds_the_enumerated_words():
    # one enumeration: the sum's words are the stream's, in its order, once;
    # the rest-sum stream drops only the sorted word
    for alphabet, pair in ((AX, (A, X)), (AX, (X, A)), (ABC, (2, 0))):
        for j in range(-1, 8):
            for i in range(-1, 8):
                words = list(bidegree_words(j, i, pair))
                assert len(set(words)) == len(words)
                assert list(bidegree_sum(alphabet, j, i, pair).support()) == words


def test_masks_decode_to_the_enumerated_words():
    # the second encoding of the one enumeration: the same words, in the
    # same order, strictly decreasing; the rest stream drops only the sorted
    # word a^j x^i
    for j in range(-1, 9):
        for i in range(-1, 9):
            masks = list(bidegree_masks(j, i))
            assert [decode(m, i + j) for m in masks] == list(bidegree_words(j, i))
            assert all(m > n for m, n in zip(masks, masks[1:]))
            sorted_word = (A,) * j + (X,) * i
            rest = [decode(m, i + j) for m in _rest_masks(j, i)]
            assert rest == [w for w in bidegree_words(j, i) if w != sorted_word]


def peel_parts(r, s, h, t):
    """The right-side parts of a peel identity on (a, x), as mask lists keyed
    by the int u << t | v of the masks of their head u and tail v, encoded
    from the tuple words."""
    return {
        encode(u) << t | encode(v): [
            encode(w) for w in bidegree_words(r - (u + v).count(A), s - (u + v).count(X))
        ]
        for u in product((A, X), repeat=h)
        for v in product((A, X), repeat=t)
    }


def routed(masks, length, h, t, parts):
    return _routed_match(iter(masks), length, h, t, {key: iter(p) for key, p in parts.items()})


def test_routed_match_negative_controls():
    h, t = PEELS["head1_tail2"]
    words = [encode(w) for w in bidegree_words(3, 3)]
    parts = peel_parts(3, 3, h, t)
    assert routed(words, 6, h, t, parts)
    key = encode((A,)) << t | encode((X, X))
    middles = parts[key]
    assert len(middles) == 3
    # a part that drops one middle, yields one twice, yields one extra, or
    # yields a wrong one in place of the last
    for broken in (
        middles[1:],
        middles[:1] + middles,
        middles + [middles[0]],
        middles + [0],
        middles[:-1] + [0],
    ):
        assert not routed(words, 6, h, t, {**parts, key: broken})
    # a left word that names no part, or is shorter than h + t
    assert not routed(words, 6, h, t, {k: p for k, p in parts.items() if k != key})
    assert not routed([encode((A, X))], 2, h, t, parts)
    assert not routed([0], 0, 0, 1, {1: [], 0: []})
    # the pairing is one to one, not an order: a word twice on both sides
    # is a coefficient 2 on both sides
    ax, a = encode((A, X)), encode((A,))
    assert routed([ax, ax], 2, 0, 1, {encode((X,)): [a, a], encode((A,)): []})


def traced_peak(check):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert check()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_splitting_check_builds_no_term_map():
    # P(8, 8) has C(16, 8) = 12,870 words of length 16; held as a term map
    # on both sides, the check peaked at about 6 MiB.  The memo is emptied
    # first, so the peak includes building the streams of P(8, 8), P(8, 7)
    # and P(7, 8)
    for kind in ("tail1", "q_tail1"):
        _mask_stream.cache_clear()
        assert traced_peak(lambda: check_splitting_identity(kind, 8, 8)) < 256 * 1024, kind


def test_splitting_suite_enumerates_each_bidegree_once():
    # the cases of claims.splitting_suite; each reads its left side and one
    # stream per part, and the rest-sums read the stream of their bidegree
    cases = [("tail1", r, s) for r in range(9) for s in range(9) if (r, s) != (0, 0)]
    cases += [("q_tail1", r, s) for r in range(9) for s in range(1, 9)]
    for depth in (2, 3):
        kinds = [kind for kind, d in PEEL_DEPTH.items() if d == depth]
        cases += [(kind, r, s) for kind in kinds for r in range(depth, 7) for s in range(depth, 7)]
    bidegrees, reads = set(), 0
    for kind, r, s in cases:
        depth = 1 if kind == "q_tail1" else sum(PEELS[kind])
        bidegrees.add((r, s))
        bidegrees.update((r - k, s - depth + k) for k in range(depth + 1))
        reads += 3 if kind == "q_tail1" else 1 + 2 ** depth
    _mask_stream.cache_clear()
    assert all(claim["verdict"] == claims.PASS for claim in claims.splitting_suite(1))
    info = _mask_stream.cache_info()
    assert len(bidegrees) <= info.maxsize
    assert info.misses == len(bidegrees)
    assert info.hits + info.misses == reads


def test_tensor_examples():
    aa = simple((A,), (A,))
    assert aa * aa == simple((A, A), (A, A))
    t = simple((), (X,)) + simple((X,), (A,))
    square = (
        simple((), (X, X))
        + simple((X,), (X, A))
        + simple((X,), (A, X))
        + simple((X, X), (A, A))
    )
    assert t * t == square
    uv = simple((A, X), (X,))
    assert uv * TensorPoly.one(AX) == uv
    assert uv ** 0 == TensorPoly.one(AX) and uv ** 2 == uv * uv
    with pytest.raises(ValueError):
        uv ** -1


def test_tensor_poly_repr_and_degree():
    t = simple((A, X), (X, A)) + simple((), (X,), Fraction(-1, 2))
    assert repr(t) == "TensorPoly({((0, 1), (1, 0)): 1, ((), (1,)): Fraction(-1, 2)})"
    with pytest.raises(TypeError):
        t.degree()


def test_tensor_poly_refuses_word_rendering():
    # the inherited render sorts keys as words; a pair of words is refused
    # with a plain message, for the zero tensor too
    for t in (simple((A,), (X,)), TensorPoly.zero(AX)):
        with pytest.raises(TypeError, match="tensor has no rendering"):
            t.render()


def test_term_map_shared_by_words_and_pairs():
    # pairs are summed per key and zero sums dropped, in both classes
    pairs = [((A,), Fraction(1)), ((X,), Fraction(2)), ((A,), Fraction(-1)), ((), 0)]
    assert NcPoly(AX, pairs) == NcPoly(AX, iter(pairs)) == 2 * mono(X)
    tensor = TensorPoly(AX, [(((A,), ()), 3), (((), (X,)), 1), (((A,), ()), -3)])
    assert dict(tensor.items()) == {((), (X,)): 1}
    assert type(-tensor) is type(tensor + tensor) is type(tensor.scale(2)) is TensorPoly
    word_poly = NcPoly.one(AX)
    assert word_poly != TensorPoly.one(AX)
    for op in (lambda p, t: p + t, lambda p, t: t + p, lambda p, t: p * t, lambda p, t: t * p):
        with pytest.raises(TypeError):
            op(word_poly, tensor)
    with pytest.raises(AttributeError):
        tensor.alphabet = AX


# The loops that NcPoly.__add__, NcPoly.__mul__ and TensorPoly.__mul__ ran
# before the constructor summed every term: the reference for the values and
# for the key order, which the curve rule's right side passes on to the
# rule shape.


def reference_sum(p, q):
    terms = dict(p.items())
    for k, c in q.items():
        s = terms.get(k, 0) + c
        if s:
            terms[k] = s
        elif k in terms:
            del terms[k]
    return terms


def reference_product(p, q):
    terms = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            w = w1 + w2
            s = terms.get(w, 0) + c1 * c2
            if s:
                terms[w] = s
            elif w in terms:
                del terms[w]
    return terms


def reference_tensor_product(p, q):
    terms = {}
    for (l1, r1), c1 in p.items():
        for (l2, r2), c2 in q.items():
            key = (l1 + l2, r1 + r2)
            s = terms.get(key, 0) + c1 * c2
            if s:
                terms[key] = s
            elif key in terms:
                del terms[key]
    return terms


def typed_items(terms):
    return [(key, type(c), c) for key, c in terms.items()]


# few words, few small coefficients: products repeat keys, and sums cancel
POOL = [(), (A,), (X,), (A, X), (X, A)]
DOMAINS = [
    st.integers(-2, 2),
    st.fractions(min_value=-1, max_value=1, max_denominator=2),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)).map(lambda t: Cyclotomic(8, t)),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sums_and_products_match_the_reference_loops(data):
    domain = data.draw(st.sampled_from(DOMAINS))
    word_terms = st.lists(st.tuples(st.sampled_from(POOL), domain), max_size=6)
    pair_terms = st.lists(st.tuples(st.tuples(*[st.sampled_from(POOL)] * 2), domain), max_size=5)
    p, q = NcPoly(AX, data.draw(word_terms)), NcPoly(AX, data.draw(word_terms))
    s, t = TensorPoly(AX, data.draw(pair_terms)), TensorPoly(AX, data.draw(pair_terms))
    for result, reference in (
        (p + q, reference_sum(p, q)),
        (p - q, reference_sum(p, -q)),
        (p * q, reference_product(p, q)),
        (s + t, reference_sum(s, t)),
        (s - t, reference_sum(s, -t)),
        (s * t, reference_tensor_product(s, t)),
    ):
        assert result == type(result)(AX, reference)
        assert typed_items(result) == typed_items(reference)


def test_render():
    assert render_word(AX, ()) == "1"
    assert render_word(AX, (X, X, X)) == "x^3"
    assert render_word(AX, (A, X, X, A)) == "a*x^2*a"
    assert (mono(A, X) + mono(X, A)).render() == "a*x + x*a"
    assert NcPoly.zero(AX).render() == "0"
    assert (mono(A).scale(Fraction(-1, 2))).render() == "-1/2*a"


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
words = st.lists(st.integers(0, 1), max_size=5).map(tuple)
polys = st.dictionaries(words, coeffs, max_size=4).map(lambda d: NcPoly(AX, d))


@settings(max_examples=50, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p + q == q + p
