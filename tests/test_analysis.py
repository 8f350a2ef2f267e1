import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamond.analysis import (
    BY,
    GrowthReport,
    TensorAlgebra,
    TensorQuotientReport,
    _column_word,
    _echelon,
    _integer_row,
    _reduce_row,
    _row_echelon,
    cubic_centre_elements,
    cubic_centre_suite,
    degree_three_centre_element,
    degree_two_suite,
    dimension_oracle,
    growth_classify,
    ideal_filtration_profile,
    ideal_span_contains,
    irreducible_census,
    is_central,
    pbw_block_letters,
    pbw_words,
    power_chain_report,
    quotient_dimension_tensor,
    random_defining_polynomial,
)
from diamond.freealg import Alphabet, NcPoly, TensorPoly, bidegree_sum
from diamond.ordering import GrlexPlus
from diamond.presentations import (
    AX,
    DefiningPolynomial,
    build_quantum_plane,
    build_system,
    build_tensor_presentation,
    defining_relation,
)
from diamond.rewrite import ReductionSystem, Rule, normal_form
from diamond.scalars import CyclotomicField

A, X = 0, 1
B, Y = 0, 1


def power_poly(n):
    return DefiningPolynomial.from_coefficients((0,) * (n - 1) + (1,))


def test_block_letters():
    assert pbw_block_letters(2) == []
    assert set(pbw_block_letters(4)) == {(A, X), (A, A, X), (A, X, X)}
    for n in range(2, 13):
        assert len(pbw_block_letters(n)) == (n - 1) * (n - 2) // 2


def test_pbw_words_small():
    words = pbw_words(3, 3)
    assert len(words) == 13
    counts = [0, 0, 0, 0]
    for w in words:
        counts[len(w)] += 1
    assert counts == [1, 2, 4, 6]
    words2 = pbw_words(2, 6)
    per_len = [sum(1 for w in words2 if len(w) == ell) for ell in range(7)]
    assert per_len == [ell + 1 for ell in range(7)]


def exhaustive_census(system, max_len):
    """Test oracle: filter every word of each length through ``match``,
    which scans for each left side and never uses the automaton."""
    k = len(system.alphabet)
    return [
        sum(1 for word in product(range(k), repeat=length) if system.match(word) is None)
        for length in range(max_len + 1)
    ]


def test_census_matches_exhaustive_filter():
    rng = random.Random(53)
    systems = [
        build_system(random_defining_polynomial(rng, rng.randint(2, 7))).system
        for _ in range(8)
    ]
    q = CyclotomicField(8).q
    systems.append(build_system(DefiningPolynomial.from_coefficients((0, q**2, 0, 1))).system)
    systems.append(build_quantum_plane(5))
    for system in systems:
        assert irreducible_census(system, 10).counts == exhaustive_census(system, 10)
    tensor = build_tensor_presentation(power_poly(2), power_poly(3)).system
    assert irreducible_census(tensor, 6).counts == exhaustive_census(tensor, 6)


ABC = Alphabet(("a", "b", "c"))
patterns = st.sets(
    st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple), min_size=1, max_size=5
)


@settings(max_examples=60, deadline=None)
@given(patterns)
def test_census_matches_exhaustive_filter_random_patterns(lhs_set):
    # left sides with arbitrary overlaps and inclusions exercise the
    # failure links; a zero right side is compatible with every order
    order = GrlexPlus(ABC, weight_letter=0, lex_top=0)
    rules = [Rule(lhs, NcPoly.zero(ABC), f"r{i}") for i, lhs in enumerate(sorted(lhs_set))]
    system = ReductionSystem(ABC, order, rules)
    assert irreducible_census(system, 7).counts == exhaustive_census(system, 7)
    for word in product(range(3), repeat=6):
        assert system.is_irreducible(word) == (system.match(word) is None)


def test_census_equals_pbw_enumeration():
    for n in range(2, 8):
        system = build_system(power_poly(n)).system
        census = irreducible_census(system, 14)
        words = pbw_words(n, 14)
        per_len = [0] * 15
        for w in words:
            per_len[len(w)] += 1
        assert per_len == census.counts
        # and as sets: every enumerated word is irreducible
        assert all(system.is_irreducible(w) for w in words)


def test_census_degree_four_series_oracle():
    # independent check: the census matches the power series of
    # 1 / ((1-s)^2 (1 - s^2 - 2 s^3)), the length generating function of
    # words x^i <blocks> a^k with blocks {ax, a^2x, ax^2}
    L = 60
    d = [0] * (L + 1)
    d[0] = 1
    for ell in range(1, L + 1):
        d[ell] = (d[ell - 2] if ell >= 2 else 0) + 2 * (d[ell - 3] if ell >= 3 else 0)
    e = [sum(d[: ell + 1]) for ell in range(L + 1)]
    expected = [sum(e[: ell + 1]) for ell in range(L + 1)]
    census = irreducible_census(build_system(power_poly(4)).system, L)
    assert census.counts == expected


def all_rows_echelon(g, bound):
    """Test oracle: the build the level recursion replaced.  Every row
    u * sigma_j * v with |u| + |v| + n <= bound is reduced from scratch,
    over columns ranked for this bound (longest word first, then most x,
    then lexicographically largest).  Returns (rank_of, pivots)."""
    gm = g.monic()
    n = gm.degree
    words = [w for length in range(bound + 1) for w in product((A, X), repeat=length)]
    words.sort(key=lambda w: (len(w), w.count(X), w), reverse=True)
    rank_of = {w: i for i, w in enumerate(words)}
    rows = []
    for j in range(1, n):
        sigma = dict(defining_relation(gm, j).items())
        for total in range(bound - n + 1):
            for left_len in range(total + 1):
                for u in product((A, X), repeat=left_len):
                    for v in product((A, X), repeat=total - left_len):
                        terms = {u + w + v: c for w, c in sigma.items()}
                        rows.append(_integer_row(terms, rank_of.__getitem__))
    return rank_of, _row_echelon(rows)


def all_rows_leads(g, bound):
    rank_of, pivots = all_rows_echelon(g, bound)
    word_of = {rank: w for w, rank in rank_of.items()}
    return {word_of[lead] for lead in pivots}


def level_build_leads(g, bound):
    # both builds order columns alike, so a span has one set of leading words
    if bound < g.degree:
        return set()
    leads = set()
    for lead in _echelon(g).pivots_at(bound - g.degree):
        length, _, bits = _column_word(lead)
        leads.add(tuple((bits >> (length - 1 - i)) & 1 for i in range(length)))
    return leads


def assert_level_build_matches(g, bound):
    leads = all_rows_leads(g, bound)
    profile = [sum(1 for w in leads if len(w) == ell) for ell in range(bound + 1)]
    assert ideal_filtration_profile(g, bound) == profile
    assert level_build_leads(g, bound) == leads


def test_level_build_matches_all_rows_oracle():
    for coeffs in ((0, 1), (0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 0, 1), (1, 1, 1), (1, 2, 1)):
        g = DefiningPolynomial.from_coefficients(coeffs)
        for bound in range(9):
            assert_level_build_matches(g, bound)


monic_rational = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=1, max_size=3
).map(lambda low: DefiningPolynomial.from_coefficients((*low, 1)))


@settings(max_examples=25, deadline=None)
@given(monic_rational, st.permutations(range(9)))
def test_level_build_matches_all_rows_oracle_random_g(g, bounds):
    # bounds in any order: a build extended further still answers lower bounds
    for bound in bounds:
        assert_level_build_matches(g, bound)


def test_ideal_span_contains_matches_all_rows_oracle():
    rng = random.Random(59)
    answers = set()
    for coeffs in ((0, 1), (0, 0, 1), (1, 1, 1), (1, 2, 1), (2, -1, 3, 1)):
        g = DefiningPolynomial.from_coefficients(coeffs)
        n = g.degree
        sigmas = [defining_relation(g.monic(), j) for j in range(1, n)]
        for bound in range(n, 9):
            rank_of, pivots = all_rows_echelon(g, bound)
            for _ in range(12):
                poly = NcPoly.zero(AX)
                for _ in range(rng.randint(0, 3)):
                    left = rng.randint(0, bound - n)
                    u = tuple(rng.randint(0, 1) for _ in range(left))
                    v = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, bound - n - left)))
                    poly = poly + rng.randint(-3, 3) * (
                        NcPoly.monomial(AX, u) * rng.choice(sigmas) * NcPoly.monomial(AX, v)
                    )
                if rng.random() < 0.5:
                    word = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, bound)))
                    poly = poly + NcPoly.monomial(AX, word, Fraction(rng.randint(1, 3), 2))
                expected = poly.is_zero() or not _reduce_row(
                    _integer_row(dict(poly.items()), rank_of.__getitem__), pivots
                )
                assert ideal_span_contains(g, poly, bound) == expected
                answers.add(expected)
    assert answers == {True, False}


def test_dimension_oracle_examples():
    assert dimension_oracle(power_poly(2), 4).dimension == 15
    assert dimension_oracle(power_poly(3), 4).dimension == 22
    deformed = DefiningPolynomial.from_coefficients((1, 1, 1))
    result = dimension_oracle(deformed, 4)
    assert result.stable and result.dimension == 22


def test_dimension_oracle_guard():
    with pytest.raises(ValueError):
        dimension_oracle(power_poly(2), 9, 2)
    with pytest.raises(ValueError):
        dimension_oracle(power_poly(2), -1, 2)


def test_dimension_oracle_monotone_in_slack():
    # adding slack can only add relation rows, so dimensions never increase
    for n in (2, 3):
        for ell in (3, 5):
            values = dimension_oracle(power_poly(n), ell, 0).values
            assert list(values) == sorted(values, reverse=True)


def test_ideal_span_soundness():
    # normal_form(w) - w always lies in the span of u * relation * v
    rng = random.Random(41)
    for coeffs in ((0, 0, 1), (1, 2, 1)):
        g = DefiningPolynomial.from_coefficients(coeffs)
        system = build_system(g).system
        for _ in range(10):
            word = tuple(rng.randint(0, 1) for _ in range(rng.randint(3, 10)))
            p = NcPoly.monomial(AX, word)
            diff = normal_form(p, system) - p
            assert ideal_span_contains(g, diff)
    # and non-members are rejected
    assert not ideal_span_contains(power_poly(2), NcPoly.monomial(AX, (X, X, A)))
    with pytest.raises(ValueError):
        ideal_span_contains(power_poly(2), NcPoly.monomial(AX, (X,) * 11))
    with pytest.raises(ValueError):
        ideal_span_contains(power_poly(2), NcPoly.monomial(ABC, (2,)))


def test_is_central():
    rng = random.Random(43)
    for _ in range(10):
        n = rng.randint(2, 5)
        g = random_defining_polynomial(rng, n)
        system = build_system(g).system
        assert is_central(NcPoly.monomial(AX, (A,) * n), system)
        assert is_central(g.monic().as_ncpoly(AX, X), system)
        assert not is_central(NcPoly.generator(AX, A), system)


def test_cubic_centre_element_deformed():
    rng = random.Random(47)
    for _ in range(10):
        g = random_defining_polynomial(rng, 3)
        system = build_system(g).system
        assert is_central(degree_three_centre_element(g.monic()), system)


def test_cubic_centre_suite():
    suite = cubic_centre_suite()
    assert suite["ok"]
    labels = [label for label, _ in cubic_centre_elements()]
    assert labels == [
        "a^3",
        "x^3",
        "mixed_cubic_1",
        "mixed_cubic_2",
        "(ax)^2 - x^2*a^2",
    ]


def test_tensor_quotient_squares():
    g = DefiningPolynomial.from_coefficients((0, 1))
    report = quotient_dimension_tensor(g, g, 6)
    assert report.ok
    assert report.rank_dimensions == [1, 1, 5, 5, 13, 13, 25]
    assert report.census_dimensions == report.rank_dimensions


def test_tensor_quotient_mixed():
    g = DefiningPolynomial.from_coefficients((0, 1))
    f = DefiningPolynomial.from_coefficients((0, 0, 1))
    report = quotient_dimension_tensor(g, f, 6)
    assert report.ok
    assert report.first_mismatch is None


def test_tensor_quotient_degree_zero():
    g = DefiningPolynomial.from_coefficients((0, 1))
    report = quotient_dimension_tensor(g, g, 0)
    assert report.rank_dimensions == [1] and report.census_dimensions == [1]


def test_tensor_quotient_report_mismatch_shape():
    report = TensorQuotientReport([0, 1], [1, 2], [1, 3], 1)
    assert not report.ok
    doc = report.to_json_dict()
    assert doc["first_mismatch"] == 1


def test_tensor_algebra_multiplication():
    g = DefiningPolynomial.from_coefficients((0, 1))
    algebra = TensorAlgebra(g, g)
    xa = algebra.monomial((A, X), ())  # reducible word in the first leg
    one = algebra.one()
    assert dict(algebra.reduce(xa * one).items()) == {((X, A), ()): Fraction(-1)}
    left = algebra.embed_left(NcPoly.monomial(AX, (A, X)))
    assert dict(left.items()) == {((X, A), ()): Fraction(-1)}


def test_tensor_algebra_render_names_each_leg():
    g = DefiningPolynomial.from_coefficients((0, 1))
    algebra = TensorAlgebra(g, g)
    y = algebra.embed_right(NcPoly.generator(BY, X))
    assert algebra.render(y) == "1*1(x)y"
    assert algebra.render(algebra.monomial((A, X), (Y, B))) == "1*a*x(x)y*b"
    # a tensor of one alphabet names both legs in it
    assert TensorPoly.simple(AX, (A,), (X,)).render() == "1*a(x)x"
    with pytest.raises(TypeError):
        y.degree()


def test_power_chain_report():
    chain = power_chain_report(3, 2)
    assert chain["confluent"]
    assert chain["entries"][0]["normal_form"] == "x^2*a"
    assert not chain["all_zero"]
    assert chain["recursion_identity"]
    chain43 = power_chain_report(4, 3)
    assert [e["zero"] for e in chain43["entries"]] == [False, True, False]
    with pytest.raises(ValueError):
        power_chain_report(2, 3)


def test_degree_two_suite():
    r0 = degree_two_suite(0, 0)
    assert r0["anticommute_ok"] and r0["identity_ok"]
    r20 = degree_two_suite(2, 0)
    assert r20["anticommute_ok"] and r20["identity_ok"]
    assert not r20["displayed_variant_zero"]
    # equal parameters: the constant correction vanishes but the identity holds
    rss = degree_two_suite(Fraction(3, 2), Fraction(3, 2))
    assert rss["identity_ok"]


def test_growth_classification():
    for n, kind, exponent in ((2, "polynomial", 2), (3, "polynomial", 3)):
        census = irreducible_census(build_system(power_poly(n)).system, 12)
        cls = growth_classify(census)
        assert cls.kind == kind and cls.exponent == exponent
    for n in (4, 5):
        census = irreducible_census(build_system(power_poly(n)).system, 12)
        assert growth_classify(census).kind == "exponential"
    with pytest.raises(ValueError):
        growth_classify(GrowthReport([1, 2, 3]))


def test_growth_classification_finite_dimensional():
    # a zero count means every longer word is reducible as well
    cls = growth_classify(GrowthReport([1, 2] + [0] * 10))
    assert cls.kind == "polynomial" and cls.exponent == 0
    system = ReductionSystem(
        AX,
        GrlexPlus(AX, weight_letter=X, lex_top=A),
        [Rule(lhs, NcPoly.zero(AX), str(lhs)) for lhs in ((A, A), (X, X), (A, X), (X, A))],
    )
    census = irreducible_census(system, 12)
    assert census.counts == [1, 2] + [0] * 11
    assert growth_classify(census).exponent == 0
