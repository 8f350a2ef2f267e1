import json
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diamond import analysis
from diamond.analysis import (
    Classification,
    TensorQuotientReport,
    _FIELD,
    MAX_ORACLE_BOUND,
    _census_counts,
    _dimension_at,
    _echelon,
    _grow,
    _IdealEchelon,
    _integer_row,
    _reduce_row,
    _word_column,
    commutes_with_letter,
    cubic_centre_elements,
    degree_three_centre_element,
    degree_two_anticommutes,
    degree_two_identities,
    dimension_oracle,
    growth_classify,
    ideal_filtration_profile,
    ideal_span_contains,
    irreducible_census,
    is_central,
    pbw_block_letters,
    pbw_words,
    quotient_dimension_tensor,
    random_defining_polynomial,
)
from diamond.cli import _power_system
from diamond.freealg import Alphabet, NcPoly, bidegree_sum, render_word
from diamond.ordering import GrlexPlus
from diamond.presentations import (
    AX,
    DefiningPolynomial,
    build_quantum_plane,
    build_system,
    build_tensor_presentation,
    defining_relation,
)
from diamond.rewrite import ReductionSystem, Rule, check_confluence, normal_form
from diamond.scalars import CyclotomicField

A, X = 0, 1


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


def test_pbw_words_distinct_and_ordered():
    # x^i * middle * a^k factors uniquely, so no word is generated twice and
    # sorting alone gives the order that deduplicating and sorting gave
    for n in range(2, 6):
        words = pbw_words(n, 10)
        assert len(set(words)) == len(words)
        assert words == sorted(set(words), key=lambda w: (len(w), w))


def scan_match(system, word):
    """Test oracle for ``match``: the first rule, in stable descending-key
    order, that occurs in the word, at its leftmost position.  One scan per
    rule; it never uses the automaton."""
    key = system.order.sort_key
    for rule in sorted(system.rules, key=lambda r: key(r.lhs), reverse=True):
        m = len(rule.lhs)
        for pos in range(len(word) - m + 1):
            if word[pos : pos + m] == rule.lhs:
                return rule, pos
    return None


def all_words(k, max_len):
    for length in range(max_len + 1):
        yield from product(range(k), repeat=length)


def exhaustive_census(system, max_len):
    """Test oracle: filter every word of each length through ``scan_match``."""
    k = len(system.alphabet)
    return [
        sum(1 for word in product(range(k), repeat=length) if scan_match(system, word) is None)
        for length in range(max_len + 1)
    ]


def oracle_systems():
    """(system, max_len) pairs for the census and match oracles: random
    rational g of degree 2-7, a Q(zeta_8) system, the quantum plane and a
    four-letter tensor system."""
    rng = random.Random(53)
    systems = [
        (build_system(random_defining_polynomial(rng, rng.randint(2, 7))).system, 10)
        for _ in range(8)
    ]
    q = CyclotomicField(8).q
    systems.append((build_system(DefiningPolynomial.from_coefficients((0, q**2, 0, 1))).system, 10))
    systems.append((build_quantum_plane(5), 10))
    systems.append((build_tensor_presentation(power_poly(2), power_poly(3)).system, 6))
    return systems


def test_census_matches_exhaustive_filter():
    for system, max_len in oracle_systems():
        assert irreducible_census(system, max_len).counts == exhaustive_census(system, max_len)


def test_match_matches_scan_oracle():
    for system, max_len in oracle_systems():
        for word in all_words(len(system.alphabet), max_len):
            assert system.match(word) == scan_match(system, word)


ABC = Alphabet(("a", "b", "c"))
# a rule list over three letters; under the order below b and c weigh the
# same, so equal-length left sides without a often share a sort key
patterns = st.lists(
    st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple),
    min_size=1,
    max_size=5,
    unique=True,
)
# overlaps (ab/ba, bc/cb), inclusions (ab and bc inside abc), key ties (bc ~ cb)
MIXED = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 1, 2)]


def pattern_system(lhs_list):
    # a zero right side is compatible with every order
    order = GrlexPlus(ABC, weight_letter=0, lex_top=0)
    rules = [Rule(lhs, NcPoly.zero(ABC), f"r{i}") for i, lhs in enumerate(lhs_list)]
    return ReductionSystem(ABC, order, rules)


@settings(max_examples=60, deadline=None)
@given(patterns)
@example(MIXED)
def test_census_matches_exhaustive_filter_random_patterns(lhs_list):
    # left sides with arbitrary overlaps and inclusions exercise the
    # failure links
    system = pattern_system(lhs_list)
    assert irreducible_census(system, 7).counts == exhaustive_census(system, 7)
    for word in product(range(3), repeat=6):
        assert (system.match(word) is None) == (scan_match(system, word) is None)


@settings(max_examples=60, deadline=None)
@given(patterns)
@example(MIXED)
@example(MIXED[::-1])
def test_match_matches_scan_oracle_random_patterns(lhs_list):
    # ties between left sides go to the earlier rule, as in the scan
    system = pattern_system(lhs_list)
    for word in all_words(3, 7):
        assert system.match(word) == scan_match(system, word)


def test_match_breaks_key_ties_by_rule_order():
    for lhs_list in (MIXED, MIXED[::-1]):
        system = pattern_system(lhs_list)
        # bc and cb share a sort key; both occur in bcb, cb first ends
        rule, pos = system.match((1, 2, 1))
        first = next(lhs for lhs in lhs_list if lhs in ((1, 2), (2, 1)))
        assert rule.lhs == first and pos == (0 if first == (1, 2) else 1)


@st.composite
def systems_words_splits(draw):
    """(system, word, p): a random three-letter pattern system or the system
    of a random rational g, a word over its letters and a split point."""
    if draw(st.booleans()):
        system = pattern_system(draw(patterns))
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        system = build_system(random_defining_polynomial(rng, draw(st.integers(2, 7)))).system
    k = len(system.alphabet)
    word = tuple(draw(st.lists(st.integers(0, k - 1), max_size=14)))
    return system, word, draw(st.integers(0, len(word)))


@settings(max_examples=150, deadline=None)
@given(systems_words_splits())
@example((pattern_system(MIXED), (0, 1, 2, 1, 0), 2))
@example((pattern_system([(0, 1, 2), (1,)]), (0, 1, 2), 1))
def test_walk_resumes_at_any_split(case):
    # the lemma normal_form's resumed walks rest on: walking w[:p] and then
    # w[p:] from the returned triple finds what one walk of w finds
    system, word, p = case
    walk = system.automaton.walk
    _, best, end = walk(word)
    _, split_best, split_end = walk(word[p:], *walk(word[:p]), offset=p)
    assert (split_best, split_end) == (best, end)
    assert system.match(word) == scan_match(system, word)


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
        assert all(system.match(w) is None for w in words)


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


def row_echelon(rows) -> dict:
    """Sparse row echelon of all rows at once, largest lead first; returns
    {leading column: pivot row}."""
    pivots: dict = {}
    for row in sorted(rows, key=min):
        reduced = _reduce_row(row, pivots)
        if reduced:
            pivots[min(reduced)] = reduced
    return pivots


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
    return rank_of, row_echelon(rows)


def all_rows_leads(g, bound):
    rank_of, pivots = all_rows_echelon(g, bound)
    word_of = {rank: w for w, rank in rank_of.items()}
    return {word_of[lead] for lead in pivots}


def level_build_leads(g, bound):
    # both builds order columns alike, so a span has one set of leading words
    if bound < g.degree:
        return set()
    leads = set()
    for lead in _echelon(g).pivots_at(bound - g.degree).refs:
        length, bits = -lead >> 2 * _FIELD, -lead & ((1 << _FIELD) - 1)
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


monic_rational_2_4 = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=2, max_size=4
).map(lambda low: DefiningPolynomial.from_coefficients((*low, 1)))


@settings(max_examples=25, deadline=None)
@given(monic_rational_2_4)
def test_level_basis_holds_every_sigma_row(g):
    # level t reduces only N_{t-1} * a and N_{t-1} * x; the rows sigma_j * v
    # with |v| = t, which it no longer reduces, must lie in its span W_t
    gm = g.monic()
    echelon = _IdealEchelon(gm)
    sigmas = [dict(defining_relation(gm, j).items()) for j in range(1, gm.degree)]
    for t in range(7):
        echelon._extend(t)
        for v in product((A, X), repeat=t):
            for sigma in sigmas:
                row = _integer_row({w + v: c for w, c in sigma.items()}, _word_column)
                assert not _reduce_row(row, echelon.basis)


def test_level_build_reduces_new_rows_times_a_letter(monkeypatch):
    # level 0 reduces the n - 1 rows sigma_j, and level t the 2 * |N_{t-1}|
    # rows N_{t-1} * a and N_{t-1} * x, far fewer than the (n - 1) * 2^t rows
    # sigma_j * v; for g = x^n the merge into the pivot table is free
    calls = []

    def counting(row, pivots):
        calls.append(row)
        return _reduce_row(row, pivots)

    monkeypatch.setattr(analysis, "_reduce_row", counting)
    per_level = {}
    for n in (2, 3, 4):
        echelon = _IdealEchelon(power_poly(n).monic())
        assert len(echelon.new) == n - 1
        per_level[n] = []
        for t in range(13 - n):
            calls.clear()
            rows = len(echelon.new) * (2 if t else 1)
            echelon._extend(t)
            assert len(calls) == rows
            per_level[n].append(rows)
    assert per_level == {
        2: [1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20],
        3: [2, 4, 6, 12, 16, 24, 30, 40, 48, 60],
        4: [3, 6, 8, 16, 32, 46, 80, 128, 192],
    }
    assert sum(map(sum, per_level.values())) == 864


def test_columns_order_words_and_grow_by_a_letter():
    # every word up to the longest the oracle builds
    words = list(all_words(2, MAX_ORACLE_BOUND))
    assert len(words) == 8191
    by_column = sorted(words, key=_word_column)
    assert by_column == sorted(words, key=lambda w: (len(w), sum(w), w), reverse=True)
    for word in words:
        if len(word) < MAX_ORACLE_BOUND:
            grown = ((A,) + word, (X,) + word, word + (A,), word + (X,))
            assert _grow(_word_column(word)) == tuple(map(_word_column, grown))


@pytest.mark.parametrize(
    "n, pivots, entries", [(2, 8100, 16200), (3, 7939, 21948), (4, 6781, 28210)]
)
def test_echelon_work_at_the_largest_bound(n, pivots, entries):
    # a column order that kept every profile but filled the pivot rows would
    # slow the oracle down without failing any other test
    table = _echelon(power_poly(n)).pivots_at(MAX_ORACLE_BOUND - n)
    rows = [table.get(lead) for lead in table.refs]
    assert (len(rows), sum(map(len, rows))) == (pivots, entries)


def test_membership_builds_only_the_rows_it_reads(monkeypatch):
    # the table of x^3 at bound 10 holds 1,886 rows; a membership call
    # builds only those its reduction reads, not the whole table
    g = power_poly(3)
    table = _echelon(g).pivots_at(10 - g.degree)
    assert len(table.refs) == 1886
    built = []
    get = analysis._Rows.get

    def counting(self, lead):
        row = get(self, lead)
        if row is not None:
            built.append(lead)
        return row

    monkeypatch.setattr(analysis._Rows, "get", counting)
    sigma_1, sigma_2 = (defining_relation(g, j) for j in (1, 2))
    spread = (NcPoly.generator(AX, A) + NcPoly.generator(AX, X)) ** 2
    for poly, member, rows in (
        (sigma_1, True, 1),
        (spread * spread * sigma_1 - sigma_2 * spread * spread, True, 26),
        (spread * sigma_1 + NcPoly.generator(AX, A), False, 4),
    ):
        built.clear()
        assert ideal_span_contains(g, poly, 10) is member
        assert len(built) == rows


def test_echelon_stores_only_the_rows_reduction_kept():
    # every other row of a level is a prefix of a kept row, built when
    # read; for g = x^n the merge reduces nothing, so the pivot table holds
    # references only
    kept = 0
    for n in (2, 3, 4):
        echelon = _IdealEchelon(power_poly(n).monic())
        echelon._extend(MAX_ORACLE_BOUND - n)
        kept += sum(map(len, echelon.kept))
        assert all(type(ref) is tuple for ref in echelon.pivots.values())
    assert kept == 630


@pytest.mark.parametrize("n", (2, 3, 4))
def test_echelon_build_peak_memory(n):
    # copying every level's rows as a * E and x * E peaked at 2.6 to 3.0 MiB
    gm = power_poly(n).monic()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _IdealEchelon(gm)._extend(MAX_ORACLE_BOUND - n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_oracle_refuses_a_non_rational_g():
    # the rows are cleared to ints, and a Q(zeta_8) coefficient has no
    # denominator to clear
    q = CyclotomicField(8).q
    with pytest.raises(TypeError, match="rational scalars only"):
        ideal_filtration_profile(DefiningPolynomial((q, 1)), 4)


def test_oracle_guards_words_longer_than_the_bound():
    with pytest.raises(ValueError, match="resource guard"):
        ideal_filtration_profile(power_poly(2), MAX_ORACLE_BOUND + 1)
    # sigma_1 is in the span at bound 8, and the 12-letter word has no
    # column there, in either build; it is refused before it is encoded
    g = power_poly(2)
    sigma = defining_relation(g, 1)
    p = sigma + NcPoly.monomial(AX, (A, X) * 6)
    assert ideal_span_contains(g, sigma, 8)
    assert not ideal_span_contains(g, p, 8)
    rank_of, pivots = all_rows_echelon(g, 8)
    expected = all(w in rank_of for w in p.support()) and not _reduce_row(
        _integer_row(dict(p.items()), rank_of.__getitem__), pivots
    )
    assert expected is False


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
        dimension_oracle(power_poly(2), 9)
    with pytest.raises(ValueError):
        dimension_oracle(power_poly(2), -1)


def test_dimension_oracle_monotone_in_slack():
    # a larger bound can only add relation rows, so dimensions never increase
    for n in (2, 3):
        for ell in (3, 5):
            values = [
                _dimension_at(ideal_filtration_profile(power_poly(n), ell + k), ell)
                for k in range(3)
            ]
            assert values == sorted(values, reverse=True)


def slack_values(g, ell):
    """The dimensions at the slack bounds ell+2, ell+3 and ell+4."""
    return tuple(_dimension_at(ideal_filtration_profile(g, ell + k), ell) for k in (2, 3, 4))


@pytest.mark.parametrize("top", [1, 3, Fraction(-2, 5)])
def test_dimension_oracle_of_a_pure_power_equals_the_slack_values(top):
    # the ideal of r_n x^n is graded, so its value at bound ell is exact
    for n in range(2, 7):
        g = DefiningPolynomial((0,) * (n - 1) + (top,))
        for ell in range(9):
            values = slack_values(g, ell)
            assert len(set(values)) == 1
            assert dimension_oracle(g, ell) == analysis.DimOracleResult(values[0], True, values)


def test_dimension_oracle_of_a_pure_power_builds_no_slack(monkeypatch):
    # x^4 at ell = 8 builds levels 0..4, the bound 8; not 0..8
    monkeypatch.setattr(analysis, "_ECHELONS", analysis.WeakKeyDictionary())
    g = power_poly(4)
    dimension_oracle(g, 8)
    assert len(_echelon(g).sizes) <= 5


def test_dimension_oracle_bounds(monkeypatch):
    # a g with lower terms reads the three slack bounds, a pure power ell
    read = []
    profile = analysis.ideal_filtration_profile

    def recording(g, bound):
        read.append(bound)
        return profile(g, bound)

    monkeypatch.setattr(analysis, "ideal_filtration_profile", recording)
    for coeffs, ell, bounds in (((1, 1, 1), 4, [6, 7, 8]), ((0, 0, 2), 4, [4, 4, 4])):
        read.clear()
        g = DefiningPolynomial.from_coefficients(coeffs)
        result = dimension_oracle(g, ell)
        assert read == bounds
        assert result.values == slack_values(g, ell)


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


ax_words = st.lists(st.integers(0, 1), max_size=8).map(tuple)
rational_polys = st.dictionaries(
    ax_words, st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=4
).map(lambda terms: NcPoly(AX, terms))
monic_rational_2_5 = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=1, max_size=4
).map(lambda low: DefiningPolynomial.from_coefficients((*low, 1)))


@settings(max_examples=30, deadline=None)
@given(monic_rational_2_5, rational_polys)
def test_normal_form_irreducible_and_congruent_rational(g, p):
    system = build_system(g).system
    nf = normal_form(p, system)
    assert all(scan_match(system, word) is None for word in nf.support())
    # the default bound, the longest word of the difference, is at most 8
    assert ideal_span_contains(g, nf - p)


ZETA8 = CyclotomicField(8).q
zeta8_polys = st.dictionaries(
    ax_words, st.tuples(st.integers(-3, 3), st.integers(0, 7)), max_size=4
).map(lambda terms: NcPoly(AX, {w: c * ZETA8**e for w, (c, e) in terms.items()}))


@settings(max_examples=30, deadline=None)
@given(zeta8_polys)
def test_normal_form_irreducible_cyclotomic(p):
    system = build_system(DefiningPolynomial.from_coefficients((0, ZETA8**2, 0, 1))).system
    nf = normal_form(p, system)
    assert all(scan_match(system, word) is None for word in nf.support())


def test_is_central():
    rng = random.Random(43)
    for _ in range(10):
        n = rng.randint(2, 5)
        g = random_defining_polynomial(rng, n)
        system = build_system(g).system
        assert is_central(NcPoly.monomial(AX, (A,) * n), system)
        assert is_central(g.monic().as_ncpoly(AX, X), system)
        assert not is_central(NcPoly.generator(AX, A), system)


@settings(max_examples=30, deadline=None)
@given(
    monic_rational_2_5,
    rational_polys,
    st.tuples(*[st.integers(-2, 2)] * 3),
    st.sampled_from((A, X)),
)
def test_commutes_with_letter_matches_the_product_form(g, p, scales, letter):
    # a^n and g(x) are central, so the central combination tests the True
    # side and its sum with a random p mostly the False side
    system = build_system(g).system
    n = g.degree
    central = (
        scales[0] * NcPoly.monomial(AX, (A,) * n)
        + scales[1] * g.monic().as_ncpoly(AX, X)
        + NcPoly.monomial(AX, (), scales[2])
    )
    c = NcPoly.generator(AX, letter)
    assert commutes_with_letter(central, letter, system)
    for poly in (p, p + central):
        expected = normal_form(poly * c - c * poly, system).is_zero()
        assert commutes_with_letter(poly, letter, system) == expected


def test_a_does_not_commute_with_x_for_x_cubed():
    system = build_system(power_poly(3)).system
    a = NcPoly.generator(AX, A)
    assert commutes_with_letter(a, A, system)
    assert not commutes_with_letter(a, X, system)
    assert not is_central(a, system)


def test_cubic_centre_element_deformed():
    rng = random.Random(47)
    for _ in range(10):
        g = random_defining_polynomial(rng, 3)
        system = build_system(g).system
        assert is_central(degree_three_centre_element(g.monic()), system)


def test_cubic_centre_elements():
    system = build_system(power_poly(3)).system
    assert all(is_central(element, system) for _, element in cubic_centre_elements())
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


monic_low_degree = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=1, max_size=2
).map(lambda low: DefiningPolynomial.from_coefficients((*low, 1)))


@settings(max_examples=10, deadline=None)
@given(monic_low_degree, monic_low_degree)
def test_tensor_quotient_matches_census_random_pairs(g, f):
    # weighted degree 2nm reaches past the relations' own degree nm
    report = quotient_dimension_tensor(g, f, 2 * g.degree * f.degree)
    assert report.ok, report.first_mismatch


def test_tensor_quotient_report_mismatch_shape():
    report = TensorQuotientReport([0, 1], [1, 2], [1, 3], 1)
    assert not report.ok
    doc = report.to_json_dict()
    assert doc["first_mismatch"] == 1


def weighted_automaton_census(system, max_degree: int) -> list:
    """Cumulative irreducible words per weighted degree, by the transfer
    matrix of the obstruction automaton with each letter stepping by its
    alphabet weight (Ufnarovski 1982)."""
    automaton = system.automaton
    none = len(automaton.left_sides)
    weights = system.alphabet.weights
    ending = [{0: 1}]  # per degree: live state -> words of that degree ending there
    for degree in range(1, max_degree + 1):
        here: dict = {}
        for letter, weight in enumerate(weights):
            if weight <= degree:
                for state, count in ending[degree - weight].items():
                    target = automaton.delta[state][letter]
                    if automaton.rank[target] == none:
                        here[target] = here.get(target, 0) + count
        ending.append(here)
    return list(accumulate(sum(here.values()) for here in ending))


def census_pairs():
    fixed = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (5, 4)]
    pairs = [(power_poly(n), power_poly(m)) for n, m in fixed]
    rng = random.Random(21)
    for _ in range(5):
        g = random_defining_polynomial(rng, rng.randint(2, 5))
        pairs.append((g, random_defining_polynomial(rng, rng.randint(2, 5))))
    return pairs


@pytest.mark.parametrize("g, f", census_pairs())
def test_census_counts_match_tensor_automaton(g, f):
    # the closed form is the four-letter system's census at every weighted
    # degree up to 4nm, once that system is confluent
    system = build_tensor_presentation(g, f).system
    assert check_confluence(system).overall
    bound = 4 * g.degree * f.degree
    assert _census_counts(g, f, bound) == weighted_automaton_census(system, bound)


TENSOR_GOLDEN = Path(__file__).parent / "golden" / "tensor_quotient.json"


def test_tensor_quotient_matches_golden():
    # reports and census counts recorded before the census was rewritten
    for case in json.loads(TENSOR_GOLDEN.read_text()):
        g = DefiningPolynomial.from_coefficients(Fraction(c) for c in case["g"])
        f = DefiningPolynomial.from_coefficients(Fraction(c) for c in case["f"])
        report = quotient_dimension_tensor(g, f, case["max_degree"])
        assert report.to_json_dict() == case["report"]
        for degree in range(len(case["census_counts"])):
            assert _census_counts(g, f, degree) == case["census_counts"][: degree + 1]


def test_degree_two_identities():
    # the displayed variant differs by 2(g - f), which is never zero
    assert degree_two_identities(0, 0) == (True, True, False)
    assert degree_two_identities(2, 0) == (True, True, False)
    # equal parameters: the constant correction vanishes but the identity holds
    assert degree_two_identities(Fraction(3, 2), Fraction(3, 2)) == (True, True, False)


def test_degree_two_anticommutes_agrees_with_the_identities(monkeypatch):
    rng = random.Random(38)
    built = []

    def counting(g, *args):
        built.append(g)
        return build_system(g, *args)

    monkeypatch.setattr(analysis, "build_system", counting)
    for _ in range(20):
        r, s = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
        built.clear()
        anticommute = degree_two_identities(r, s)[0]
        # one system for g and one for f
        assert [g.coefficients for g in built] == [(r, 1), (s, 1)]
        assert degree_two_anticommutes(r) is anticommute is True
        # x' is the change of variable of g's own r only
        wrong = build_system(DefiningPolynomial((r + 1, 1))).system
        assert not degree_two_anticommutes(r, wrong)


def test_growth_classification():
    # the left sides alone, as `diamond growth` builds them
    for n, kind, exponent in ((2, "polynomial", 2), (3, "polynomial", 3)):
        census = irreducible_census(_power_system(n), 12)
        cls = growth_classify(census)
        assert cls.kind == kind and cls.exponent == exponent
    for n in range(4, 17):
        census = irreducible_census(_power_system(n), 12)
        assert growth_classify(census) == Classification("exponential")


def monomial_system(*left_sides):
    # zero right sides are compatible with every order
    return ReductionSystem(
        AX,
        GrlexPlus(AX, weight_letter=X, lex_top=A),
        [Rule(lhs, NcPoly.zero(AX), render_word(AX, lhs)) for lhs in left_sides],
    )


# (left sides, kind, exponent, {length: count}); a fit of the counts up to
# length 12 gets each of these wrong
GROWTH_WITNESSES = [
    (
        ((A, A, A, X), (A, A, X, A, X), (A, X, X, A), (A, X, X, X)),
        "polynomial",
        4,
        {200: 237_472, 400: 1_838_278},
    ),
    (
        ((A, A, A), (X, A, X, A, X), (X, X), (X, X, X, X)),
        "exponential",
        None,
        {400: 14_519_437_096_269_061_177_796_675_159_367},
    ),
    (
        ((A, A, X, A), (X, A, X), (X, X, A, A)),
        "polynomial",
        2,
        {100: 583, 200: 1_183, 400: 2_383},
    ),
]


def test_growth_classification_monomial_witnesses():
    for left_sides, kind, exponent, counts in GROWTH_WITNESSES:
        census = irreducible_census(monomial_system(*left_sides), 400)
        assert growth_classify(census) == Classification(kind, exponent)
        assert all(census.counts[ell] == c for ell, c in counts.items())


def test_growth_classification_ignores_census_length():
    systems = [build_system(power_poly(n)).system for n in range(2, 6)]
    systems += [monomial_system(*witness[0]) for witness in GROWTH_WITNESSES]
    for system in systems:
        assert growth_classify(irreducible_census(system, 0)) == growth_classify(
            irreducible_census(system, 40)
        )


def test_growth_classification_long_cycle_is_iterative():
    # a^2000 over {a, x}: one component of 2,000 live states and 4,000
    # edges, deeper than the recursion limit
    system = monomial_system((A,) * 2000)
    assert len(system.automaton.delta) == 2001
    assert growth_classify(irreducible_census(system, 0)) == Classification("exponential")


def test_growth_classification_finite_dimensional():
    # every word of length 2 is reducible, so every longer word is as well
    system = monomial_system((A, A), (X, X), (A, X), (X, A))
    census = irreducible_census(system, 12)
    assert census.counts == [1, 2] + [0] * 11
    assert growth_classify(census) == Classification("polynomial", 0)


def components_oracle(live):
    """Test oracle for ``growth_classify``: components by mutual
    reachability, in quadratic time."""

    def reach(state):
        # the ends of the walks of one letter or more from ``state``
        seen, todo = set(), list(live[state])
        while todo:
            s = todo.pop()
            if s not in seen:
                seen.add(s)
                todo.extend(live[s])
        return seen

    after = {s: reach(s) for s in reach(0) | {0}}
    closure = {s: after[s] | {s} for s in after}
    components = {frozenset(t for t in closure[s] if s in closure[t]) for s in after}
    for comp in components:
        if sum(t in comp for s in comp for t in live[s]) > len(comp):
            return Classification("exponential")
    # a component reached from another has a strictly smaller closure
    depth = {}
    for comp in sorted(components, key=lambda c: len(closure[min(c)])):
        s = min(comp)
        reached = [depth[d] for d in depth if min(d) in closure[s]]
        depth[comp] = (s in after[s]) + max(reached, default=0)
    return Classification("polynomial", max(depth.values()))


def test_components_oracle_examples():
    for left_sides, kind, exponent, _ in GROWTH_WITNESSES:
        census = irreducible_census(monomial_system(*left_sides), 0)
        assert components_oracle(census.live) == Classification(kind, exponent)
    for n, expected in ((2, Classification("polynomial", 2)), (4, Classification("exponential"))):
        census = irreducible_census(build_system(power_poly(n)).system, 0)
        assert components_oracle(census.live) == expected


@settings(max_examples=60, deadline=None)
@given(patterns)
@example(MIXED)
def test_growth_classify_matches_components_oracle_patterns(lhs_list):
    census = irreducible_census(pattern_system(lhs_list), 0)
    assert growth_classify(census) == components_oracle(census.live)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**32))
def test_growth_classify_matches_components_oracle_rational(degree, seed):
    g = random_defining_polynomial(random.Random(seed), degree)
    census = irreducible_census(build_system(g).system, 0)
    assert growth_classify(census) == components_oracle(census.live)
