import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from diamond.analysis import random_defining_polynomial
from diamond.freealg import Alphabet, NcPoly, bidegree_sum
from diamond.ordering import GrlexPlus
from diamond.presentations import (
    AX,
    DefiningPolynomial,
    build_system,
    build_tensor_presentation,
    defining_relation,
)
from diamond import presentations, rewrite
from diamond.rewrite import (
    INCLUSION,
    MEMO_SIZE,
    NOT_CONFLUENT,
    OVERLAP,
    RESOLVABLE,
    Ambiguity,
    IncompatibleSystem,
    ReductionBudgetExceeded,
    ReductionSystem,
    Rule,
    check_confluence,
    find_ambiguities,
    normal_form,
    ReductionStats,
    resolve_ambiguity,
)
from diamond.scalars import Cyclotomic, CyclotomicField, entries, euler_phi
from test_analysis import power_poly, scan_match

A, X = 0, 1


def mono(*letters):
    return NcPoly.monomial(AX, letters)


def as_relation(rule):
    """The ideal generator lhs - rhs of a rule."""
    return NcPoly.monomial(rule.rhs.alphabet, rule.lhs) - rule.rhs


def system_for(*coeffs):
    return build_system(DefiningPolynomial.from_coefficients(coeffs)).system


def sign_count_normal_form(word):
    """Independent oracle for the degree-2 pure-power system: each adjacent
    (a, x) swap flips the sign, so the normal form of a word with p x's and
    q a's is (-1)^inversions x^p a^q."""
    inversions = 0
    for i, ci in enumerate(word):
        if ci == A:
            inversions += sum(1 for cj in word[i + 1 :] if cj == X)
    p = sum(1 for c in word if c == X)
    q = len(word) - p
    return NcPoly.monomial(AX, (X,) * p + (A,) * q, Fraction(-1) ** inversions)


def test_reduce_once_examples():
    # one-rewrite examples; each one-step result is already a normal form
    sys2 = system_for(0, 1)  # single rule ax -> -xa
    assert sys2.match((A, X)) is not None
    assert normal_form(mono(A, X), sys2) == -mono(X, A)
    assert sys2.match((X, A)) is None
    assert normal_form(mono(X, A), sys2) == mono(X, A)
    sys3 = system_for(0, 0, 1)
    assert sys3.match((A, X, X)) is not None
    assert normal_form(mono(A, X, X), sys3) == -mono(X, A, X) - mono(X, X, A)


def test_normal_form_sign_oracle():
    sys2 = system_for(0, 1)
    assert normal_form(mono(A, X, A, X), sys2) == -mono(X, X, A, A)
    assert normal_form(mono(A, A, X), sys2) == mono(X, A, A)
    rng = random.Random(11)
    for _ in range(60):
        word = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 10)))
        assert normal_form(NcPoly.monomial(AX, word), sys2) == sign_count_normal_form(word)


def test_relations_reduce_to_zero():
    for coeffs in ((0, 1), (3, 1), (0, 0, 1), (1, 2, 1), (0, 0, 0, 1), (1, 0, 2, 0, 1)):
        g = DefiningPolynomial.from_coefficients(coeffs)
        pres = build_system(g)
        for j in range(1, g.degree):
            assert normal_form(defining_relation(g.monic(), j), pres.system).is_zero()


def test_is_irreducible():
    # a word is irreducible when no left side matches it
    sys3 = system_for(0, 0, 1)
    assert sys3.match((A, X)) is None
    # x^5 (ax) a^2 is a standard word
    assert sys3.match((X,) * 5 + (A, X) + (A, A)) is None
    assert sys3.match((A, A, X, X)) is not None  # contains a^2 x
    sys4 = system_for(0, 0, 0, 1)
    assert sys4.match((A, A, X, X)) is not None  # is itself a left side
    sys5 = system_for(0, 0, 0, 0, 1)
    assert sys5.match((A, A, X, X)) is None  # shorter than every left side


def test_find_ambiguities_census():
    sys3 = system_for(0, 0, 1)
    ambs = find_ambiguities(sys3)
    assert len(ambs) == 1
    amb = ambs[0]
    assert amb.kind == OVERLAP
    assert (amb.a, amb.b, amb.c) == ((A,), (A, X), (X,))
    # the left rule of the pair owns the word A + B = a^2 x
    assert sys3.rules[amb.sigma].lhs == (A, A, X)
    assert sys3.rules[amb.tau].lhs == (A, X, X)

    sys5 = system_for(0, 0, 0, 0, 1)
    ambs5 = find_ambiguities(sys5)
    assert len(ambs5) == 6
    assert all(a.kind == OVERLAP for a in ambs5)


def test_ambiguity_family_exact():
    # for every n the overlaps are exactly (a^t, a^j x^(n-j-t), x^t) with the
    # larger-index rule on the prefix side
    for n in (4, 5):
        system = system_for(*((0,) * (n - 1) + (1,)))
        found = {
            (system.rules[amb.sigma].lhs, system.rules[amb.tau].lhs, amb.a, amb.b, amb.c)
            for amb in find_ambiguities(system)
        }
        expected = set()
        for j in range(1, n):
            for t in range(1, n - j):
                expected.add(
                    (
                        (A,) * (j + t) + (X,) * (n - j - t),
                        (A,) * j + (X,) * (n - j),
                        (A,) * t,
                        (A,) * j + (X,) * (n - j - t),
                        (X,) * t,
                    )
                )
        assert found == expected


def test_single_rule_no_ambiguities():
    order = GrlexPlus(AX, weight_letter=X, lex_top=A)
    rule = Rule((A, X), -mono(X, A), "r")
    system = ReductionSystem(AX, order, [rule])
    assert find_ambiguities(system) == []
    assert as_relation(rule) == mono(A, X) + mono(X, A)


def test_inclusion_detection():
    order = GrlexPlus(AX, weight_letter=X, lex_top=A)
    rules = [
        Rule((A, X, A), mono(A), "outer"),
        Rule((X,), NcPoly.zero(AX), "inner"),
    ]
    system = ReductionSystem(AX, order, rules)
    kinds = [amb.kind for amb in find_ambiguities(system)]
    assert INCLUSION in kinds


def test_inclusion_occurring_twice_overlapping_itself():
    # aa occurs in aaax at positions 0 and 1, overlapping itself; each
    # occurrence is its own inclusion, in order, before the overlaps
    order = GrlexPlus(AX, weight_letter=X, lex_top=A)
    rules = [Rule((A, A, A, X), NcPoly.zero(AX), "outer"), Rule((A, A), NcPoly.zero(AX), "inner")]
    system = ReductionSystem(AX, order, rules)
    assert find_ambiguities(system) == [
        Ambiguity(INCLUSION, 0, 1, (), (A, A), (A, X)),
        Ambiguity(INCLUSION, 0, 1, (A,), (A, A), (X,)),
        Ambiguity(OVERLAP, 1, 0, (A,), (A,), (A, A, X)),
        Ambiguity(OVERLAP, 1, 1, (A,), (A,), (A,)),
    ]


def test_toy_not_confluent():
    # two rules ab -> 0, ba -> a over letters (a, b)
    AB = Alphabet(("a", "b"))
    order = GrlexPlus(AB, weight_letter=1, lex_top=0)
    r1 = Rule((0, 1), NcPoly.zero(AB), "ab")
    r2 = Rule((1, 0), NcPoly.monomial(AB, (0,)), "ba")
    system = ReductionSystem(AB, order, [r1, r2])
    report = check_confluence(system)
    assert len(report.resolutions) == 2
    verdicts = {
        (system.rules[res.ambiguity.sigma].label, res.verdict)
        for res in report.resolutions
    }
    # on the word aba the two routes give 0 and a^2
    assert ("ab", NOT_CONFLUENT) in verdicts
    assert ("ba", RESOLVABLE) in verdicts
    assert not report.overall
    bad = next(r for r in report.resolutions if r.verdict == NOT_CONFLUENT)
    assert bad.difference == -NcPoly.monomial(AB, (0, 0))


def test_check_confluence_cases():
    report = check_confluence(system_for(3, 1))  # x^2 + 3x: no pairs at all
    assert report.overall and len(report.resolutions) == 0
    report = check_confluence(system_for(0, 1, 0, 1))  # x^4 + x^2
    assert report.overall
    assert report.overlap_count == 3 and report.inclusion_count == 0


def test_confluence_report_json():
    doc = check_confluence(system_for(0, 0, 1)).to_json_dict()
    assert doc["overall"] == RESOLVABLE
    assert len(doc["ambiguities"]) == 1
    entry = doc["ambiguities"][0]
    assert entry["sigma"] == "sigma_2" and entry["tau"] == "sigma_1"
    assert (entry["A"], entry["B"], entry["C"]) == ("a", "a*x", "x")
    assert doc["stats"]["elementary_steps"] > 0


def test_normal_form_idempotent_and_linear():
    rng = random.Random(5)
    g = DefiningPolynomial.from_coefficients(
        (Fraction(1, 2), Fraction(-2), 1)
    )
    system = build_system(g).system
    for _ in range(15):
        terms = {
            tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 7))): Fraction(
                rng.randint(-5, 5), rng.randint(1, 5)
            )
            for _ in range(4)
        }
        p = NcPoly(AX, terms)
        q = NcPoly(
            AX,
            {
                tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6))): Fraction(
                    rng.randint(-5, 5)
                )
                for _ in range(3)
            },
        )
        alpha, beta = Fraction(2, 3), Fraction(-5)
        nf_p = normal_form(p, system)
        assert normal_form(nf_p, system) == nf_p
        assert normal_form(p.scale(alpha) + q.scale(beta), system) == normal_form(
            p, system
        ).scale(alpha) + normal_form(q, system).scale(beta)


def test_ideal_membership():
    # under a confluent system, membership in the ideal is a zero normal form
    sys3 = system_for(0, 0, 1)
    sigma_2 = defining_relation(DefiningPolynomial.from_coefficients((0, 0, 1)), 2)
    assert normal_form(sigma_2, sys3).is_zero()
    sys2 = system_for(0, 1)
    p12 = bidegree_sum(AX, 1, 2)
    assert normal_form(p12, sys2) == mono(X, X, A)
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 5)
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n - 1)] + [Fraction(1)]
        g = DefiningPolynomial.from_coefficients(coeffs)
        system = build_system(g).system
        an_x = mono(*((A,) * n + (X,)))
        x_an = mono(*((X,) + (A,) * n))
        assert normal_form(an_x - x_an, system).is_zero()


def test_budget_guard():
    sys3 = system_for(0, 0, 1)
    sys3.budget = 1
    with pytest.raises(ReductionBudgetExceeded):
        normal_form(mono(A, A, X, X, A, X), sys3)


def test_incompatible_rules_rejected():
    order = GrlexPlus(AX, weight_letter=X, lex_top=A)
    uphill = Rule((A, X), mono(X, A) + mono(A, X, X), "uphill")
    with pytest.raises(IncompatibleSystem):
        ReductionSystem(AX, order, [uphill])


def test_duplicate_lhs_rejected():
    order = GrlexPlus(AX, weight_letter=X, lex_top=A)
    with pytest.raises(ValueError):
        ReductionSystem(
            AX,
            order,
            [Rule((A, X), -mono(X, A), "r1"), Rule((A, X), mono(X, A), "r2")],
        )


def _branch_normal_forms(word, system, alphabet):
    # every single-step rewrite of the word, finished by the deterministic
    # engine; a confluent system must land every branch on one normal form
    out = set()
    for rule in system.rules:
        for pos in range(len(word) - len(rule.lhs) + 1):
            if word[pos : pos + len(rule.lhs)] == rule.lhs:
                repl = {}
                for rword, rcoeff in rule.rhs.items():
                    new_word = word[:pos] + rword + word[pos + len(rule.lhs) :]
                    repl[new_word] = repl.get(new_word, 0) + rcoeff
                nf = normal_form(NcPoly(alphabet, repl), system)
                out.add(tuple(sorted(nf.items(), key=lambda kv: kv[0])))
    return out


def test_all_branches_join():
    from itertools import product

    for system in (system_for(0, 0, 1), system_for(1, 1, 1), system_for(0, 1, 0, 1)):
        for length in range(9):
            for word in product((0, 1), repeat=length):
                assert len(_branch_normal_forms(word, system, AX)) <= 1


def test_branches_separate_for_non_confluent_system():
    from itertools import product

    AB = Alphabet(("a", "b"))
    order = GrlexPlus(AB, weight_letter=1, lex_top=0)
    system = ReductionSystem(
        AB,
        order,
        [Rule((0, 1), NcPoly.zero(AB), "ab"), Rule((1, 0), NcPoly.monomial(AB, (0,)), "ba")],
    )
    split = [
        word
        for length in range(4)
        for word in product((0, 1), repeat=length)
        if len(_branch_normal_forms(word, system, AB)) > 1
    ]
    assert (0, 1, 0) in split  # the word a b a reduces to both 0 and a^2


# -- the coefficient domain -------------------------------------------------


def coefficient_types(polys) -> set:
    return {type(c) for poly in polys for _, c in poly.items()}


def test_integral_systems_compute_in_int():
    # x^n for n = 2..10, and x^4 + 2x^2 - 3x: the rules hold only ints, and
    # so does every normal form that confluence checking builds
    gs = [DefiningPolynomial.from_coefficients((0,) * (n - 1) + (1,)) for n in range(2, 11)]
    gs.append(DefiningPolynomial.from_coefficients((-3, 2, 0, 1)))
    for g in gs:
        system = build_system(g).system
        assert coefficient_types(rule.rhs for rule in system.rules) <= {int}
        report = check_confluence(system)
        assert report.overall
        normal_forms = [r.left_normal for r in report.resolutions]
        assert coefficient_types(normal_forms) <= {int}
        assert coefficient_types(r.difference for r in report.resolutions) <= {int}


def test_rational_and_cyclotomic_systems_keep_their_domain():
    # the public rules hold the caller's scalars, here the Fraction 1/2 and
    # the ints -2 and 1
    rational = build_system(DefiningPolynomial.from_coefficients((Fraction(1, 2), -2, 1)))
    assert coefficient_types(rule.rhs for rule in rational.system.rules) == {Fraction, int}
    field = CyclotomicField(8)
    half = Fraction(1, 2)
    g = DefiningPolynomial(
        (field.q, Cyclotomic(8, [half, 0, -1]), field.zero, Cyclotomic(8, [1, 0, 0, half]), 1)
    )
    types = coefficient_types(rule.rhs for rule in build_system(g).system.rules)
    assert Cyclotomic in types and types <= {int, Fraction, Cyclotomic}


INTEGRAL_SYSTEM = system_for(-3, 2, 0, 1)
fractions_ = st.fractions(min_value=-9, max_value=9, max_denominator=9)
ax_words = st.lists(st.integers(0, 1), max_size=7).map(tuple)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(ax_words, st.integers(-5, 5), max_size=4), fractions_)
def test_int_domain_commutes_with_rational_scaling(terms, c):
    p = NcPoly(AX, terms)
    assert normal_form(p.scale(c), INTEGRAL_SYSTEM) == normal_form(
        p, INTEGRAL_SYSTEM
    ).scale(c)


# -- the rescaled domain ----------------------------------------------------


def exact(c):
    return c if isinstance(c, Cyclotomic) else Fraction(c)


def reference_normal_form(poly, system, budget=None):
    """Test oracle for ``normal_form``: the same strategy in ``Fraction``
    arithmetic (``Cyclotomic`` stays as it is) over the public
    ``system.rules``, with ``scan_match`` in place of the automaton and no
    rescaling.  Returns (normal form, steps); raises
    ``ReductionBudgetExceeded`` past ``budget`` steps."""
    terms = {w: exact(c) for w, c in poly.items()}
    found = {}
    steps = 0
    while True:
        if budget is not None and steps > budget:
            raise ReductionBudgetExceeded(f"reference exceeded {budget} steps")
        for word in terms:
            if word not in found:
                found[word] = scan_match(system, word)
        reducible = [w for w in terms if found[w] is not None]
        if not reducible:
            return NcPoly(poly.alphabet, terms), steps
        word = max(reducible, key=system.order.sort_key)
        rule, pos = found[word]
        coeff = terms.pop(word)
        steps += 1
        for rword, rcoeff in rule.rhs.items():
            new_word = word[:pos] + rword + word[pos + len(rule.lhs) :]
            total = terms.get(new_word, 0) + coeff * exact(rcoeff)
            if total:
                terms[new_word] = total
            else:
                terms.pop(new_word, None)


def assert_matches_reference(poly, system):
    stats = ReductionStats()
    expected, steps = reference_normal_form(poly, system)
    assert normal_form(poly, system, stats=stats) == expected
    assert stats.steps == steps


nonzero_fractions = fractions_.filter(bool)


def draw_polynomial(draw, low, high):
    """A random g over Q of degree low..high."""
    n = draw(st.integers(low, high))
    coeffs = draw(st.lists(fractions_, min_size=n - 1, max_size=n - 1))
    return DefiningPolynomial(tuple(coeffs) + (draw(nonzero_fractions),))


def draw_rational_system(draw):
    """The system of a random g over Q of degree 2..6, and a strategy for
    inputs to it."""
    g = draw_polynomial(draw, 2, 6)
    n = g.degree
    words = st.lists(st.integers(0, 1), min_size=n - 1, max_size=n + 2).map(tuple)
    inputs = st.dictionaries(words, fractions_, min_size=1, max_size=3)
    return build_system(g).system, inputs.map(lambda terms: NcPoly(AX, terms))


@st.composite
def rational_systems_and_inputs(draw):
    system, inputs = draw_rational_system(draw)
    return system, draw(inputs)


def zeta8_quintic():
    # the system of a quintic over Q(zeta_8)
    field = CyclotomicField(8)
    half = Fraction(1, 2)
    g = DefiningPolynomial(
        (field.q, Cyclotomic(8, [half, 0, -1]), field.zero, Cyclotomic(8, [1, 0, 0, half]), 1)
    )
    return build_system(g).system


zeta8_scalars = st.lists(fractions_, min_size=4, max_size=4).map(lambda e: Cyclotomic(8, e))


@st.composite
def zeta8_systems_and_inputs(draw):
    """The system of a random g over Q(zeta_8) and an input to it with
    rational and Q(zeta_8) coefficients, which ``rescale`` maps in."""
    system = draw_zeta8_system(draw)
    n = len(system.rules) + 1
    words = st.lists(st.integers(0, 1), min_size=n - 1, max_size=n + 2).map(tuple)
    coeffs = st.one_of(fractions_, zeta8_scalars)
    return system, NcPoly(AX, draw(st.dictionaries(words, coeffs, min_size=1, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_systems_and_inputs(), zeta8_systems_and_inputs()))
@example((zeta8_quintic(), mono(A, A, X, X, X, X, A, X).scale(CyclotomicField(8).q / 3)))
def test_rescaled_reduction_matches_fraction_reference(case):
    # a Q(zeta_8) system and its input are mapped into Z[zeta_8] by the
    # rescaling (D, T), as a rational one is mapped into Z
    system, poly = case
    assert_matches_reference(poly, system)


@settings(max_examples=40, deadline=None)
@given(st.one_of(rational_systems_and_inputs(), zeta8_systems_and_inputs()))
def test_reduce_sees_and_returns_no_zero_coefficient(case):
    # _reduce skips a popped word whose coefficient is falsy without removing
    # it: sound only while no map from rescale, divide_content or the merge
    # in resolve_ambiguity holds a zero, and it stores none itself
    system, poly = case
    reduce, calls = rewrite._reduce, []

    def checked(terms, system, stats):
        assert all(terms.values())
        result = reduce(terms, system, stats)
        assert all(result.values())
        calls.append(len(result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rewrite, "_reduce", checked)
        normal_form(poly, system)
        check_confluence(system)
    assert calls


ABC = Alphabet(("a", "b", "c"))


@dataclass(frozen=True)
class Deglex:
    """Degree-lexicographic order on words, c > b > a."""

    alphabet: Alphabet

    def sort_key(self, word):
        return (len(word), word)

    def describe(self) -> str:
        return "deglex"


abc_words = st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple)
small_coefficients = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)))


DEGLEX_BUDGET = 2_000


def draw_deglex_system(draw):
    """A random rule set over three letters, oriented downhill under
    ``Deglex``: each right side is a sum of words below its left side.  One
    left side ``small`` occurs inside a right-side word of a longer left
    side ``big``, so rewrites create new occurrences of left sides.  Most
    such systems are not confluent.  The rescaling exponents are drawn too,
    so some systems reduce in the integers and others with their
    coefficients as given.  Returns the system, with step budget
    ``DEGLEX_BUDGET``, and a strategy for inputs to it."""
    small = draw(abc_words.filter(lambda w: len(w) <= 2))
    big = draw(st.lists(st.integers(0, 2), min_size=len(small) + 1, max_size=4).map(tuple))
    others = draw(st.lists(abc_words, max_size=2))
    left_sides = list(dict.fromkeys([big, small, *others]))
    rules = []
    for i, lhs in enumerate(left_sides):
        below = st.lists(st.integers(0, 2), max_size=len(lhs)).map(tuple)
        below = below.filter(lambda w, lhs=lhs: (len(w), w) < (len(lhs), lhs))
        words = draw(st.lists(below, max_size=3, unique=True))
        if lhs == big:
            pad = len(big) - 1 - len(small)
            cut = draw(st.integers(0, pad))
            fill = draw(st.lists(st.integers(0, 2), min_size=pad, max_size=pad))
            words.append(tuple(fill[:cut]) + small + tuple(fill[cut:]))
        terms = {w: draw(small_coefficients) for w in words}
        rules.append(Rule(lhs, NcPoly(ABC, terms), f"r{i}"))
    exponents = draw(st.tuples(*[st.integers(0, 2)] * 3))
    system = ReductionSystem(ABC, Deglex(ABC), rules, exponents=exponents)
    system.budget = DEGLEX_BUDGET
    # input words glued from left sides, right-side words and letters
    pieces = st.sampled_from(
        sorted({*left_sides, *(w for rule in rules for w in rule.rhs.support()), (0,), (1,), (2,)})
    )
    words = st.lists(pieces, max_size=4).map(lambda ws: sum(ws, ()))
    inputs = st.dictionaries(words, small_coefficients, min_size=1, max_size=3)
    return system, inputs.map(lambda terms: NcPoly(ABC, terms))


@st.composite
def deglex_systems_and_inputs(draw):
    system, inputs = draw_deglex_system(draw)
    return system, draw(inputs)


def deglex_system(rules, exponents=()):
    rules = [Rule(lhs, NcPoly(ABC, rhs), f"r{i}") for i, (lhs, rhs) in enumerate(rules)]
    system = ReductionSystem(ABC, Deglex(ABC), rules, exponents=exponents)
    system.budget = DEGLEX_BUDGET
    return system


def deglex_case(rules, word):
    return deglex_system(rules), NcPoly.monomial(ABC, word)


@settings(max_examples=80, deadline=None)
@given(deglex_systems_and_inputs())
# cca: ca -> bc makes cbc, whose rank-0 left side ends inside the right side
# bc, walked from the prefix state; ccc: cc -> cb makes cbc, ending in the
# suffix
@example(deglex_case([((2, 1, 2), {(0,): 1}), ((2, 0), {(1, 2): 1})], (2, 2, 0)))
@example(deglex_case([((2, 1, 2), {(0,): 1}), ((2, 2), {(2, 1): -1})], (2, 2, 2)))
def test_deglex_reduction_matches_reference(case):
    # systems that are not skew-primitive: rank 0 is found inside memoised
    # right-side walks and inside suffix walks.  Inputs that blow up are
    # skipped; the same budget stops a normal_form that does not terminate.
    system, poly = case
    try:
        expected, steps = reference_normal_form(poly, system, budget=DEGLEX_BUDGET)
    except ReductionBudgetExceeded:
        reject()
    stats = ReductionStats()
    assert normal_form(poly, system, stats=stats) == expected
    assert stats.steps == steps


# -- linearity and the S-polynomial ------------------------------------------


@st.composite
def systems_and_input_pairs(draw):
    system, inputs = draw(st.sampled_from((draw_rational_system, draw_deglex_system)))(draw)
    return system, draw(inputs), draw(inputs)


# ab -> 0, ba -> a: a b a rewrites to 0 and to a^2, so it is not confluent
TOY_NOT_CONFLUENT = deglex_system([((0, 1), {}), ((1, 0), {(0,): 1})])


@settings(max_examples=80, deadline=None)
@given(systems_and_input_pairs())
@example((TOY_NOT_CONFLUENT, NcPoly.monomial(ABC, (0, 1, 0)), NcPoly.monomial(ABC, (0, 0))))
def test_normal_form_is_linear(case):
    # what resolve_ambiguity relies on: reducing p - q once gives the
    # difference of the two normal forms, confluent system or not
    system, p, q = case
    try:
        assert normal_form(p - q, system) == normal_form(p, system) - normal_form(q, system)
    except ReductionBudgetExceeded:
        reject()


def with_extra_x(system, c):
    """``system`` with c x added to the right side of sigma_1."""
    first, *rest = system.rules
    extra = NcPoly.monomial(AX, (X,), c)
    rules = [Rule(first.lhs, first.rhs + extra, first.label), *rest]
    return ReductionSystem(AX, system.order, rules, name=system.name, exponents=(0, 1))


def not_confluent_quartic():
    """The system of g = x^4 - 2/3 x^2 + 1/2 x with 1/3 x added to the right
    side of sigma_1: still rescaled (D = 6, e(w) = #x), and not confluent."""
    return with_extra_x(system_for(Fraction(1, 2), Fraction(-2, 3), 0, 1), Fraction(1, 3))


def zeta8_not_confluent():
    """``zeta8_quintic`` with q/3 x added to the right side of sigma_1:
    rescaled (D = 6, e(w) = #x), and not confluent, with nonzero Q(zeta_8)
    differences."""
    return with_extra_x(zeta8_quintic(), Cyclotomic(8, [0, Fraction(1, 3)]))


# two letters rescaled: D = 60, e(w) = #x + 3 #y
TENSOR_TWO_LETTERS = build_tensor_presentation(
    DefiningPolynomial((Fraction(1, 2), Fraction(1, 5), 1)),
    DefiningPolynomial((Fraction(3, 4), Fraction(-1, 3), 1)),
).system
# b inside cbc: an inclusion and an overlap, rescaled by D = 6 with
# e(w) = #b + #c
INCLUSION_SYSTEM = deglex_system(
    [((2, 1, 2), {(0,): Fraction(1, 2), (1, 1): 1}), ((1,), {(0,): Fraction(1, 3)})],
    exponents=(0, 1, 1),
)
# cc -> 2 aa + 1/2, rescaled by D = 2 with e(w) = #c: the S-polynomial of
# ccc is 8 aac - 8 caa, whose content 8 = D^3 maps it back with int
# coefficients
CONTENT_SYSTEM = deglex_system([((2, 2), {(0, 0): 2, (): Fraction(1, 2)})], exponents=(0, 0, 1))


def draw_zeta8_system(draw):
    """The system of a random g over Q(zeta_8) of degree 2..5."""
    n = draw(st.integers(2, 5))
    entries = st.lists(fractions_, min_size=4, max_size=4)
    coeffs = [Cyclotomic(8, draw(entries)) for _ in range(n - 1)]
    top = draw(entries.filter(any))
    return build_system(DefiningPolynomial((*coeffs, Cyclotomic(8, top)))).system


@st.composite
def confluence_systems(draw):
    """A rational, deglex, Q(zeta_8) or four-letter tensor system."""
    kind = draw(st.sampled_from(("rational", "deglex", "zeta8", "tensor")))
    if kind == "tensor":
        g, f = draw_polynomial(draw, 2, 4), draw_polynomial(draw, 2, 4)
        return build_tensor_presentation(g, f).system
    if kind == "zeta8":
        return draw_zeta8_system(draw)
    draw_system = draw_rational_system if kind == "rational" else draw_deglex_system
    return draw_system(draw)[0]


def product_rewrites(ambiguity, system):
    """The two one-step rewrites (left, right) of A B C, built as products
    of the public rules with the monomials A and C."""
    sigma = system.rules[ambiguity.sigma]
    tau = system.rules[ambiguity.tau]
    a = NcPoly.monomial(system.alphabet, ambiguity.a)
    c = NcPoly.monomial(system.alphabet, ambiguity.c)
    if ambiguity.kind == OVERLAP:
        return sigma.rhs * c, a * tau.rhs
    return sigma.rhs, a * tau.rhs * c


def typed(poly) -> dict:
    return {w: (type(c), c) for w, c in poly.items()}


@settings(max_examples=60, deadline=None)
@given(confluence_systems())
@example(TOY_NOT_CONFLUENT)
@example(INCLUSION_SYSTEM)
@example(CONTENT_SYSTEM)
@example(TENSOR_TWO_LETTERS)
@example(zeta8_quintic())
@example(not_confluent_quartic())
@example(zeta8_not_confluent())
def test_s_polynomial_gives_the_two_normal_forms_difference(system):
    # resolve_ambiguity and left_normal build the rewrites from the reducts;
    # the reference builds both one-step rewrites from the public rules
    for ambiguity in find_ambiguities(system):
        stats, expected_stats = ReductionStats(), ReductionStats()
        left, right = product_rewrites(ambiguity, system)
        try:
            res = resolve_ambiguity(ambiguity, system, stats)
            expected = normal_form(left - right, system, expected_stats)
            left, right = normal_form(left, system), normal_form(right, system)
            left_normal = res.left_normal
        except ReductionBudgetExceeded:
            reject()
        assert typed(left_normal) == typed(left)
        assert res.difference == left - right
        assert typed(res.difference) == typed(expected)
        assert stats == expected_stats
        assert (res.verdict == RESOLVABLE) == (left == right)


def test_s_polynomial_examples_cover_their_cases():
    assert TENSOR_TWO_LETTERS.rescaling == (60, ((X, 1), (3, 3)))
    assert INCLUSION_SYSTEM.rescaling == (6, ((1, 1), (2, 1)))
    kinds = {amb.kind for amb in find_ambiguities(INCLUSION_SYSTEM)}
    assert kinds == {OVERLAP, INCLUSION}
    assert CONTENT_SYSTEM.rescaling == (2, ((2, 1),))
    (res,) = check_confluence(CONTENT_SYSTEM).resolutions
    assert typed(res.difference) == {(0, 0, 2): (int, 2), (2, 0, 0): (int, -2)}
    assert zeta8_quintic().rescaling == (2, ((X, 1),))
    system = not_confluent_quartic()
    assert system.rescaling == (6, ((X, 1),))
    assert not check_confluence(system).overall
    system = zeta8_not_confluent()
    assert system.rescaling == (6, ((X, 1),))
    assert not check_confluence(system).overall


def test_check_confluence_builds_no_polynomial_product(monkeypatch):
    rng = random.Random(3)
    while True:
        g = random_defining_polynomial(rng, 9)
        if all(g.coefficients):
            break
    rational = build_system(g).system
    assert rational.rescaling[0] > 1 and rational.rescaling[1]
    systems = [rational, zeta8_quintic(), not_confluent_quartic()]

    def product(*args):
        raise AssertionError("NcPoly product in check_confluence")

    monkeypatch.setattr(NcPoly, "__mul__", product)
    reports = [check_confluence(system) for system in systems]
    assert [report.overall for report in reports] == [True, True, False]
    for report in reports:
        normal_forms = [res.left_normal for res in report.resolutions]
        if report.overall:
            # under confluence, the normal form of the word A B C
            alphabet = report.system.alphabet
            assert normal_forms == [
                normal_form(NcPoly.monomial(alphabet, res.ambiguity.word()), report.system)
                for res in report.resolutions
            ]


@pytest.mark.parametrize("order", [3, 5, 12, 16])
def test_cyclotomic_differences_match_the_fraction_reference(order):
    # every order reduces in Z[zeta_N]; the reference reduces each
    # product-built S-polynomial over the public rules, with no rescaling
    rng = random.Random(order)
    phi = euler_phi(order)

    def residue():
        entries = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(phi)]
        return Cyclotomic(order, entries)

    confluent = build_system(DefiningPolynomial((residue(), residue(), residue(), 1))).system
    perturbed = with_extra_x(confluent, CyclotomicField(order).q / 3)
    for system in (confluent, perturbed):
        assert system.rescaling is not None
        differences = []
        for ambiguity in find_ambiguities(system):
            left, right = product_rewrites(ambiguity, system)
            res = resolve_ambiguity(ambiguity, system)
            assert res.difference == reference_normal_form(left - right, system)[0]
            differences.append(res.difference)
        assert any(differences) == (system is perturbed)


def zeta8_pair():
    """The tensor system of the Q(zeta_8) pair (q/2 x + x^2/3 + x^3 | q/5 y + y^2).
    Its curve rule y^2 -> ... holds x^3: e(w) = #x + #y would put x^3 above
    the left side, e(w) = #x + 3 #y puts it 3 steps below."""
    q = CyclotomicField(8).q
    g = DefiningPolynomial((q / 2, Fraction(1, 3), 1))
    return build_tensor_presentation(g, DefiningPolynomial((q / 5, 1))).system


def non_monic_tensor():
    # g = 3x^3 + 2/3 x^2 + 1/2 x and f = 5/2 y^2 + 1/4 y: non-monic, so the
    # sigma, tau and curve rules all carry Fractions
    g = DefiningPolynomial((Fraction(1, 2), Fraction(2, 3), 3))
    f = DefiningPolynomial((Fraction(1, 4), Fraction(5, 2)))
    return build_tensor_presentation(g, f).system


def test_zeta8_confluence_builds_no_fraction(monkeypatch):
    # a Q(zeta_8) system reduces in Z[zeta_8]: a confluent one never leaves
    # the integers, since a zero difference needs no map back; so do the
    # tensor systems of a non-monic rational pair and of a Q(zeta_8) pair
    systems = [zeta8_quintic(), build_system(same_word_quintics()[2]).system]
    assert all(system.rescaling == (2, ((X, 1),)) for system in systems)
    systems += [non_monic_tensor(), zeta8_pair()]
    assert [system.rescaling for system in systems[2:]] == [
        (90, ((X, 1), (3, 3))),
        (30, ((X, 1), (3, 3))),
    ]

    def fraction(*args, **kwargs):
        raise AssertionError("Fraction built in check_confluence")

    monkeypatch.setattr(Fraction, "__new__", fraction)
    assert all(check_confluence(system).overall for system in systems)


@settings(max_examples=80, deadline=None)
@given(confluence_systems())
@example(TOY_NOT_CONFLUENT)
def test_check_confluence_matches_reducing_every_ambiguity(system):
    # the reference reduces every S-polynomial; check_confluence reduces the
    # implied ambiguities only when some other one does not reduce to zero
    try:
        report = check_confluence(system)
        reference = [resolve_ambiguity(amb, system) for amb in find_ambiguities(system)]
    except ReductionBudgetExceeded:
        reject()
    assert [r.ambiguity for r in report.resolutions] == [r.ambiguity for r in reference]
    for res, ref in zip(report.resolutions, reference):
        assert (res.verdict, res.difference) == (ref.verdict, ref.difference)
        if res.implied_by is not None:
            assert report.overall and ref.difference.is_zero()
            index, pos = res.implied_by
            lhs = system.rules[index].lhs
            assert res.ambiguity.word()[pos : pos + len(lhs)] == lhs
    implied = sum(1 for r in report.resolutions if r.implied_by is not None)
    assert report.to_json_dict()["stats"]["implied"] == implied


def test_power_system_reduces_only_adjacent_overlaps():
    # on x^10 the overlap sigma_i/sigma_j with i - j >= 2 is linked by any
    # sigma_k with j < k < i, so only the eight sigma_(j+1)/sigma_j are reduced
    system = system_for(*((0,) * 9 + (1,)))
    report = check_confluence(system)
    assert len(report.resolutions) == 36 and report.overall
    reduced = [
        (system.rules[r.ambiguity.sigma].label, system.rules[r.ambiguity.tau].label)
        for r in report.resolutions
        if r.implied_by is None
    ]
    assert reduced == [(f"sigma_{j + 1}", f"sigma_{j}") for j in range(1, 9)]
    doc = report.to_json_dict()["stats"]
    assert (doc["implied"], doc["elementary_steps"]) == (28, 16)


def test_rational_system_reduces_in_int_rules():
    # g = x^3 - 2/3 x^2 + 1/2 x: D = 6 and e(w) = #x, the grading of
    # g~(t) = 6^3 g(t/6); the public rules stay as given, the Fractions of
    # g's lower coefficients and the int 1 of its top one
    system = system_for(Fraction(1, 2), Fraction(-2, 3), 1)
    assert system.rescaling == (6, ((X, 1),))
    assert coefficient_types(rule.rhs for rule in system.rules) == {Fraction, int}
    assert {type(c) for rhs in system._reducts.values() for _, c in rhs} == {int}
    assert scan_match(system, (A, A, X, X)) == system.match((A, A, X, X))
    assert_matches_reference(mono(A, A, X, X, A, X) - mono(X, A, A, X).scale(Fraction(5, 7)), system)
    assert check_confluence(system).overall


def test_integral_system_keeps_the_given_fractions():
    # g = x^4 - 3x^2 + 2x with Fraction(k, 1) coefficients: D = 1, so the
    # reducts hold ints, while the public rules keep the caller's Fractions
    # and render as the rules of the same g given in ints do
    given = system_for(Fraction(2), Fraction(-3), 0, Fraction(1))
    ints = system_for(2, -3, 0, 1)
    assert given.rescaling == ints.rescaling == (1, ())
    assert coefficient_types(rule.rhs for rule in given.rules) == {Fraction}
    assert {type(c) for rhs in given._reducts.values() for _, c in rhs} == {int}
    assert given.rules_json() == ints.rules_json()
    report = check_confluence(given)
    assert report.to_json_dict() == check_confluence(ints).to_json_dict()
    assert coefficient_types(res.left_normal for res in report.resolutions) == {int}
    poly = mono(A, A, X, X, A, X) - mono(X, A, A, X).scale(Fraction(5, 7))
    assert typed(normal_form(poly, given)) == typed(normal_form(poly, ints))


def test_system_without_integral_grading_keeps_its_coefficients():
    # ab -> 1/2 ba keeps both letter counts, so no exponents clear the 1/2;
    # with none given the system is not rescaled either
    AB = Alphabet(("a", "b"))
    order = GrlexPlus(AB, weight_letter=1, lex_top=0)
    rule = Rule((0, 1), NcPoly.monomial(AB, (1, 0), Fraction(1, 2)), "half")
    assert ReductionSystem(AB, order, [rule], exponents=(1, 2)).rescaling is None
    system = ReductionSystem(AB, order, [rule])
    assert system.rescaling is None
    assert system.rules == (rule,)
    word = NcPoly.monomial(AB, (0, 0, 1, 1))
    assert normal_form(word, system) == NcPoly.monomial(AB, (1, 1, 0, 0), Fraction(1, 16))
    assert_matches_reference(word - NcPoly.monomial(AB, (0, 1, 0), 3), system)


def test_cyclotomic_input_in_a_rescaled_system():
    system = system_for(Fraction(1, 2), Fraction(-2, 3), 1)
    q = CyclotomicField(8).q
    word = (A, X, A, X, X)
    assert normal_form(NcPoly.monomial(AX, word, q), system) == normal_form(
        mono(*word), system
    ).scale(q)


def oracle_reducts(system, exponents):
    """(D, reducts) from the public rules in ``Fraction`` arithmetic: D is
    the lcm of the denominators of the rules' rational entries, and each
    term c w of the rule lhs -> ... becomes c D^(e(lhs) - e(w)) w, where
    e(w) sums the ``exponents`` of the letters of w."""
    scale = 1
    for rule in system.rules:
        for _, c in rule.rhs.items():
            for entry in c.coeffs if isinstance(c, Cyclotomic) else (c,):
                scale = math.lcm(scale, Fraction(entry).denominator)

    def e(word):
        return sum(exponents[c] for c in word)

    return scale, {
        rule.lhs: tuple(
            (w, exact(c) * Fraction(scale) ** (e(rule.lhs) - e(w))) for w, c in rule.rhs.items()
        )
        for rule in system.rules
    }


def oracle_cases():
    """(system, the builder's exponents): seeded g of degree 2..9 with int,
    Fraction and non-monic tops, a Q(zeta_8) and a Q(zeta_12) g, and
    seeded rational, non-monic and Q(zeta_8) tensor pairs."""
    rng = random.Random(32)

    def fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    for n in range(2, 10):
        lower = [fraction() for _ in range(n - 1)]
        for top in (1, Fraction(1), Fraction(-7, 4), 3):
            yield build_system(DefiningPolynomial((*lower, top))).system, (0, 1)
        ints = [rng.randint(-9, 9) for _ in range(n - 1)]
        yield build_system(DefiningPolynomial((*ints, 2))).system, (0, 1)
    for order in (8, 12):
        coeffs = [Cyclotomic(order, [fraction() for _ in range(4)]) for _ in range(3)]
        # a residue with a nonzero entry is nonzero: phi(8) = phi(12) = 4
        coeffs.append(Cyclotomic(order, [Fraction(rng.randint(1, 9), 2), fraction(), 0, 1]))
        yield build_system(DefiningPolynomial(tuple(coeffs))).system, (0, 1)
    for _ in range(6):
        g, f = (
            DefiningPolynomial((*(fraction() for _ in range(rng.randint(1, 3))), top))
            for top in (rng.choice((1, 2, Fraction(-5, 3))), rng.choice((1, 3, Fraction(2, 7))))
        )
        yield build_tensor_presentation(g, f).system, (0, 1, 0, g.degree)
    yield non_monic_tensor(), (0, 1, 0, 3)
    yield zeta8_pair(), (0, 1, 0, 3)


def test_reducts_match_the_fraction_oracle():
    # every system the builders make rescales with the builder's exponents,
    # and its reducts are the oracle's values, as ints
    for system, exponents in oracle_cases():
        scale, expected = oracle_reducts(system, exponents)
        weights = tuple((c, k) for c, k in enumerate(exponents) if k) if scale > 1 else ()
        assert system.rescaling == (scale, weights)
        assert system._reducts == expected
        values = [c for rhs in system._reducts.values() for _, c in rhs]
        assert {type(k) for c in values for k in entries(c)} == {int}


def test_building_scales_each_run_of_terms_once(monkeypatch):
    # a dense degree-9 rational g: the right side of sigma_j is n - j + 2
    # runs, 52 runs for 1,012 terms, but the run of r_i has exponent n - i
    # in every rule, and the a^n run of sigma_j takes the negated value of
    # the run of r_j: one scaled_integer call per coefficient
    g = DefiningPolynomial(tuple(Fraction(i, i + 1) for i in range(1, 9)) + (Fraction(7, 3),))
    calls = []
    scaled = rewrite.scaled_integer

    def counted(*args):
        calls.append(args)
        return scaled(*args)

    monkeypatch.setattr(rewrite, "scaled_integer", counted)
    system = build_system(g).system
    assert system.rescaling == (5880, ((X, 1),))
    assert sum(len(rule.rhs.support()) for rule in system.rules) == 1_012
    assert len(calls) <= 9
    assert calls == [(-c, 5880, 9 - i) for i, c in enumerate(g.monic().coefficients, 1)]


def test_exponents_are_one_integer_per_letter():
    rule = Rule((X, X), mono(A), "down")
    order = GrlexPlus(AX, weight_letter=1, lex_top=0)
    for exponents in ((1,), (0, 1, 2), (0, -1), (0, Fraction(1, 2))):
        with pytest.raises(ValueError, match="one integer >= 0 per letter"):
            ReductionSystem(AX, order, [rule], exponents=exponents)


# -- shared rule shapes ----------------------------------------------------


def same_word_quintics():
    """Quintics with every coefficient nonzero, so their systems have the
    same rule words: integral, rescaled rational, and over Q(zeta_8)."""
    field = CyclotomicField(8)
    q, half = field.q, Fraction(1, 2)
    return [
        DefiningPolynomial((2, -1, 3, 1, 1)),
        DefiningPolynomial((half, Fraction(-2, 3), 1, Fraction(3, 4), 1)),
        DefiningPolynomial(
            (q, Cyclotomic(8, [half, 0, -1]), q**2, Cyclotomic(8, [1, 0, 0, half]), 1)
        ),
    ]


# 11, 10 and 221 steps in each quintic system
SHAPE_INPUTS = [
    mono(A, X, A, A, X, X, X, A, X),
    mono(A, A, A, X, X, X, X) - mono(X, A, X, X, X, X, A).scale(Fraction(5, 7)),
    mono(A, A, A, A, X, X, A, X, X, X),
]
SHAPE_BUDGET = 2_000


def budgeted(system):
    # a misaligned walk memo can loop: fail fast instead
    system.budget = SHAPE_BUDGET
    return system


def forget_shapes():
    """Empty the memos of rule shapes and of the families' rule words."""
    rewrite._rule_shape.cache_clear()
    presentations._family.cache_clear()


def test_systems_with_the_same_words_share_a_sound_shape():
    gs = same_word_quintics()
    # each system alone, with nothing in the memos
    alone = []
    for g in gs:
        forget_shapes()
        system = budgeted(build_system(g).system)
        alone.append([normal_form(p, system) for p in SHAPE_INPUTS])
    forget_shapes()
    systems = [budgeted(build_system(g).system) for g in gs]
    assert systems[0]._shape is systems[1]._shape is systems[2]._shape
    assert presentations._family.cache_info().currsize == 1
    assert systems[0].rescaling == (1, ()) and systems[1].rescaling[1]
    assert systems[2].rescaling == (2, ((X, 1),))
    # the systems take turns filling one walk memo
    for i, p in enumerate(SHAPE_INPUTS):
        for system, expected in zip(systems, alone):
            assert normal_form(p, system) == expected[i]
            assert normal_form(p, system) == reference_normal_form(p, system)[0]
    words = [word for p in SHAPE_INPUTS for word in p.support()]
    for word in words + [rule.lhs for rule in systems[0].rules]:
        for system in systems:
            found = system.match(word)
            assert found == scan_match(system, word)
            if found is not None:
                assert any(found[0] is own for own in system.rules)


def test_shapes_keep_the_order_of_right_side_words():
    # the same rule words, each right side listed in reverse: the walk memo
    # of the first system must not be read for the second
    system = budgeted(build_system(same_word_quintics()[1]).system)
    reversed_rules = [
        Rule(rule.lhs, NcPoly(AX, list(rule.rhs.items())[::-1]), rule.label)
        for rule in system.rules
    ]
    flipped = budgeted(ReductionSystem(AX, system.order, reversed_rules))
    for p in SHAPE_INPUTS:
        expected = reference_normal_form(p, system)[0]
        assert normal_form(p, system) == expected
        assert normal_form(p, flipped) == expected


def test_incompatible_system_names_its_own_labels():
    order = GrlexPlus(AX, weight_letter=X, lex_top=A)
    uphill = mono(X, A) + mono(A, X, X)
    for label in ("first", "second"):
        with pytest.raises(IncompatibleSystem) as caught:
            ReductionSystem(AX, order, [Rule((X, X), mono(A), "down"), Rule((A, X), uphill, label)])
        assert caught.value.violations == [(label, (A, X, X))]
        assert f"{label}: a*x^2" in str(caught.value)


def test_shape_memo_is_bounded():
    order = GrlexPlus(AX, weight_letter=X, lex_top=A)
    zero = NcPoly.zero(AX)
    for k in range(1, MEMO_SIZE + 10):
        ReductionSystem(AX, order, [Rule((A,) * k, zero, "power")])
    info = rewrite._rule_shape.cache_info()
    assert info.maxsize == MEMO_SIZE and info.currsize == MEMO_SIZE


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, make_system",
    [
        (
            "confluence_rational_deg5",
            lambda: build_system(random_defining_polynomial(random.Random(2018), 5)).system,
        ),
        ("confluence_zeta8_deg5", zeta8_quintic),
        ("confluence_power_deg7", lambda: build_system(power_poly(7)).system),
        (
            "confluence_tensor_x2_y3",
            lambda: build_tensor_presentation(power_poly(2), power_poly(3)).system,
        ),
        ("confluence_not_confluent_deg4", not_confluent_quartic),
        ("confluence_zeta8_not_confluent", zeta8_not_confluent),
    ],
)
def test_confluence_report_matches_golden(name, make_system):
    # the full report, normal-form stats included, byte for byte
    report = check_confluence(make_system())
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
