import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamond.freealg import Alphabet, NcPoly, bidegree_sum
from diamond.presentations import (
    AX,
    DefiningPolynomial,
    Presentation,
    _filled,
    _relation_terms,
    _skew_primitive_rules,
    build_quantum_plane,
    build_system,
    build_tensor_presentation,
    defining_relation,
    downup_relations,
    leading_filtered_part,
    rescale_letter,
    tensor_alphabet,
)
from diamond.rewrite import ReductionSystem, Rule, normal_form
from diamond.scalars import Cyclotomic, CyclotomicField

A, X = 0, 1


def mono(*letters):
    return NcPoly.monomial(AX, letters)


def test_defining_polynomial_validation():
    with pytest.raises(ValueError):
        DefiningPolynomial(())
    with pytest.raises(ValueError):
        DefiningPolynomial((Fraction(1), Fraction(0)))
    g = DefiningPolynomial.from_coefficients((2, 0, 4))
    assert g.degree == 3 and g.coefficient(2) == 0 and g.coefficient(7) == 0
    assert g.monic().coefficients == (Fraction(1, 2), Fraction(0), Fraction(1))
    assert g.render() == "4*x^3 + 2*x"


def test_defining_polynomial_render():
    g = DefiningPolynomial((-1, Fraction(1, 2), 0, Fraction(-3, 4), 1))
    assert g.render() == "x^5 - 3/4*x^4 + 1/2*x^2 - x"
    q = CyclotomicField(8).q
    assert DefiningPolynomial((q, 0, 1 - q**3)).render("y") == "(-q^3+1)*y^3 + (q)*y"
    # Q(zeta_8) entries with rational residues render as rationals
    rational = DefiningPolynomial(
        tuple(Cyclotomic(8, [c]) for c in (-1, Fraction(2, 3), -1))
    )
    assert rational.render() == "-x^3 + 2/3*x^2 - x"


def test_int_coefficients_divide_exactly():
    # an int top coefficient other than 1 divides as a Fraction, never as a
    # float, in monic and in the curve rule of f = 2y^2
    g = DefiningPolynomial((1, 2))
    assert [type(c) for c in g.monic().coefficients] == [Fraction, Fraction]
    assert g.monic().coefficients == (Fraction(1, 2), Fraction(1))
    pres = build_tensor_presentation(DefiningPolynomial((0, 1)), DefiningPolynomial((0, 2)))
    curve_rule = next(r for r in pres.system.rules if r.label == "curve")
    assert curve_rule.rhs == NcPoly.monomial(pres.alphabet, (1, 1), Fraction(1, 2))
    assert {type(c) for _, c in curve_rule.rhs.items()} == {Fraction}


def coefficient_types(polys) -> set:
    return {type(c) for poly in polys for _, c in poly.items()}


def test_integral_builders_keep_int():
    # x^3 + 2x and x^2 | y^3 keep the caller's ints: no Fraction is built
    g = DefiningPolynomial.from_coefficients((2, 0, 1))
    assert {type(c) for c in g.coefficients} == {int}
    assert g.coefficient(5) == 0 and type(g.coefficient(5)) is int
    pres = build_system(g)
    assert coefficient_types(poly for _, poly in pres.relations) == {int}
    assert coefficient_types(rule.rhs for rule in pres.system.rules) == {int}
    tensor = build_tensor_presentation(
        DefiningPolynomial.from_coefficients((0, 1)),
        DefiningPolynomial.from_coefficients((0, 0, 1)),
    )
    assert coefficient_types(poly for _, poly in tensor.relations) == {int}
    assert coefficient_types(rule.rhs for rule in tensor.system.rules) == {int}


def test_relation_degree_two():
    g = DefiningPolynomial.from_coefficients((3, 1))
    sigma = defining_relation(g, 1)
    expected = mono(A, X) + mono(X, A) + mono(A).scale(Fraction(3)) - mono(A, A).scale(
        Fraction(3)
    )
    assert sigma == expected
    with pytest.raises(ValueError):
        defining_relation(g, 2)


def test_relation_degree_three():
    g = DefiningPolynomial.from_coefficients((0, 5, 1))
    sigma2 = defining_relation(g, 2)
    expected = (
        mono(A, A, X)
        + mono(A, X, A)
        + mono(X, A, A)
        + mono(A, A).scale(Fraction(5))
        - mono(A, A, A).scale(Fraction(5))
    )
    assert sigma2 == expected


def test_relation_quartic_even():
    field = CyclotomicField(8)
    lam2 = field.q ** 2
    g = DefiningPolynomial((field.zero, lam2, field.zero, field.one))
    assert defining_relation(g, 3) == bidegree_sum(AX, 3, 1)


def textbook_relation(g, j):
    """sum_{i=j}^{n} r_i P(j, i - j) - r_j a^n in NcPoly arithmetic, with each
    P(j, k) written out as the words of {a, x}^(j+k) with j letters a."""
    n = g.degree
    total = NcPoly.zero(AX)
    for i in range(j, n + 1):
        words = [w for w in product((A, X), repeat=i) if w.count(A) == j]
        total = total + g.coefficient(i) * NcPoly(AX, {w: 1 for w in words})
    return total - g.coefficient(j) * NcPoly.monomial(AX, (A,) * n)


ZETA8 = CyclotomicField(8).q
integral_g = st.tuples(
    st.lists(st.integers(-4, 4), min_size=1, max_size=6), st.integers(-4, 4).filter(bool)
).map(lambda t: DefiningPolynomial.from_coefficients((*t[0], t[1])))
rational_g = st.tuples(
    st.lists(st.fractions(-4, 4, max_denominator=3), min_size=1, max_size=6),
    st.fractions(-4, 4, max_denominator=3).filter(bool),
).map(lambda t: DefiningPolynomial.from_coefficients((*t[0], t[1])))
zeta8_g = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(0, 7)), min_size=2, max_size=7
).filter(lambda cs: cs[-1][0]).map(
    lambda cs: DefiningPolynomial(tuple(c * ZETA8**e for c, e in cs))
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(integral_g, rational_g, zeta8_g))
def test_defining_relation_matches_textbook_formula(g):
    integral = all(type(c) is int for c in g.coefficients)
    for j in range(1, g.degree):
        sigma = defining_relation(g, j)
        expected = textbook_relation(g, j)
        assert sigma == expected
        assert {w: type(c) for w, c in sigma.items()} == {
            w: type(c) for w, c in expected.items()
        }
        if integral:
            # g keeps its ints, so an integral g gives int relations
            assert all(type(c) is int for _, c in sigma.items())


def check_read_off_rules(pres):
    # each relation is its rule's lhs - rhs, in rule order
    assert [label for label, _ in pres.relations] == [rule.label for rule in pres.system.rules]
    for (_, relation), rule in zip(pres.relations, pres.system.rules):
        assert relation == NcPoly.monomial(pres.alphabet, rule.lhs) - rule.rhs


def check_skew_family(pres, name, g, letters):
    # name_j is defining_relation(g.monic(), j) in the letters ``letters``,
    # in value and in the type of every coefficient
    for j in range(1, g.degree):
        relation = pres.relation(f"{name}_{j}")
        expected = {
            tuple(letters[c] for c in w): c for w, c in defining_relation(g.monic(), j).items()
        }
        assert dict(relation.items()) == expected
        assert {w: type(c) for w, c in relation.items()} == {
            w: type(c) for w, c in expected.items()
        }


@settings(max_examples=40, deadline=None)
@given(st.one_of(integral_g, rational_g, zeta8_g))
def test_relations_are_read_off_the_rules(g):
    pres = build_system(g)
    check_read_off_rules(pres)
    check_skew_family(pres, "sigma", g, (A, X))


def draw_g(rng, degree):
    kind = rng.choice(("int", "fraction", "zeta8"))
    coeffs = [rng.choice((0, 1, -2, 3)) for _ in range(degree - 1)] + [rng.choice((1, -1, 2, 3))]
    if kind == "fraction":
        coeffs = [Fraction(c, rng.randint(1, 4)) for c in coeffs]
    elif kind == "zeta8":
        coeffs = [c * ZETA8 ** rng.randint(0, 7) for c in coeffs]
    return DefiningPolynomial(tuple(coeffs))


def test_tensor_relations_are_read_off_the_rules():
    rng = random.Random(33)
    a, x, b, y = 0, 1, 2, 3
    for _ in range(12):
        g, f = draw_g(rng, rng.randint(2, 4)), draw_g(rng, rng.randint(2, 3))
        pres = build_tensor_presentation(g, f)
        check_read_off_rules(pres)
        check_skew_family(pres, "sigma", g, (a, x))
        check_skew_family(pres, "tau", f, (b, y))

        def tmono(*letters):
            return NcPoly.monomial(pres.alphabet, letters)

        for label, (u, v) in (("comm_ya", (y, a)), ("comm_yx", (y, x)),
                              ("comm_ba", (b, a)), ("comm_bx", (b, x))):
            assert list(pres.relation(label).items()) == [((u, v), 1), ((v, u), -1)]
        assert pres.relation("group") == tmono(*(b,) * f.degree) - tmono(*(a,) * g.degree)
        # the curve relation is -1/s_m times g(x) - f(y): the same ideal
        sm = f.coefficients[-1]
        assert pres.relation("curve").scale(-sm) == (
            g.as_ncpoly(pres.alphabet, x) - f.as_ncpoly(pres.alphabet, y)
        )


def summed_relation(g, j, alphabet, pair):
    """The relation sigma_j as built from whole bidegree sums: each
    ``bidegree_sum(j, i - j).support()`` with coefficient r_i, then
    -r_j a^n, cleaned by ``NcPoly``."""
    n = g.degree
    terms = {}
    for i in range(j, n + 1):
        c = g.coefficient(i)
        if c:
            terms.update(dict.fromkeys(bidegree_sum(alphabet, j, i - j, pair).support(), c))
    if g.coefficient(j):
        terms[(pair[0],) * n] = -g.coefficient(j)
    return NcPoly(alphabet, terms)


def test_relations_and_rules_match_the_summed_construction():
    # the rule right side -(sigma_j - lhs) and defining_relation, dict order
    # too; the relations, read off the rules, as polynomials
    rng = random.Random(23)
    for n in range(2, 10):
        for _ in range(3):
            coeffs = [rng.choice((0, 0, 1, -2, Fraction(1, 3), Fraction(-5, 2))) for _ in range(n)]
            g = DefiningPolynomial((*coeffs[:-1], Fraction(rng.randint(1, 4), rng.randint(1, 3))))
            gm = g.monic()
            tensor = build_tensor_presentation(DefiningPolynomial((0, 1)), g)
            cases = [
                (AX, (A, X), build_system(g).relations),
                (tensor.alphabet, (2, 3), [(lb, p) for lb, p in tensor.relations if lb[:3] == "tau"]),
            ]
            for alphabet, pair, relations in cases:
                rules = _skew_primitive_rules(gm, "r", alphabet, pair)
                for j in range(1, n):
                    old = summed_relation(gm, j, alphabet, pair)
                    if alphabet == AX:
                        assert list(defining_relation(gm, j).items()) == list(old.items())
                    assert relations[j - 1][1] == old
                    lhs = rules[j - 1].lhs
                    expected = [(w, -c) for w, c in old.items() if w != lhs]
                    assert list(rules[j - 1].rhs.items()) == expected
    g = DefiningPolynomial((1, 2, 1))
    for j in (0, 3):
        with pytest.raises(ValueError):
            defining_relation(g, j)
    with pytest.raises(ValueError):
        build_system(g, Alphabet(("a",)))
    for pair in ((A, A), (A, 2)):
        with pytest.raises(ValueError):
            _skew_primitive_rules(g.monic(), "r", AX, pair)


def test_build_system_rules():
    pres = build_system(DefiningPolynomial.from_coefficients((0, 1)))
    assert len(pres.system.rules) == 1
    rule = pres.system.rules[0]
    assert rule.lhs == (A, X) and rule.rhs == -mono(X, A)

    nodal = build_system(DefiningPolynomial.from_coefficients((0, 1, 1)))
    sigma1_rule = nodal.system.rules[0]
    assert sigma1_rule.lhs == (A, X, X)
    assert sigma1_rule.rhs == -mono(X, A, X) - mono(X, X, A) - mono(A, X) - mono(X, A)

    cubic = build_system(DefiningPolynomial.from_coefficients((0, 0, 1)))
    assert [r.lhs for r in cubic.system.rules] == [(A, X, X), (A, A, X)]
    assert cubic.system.rules[0].rhs == -mono(X, A, X) - mono(X, X, A)


def test_build_system_normalizes_monic():
    doubled = build_system(DefiningPolynomial.from_coefficients((0, 2)))
    plain = build_system(DefiningPolynomial.from_coefficients((0, 1)))
    assert doubled.system.rules[0].rhs == plain.system.rules[0].rhs
    assert doubled.metadata["scale"] == 2


def test_lhs_family_random():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 5)
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)
        ] + [Fraction(1)]
        pres = build_system(DefiningPolynomial.from_coefficients(coeffs))
        assert {r.lhs for r in pres.system.rules} == {
            (A,) * j + (X,) * (n - j) for j in range(1, n)
        }


def test_degenerate_degree_rejected():
    with pytest.raises(ValueError):
        build_system(DefiningPolynomial.from_coefficients((1,)))


def test_builders_render_g_only_when_read(monkeypatch):
    # verify never reads a system's name or its metadata, so the builders
    # leave g unrendered; a read renders the same bytes
    calls = []
    render = DefiningPolynomial.render

    def counted(self, name="x"):
        calls.append(name)
        return render(self, name)

    monkeypatch.setattr(DefiningPolynomial, "render", counted)
    g = DefiningPolynomial((Fraction(1, 2), 0, 2))
    f = DefiningPolynomial((Fraction(-1, 3), 1))
    single, pair = build_system(g), build_tensor_presentation(g, f)
    assert calls == []
    assert single.system.describe() == "Sigma[x^3 + 1/4*x]"
    assert single.metadata["defining_polynomial"] == "x^3 + 1/4*x"
    assert pair.system.describe() == "A[2*x^3 + 1/2*x | y^2 - 1/3*y]"
    assert (pair.metadata["g"], pair.metadata["f"]) == ("2*x^3 + 1/2*x", "y^2 - 1/3*y")
    assert pair.metadata["degrees"] == (3, 2)


def test_builders_state_rules_only(monkeypatch):
    # a builder fills each skew rule from its family once and builds no
    # relation: the relations are read off the rules when first read
    calls = []

    def counted(words, *args):
        calls.append(words.lhs)
        return _filled(words, *args)

    monkeypatch.setattr("diamond.presentations._filled", counted)
    g = DefiningPolynomial((Fraction(1, 2), 0, 2))
    f = DefiningPolynomial((Fraction(-1, 3), 1))
    single, pair = build_system(g), build_tensor_presentation(g, f)
    fills = [(A, X, X), (A, A, X), (A, X, X), (A, A, X), (2, 3)]
    assert calls == fills
    assert "relations" not in vars(single) and "relations" not in vars(pair)
    assert [label for label, _ in single.relations] == ["sigma_1", "sigma_2"]
    assert len(pair.relations) == 9 and calls == fills


def typed(items) -> list:
    return [(w, c, type(c)) for w, c in items]


def summed_system(pres, families, exponents):
    """The system of ``pres`` rebuilt from rules that no family filled: the
    right side of each rule of ``families`` ({label prefix: (monic g, letter
    pair)}) from ``_relation_terms``, every other rule as given."""
    system = pres.system
    rules = []
    for rule in system.rules:
        prefix, _, j = rule.label.partition("_")
        if prefix in families:
            gm, pair = families[prefix]
            rhs = _relation_terms(tuple(-c for c in gm.coefficients), int(j), pair)
            del rhs[rule.lhs]
            rule = Rule(rule.lhs, NcPoly(pres.alphabet, rhs), rule.label)
        else:
            rule = Rule(rule.lhs, rule.rhs, rule.label)
        rules.append(rule)
    return ReductionSystem(pres.alphabet, system.order, rules, name=system.name, exponents=exponents)


def assert_same_system(pres, summed):
    system = pres.system
    assert [(r.lhs, r.label, typed(r.rhs.items())) for r in system.rules] == [
        (r.lhs, r.label, typed(r.rhs.items())) for r in summed.rules
    ]
    assert {lhs: typed(row) for lhs, row in system._reducts.items()} == {
        lhs: typed(row) for lhs, row in summed._reducts.items()
    }
    assert list(system._reducts) == list(summed._reducts)
    assert system.rescaling == summed.rescaling
    assert system.name == summed.name
    assert pres.relations == Presentation(summed).relations


def support_cases(n):
    """For each support of r_1..r_(n-1), a monic int g, a non-monic rational
    g and a g over Q(zeta_8), all with those nonzero r_i."""
    field = CyclotomicField(8)
    q = field.q
    for support in product((False, True), repeat=n - 1):
        ints = [(-1) ** i * (i + 2) if on else 0 for i, on in enumerate(support)]
        rationals = [Fraction(k, i + 2) for i, k in enumerate(ints)]
        residues = [Cyclotomic(8, [Fraction(1, 2), k]) * q**i if k else field.zero
                    for i, k in enumerate(ints)]
        yield support, [
            DefiningPolynomial((*ints, 1)),
            DefiningPolynomial((*rationals, Fraction(3, 2))),
            DefiningPolynomial((*residues, q + 1)),
        ]


def test_family_fills_equal_the_summed_construction():
    # every support pattern of degrees 2..7 in int, Fraction and Q(zeta_8):
    # rules in term order, reducts with their types, rescaling, name and
    # relations equal those of the rules summed by _relation_terms; the
    # systems of one support share one shape
    rescalings = set()
    for n in range(2, 8):
        for support, gs in support_cases(n):
            systems = []
            for g in gs:
                pres = build_system(g)
                gm = g.monic()
                summed = summed_system(pres, {"sigma": (gm, (A, X))}, (0, 1))
                assert_same_system(pres, summed)
                assert pres.relations == [
                    (f"sigma_{j}", defining_relation(gm, j)) for j in range(1, n)
                ]
                systems.append(pres.system)
                rescalings.add(pres.system.rescaling is not None and pres.system.rescaling[0] > 1)
            assert systems[0]._shape is systems[1]._shape is systems[2]._shape, support
    # both the rescaled and the unscaled way were taken
    assert rescalings == {False, True}


def test_tensor_family_fills_equal_the_summed_construction():
    q = CyclotomicField(8).q
    pairs = [
        ((0, 1), (0, 1)),
        ((Fraction(1, 2), 0, 2), (Fraction(-1, 3), 1)),
        ((1, 0, Fraction(2, 3), 1), (0, 5, 0, Fraction(7, 2))),
        ((q, 0, 1), (1, q**2, 3)),
    ]
    for gc, fc in pairs:
        g, f = DefiningPolynomial(gc), DefiningPolynomial(fc)
        pres = build_tensor_presentation(g, f)
        families = {"sigma": (g.monic(), (0, 1)), "tau": (f.monic(), (2, 3))}
        assert_same_system(pres, summed_system(pres, families, (0, 1, 0, g.degree)))


def test_rescaling():
    g = DefiningPolynomial.from_coefficients((1, 1))
    lam = Fraction(2)
    left = rescale_letter(defining_relation(g, 1), lam, X)
    right = defining_relation(g.rescaled(lam), 1).scale(Fraction(1, 2))
    assert left == right
    assert g.rescaled(lam).coefficients == (Fraction(2), Fraction(4))

    p = mono(X, X, X)
    assert rescale_letter(p, Fraction(3), X) == p.scale(Fraction(27))
    q = mono(A, X) - mono(X, A)
    assert rescale_letter(q, Fraction(1), X) == q
    with pytest.raises(ValueError):
        rescale_letter(p, Fraction(0), X)


def test_quantum_plane():
    sys2 = build_quantum_plane(2)
    rule = sys2.rules[0]
    assert rule.lhs == (X, A)
    assert rule.rhs == mono(A, X).scale(CyclotomicField(2).q)
    assert CyclotomicField(2).q == -1

    sys3 = build_quantum_plane(3)
    assert normal_form(bidegree_sum(AX, 1, 2), sys3).is_zero()
    sys4 = build_quantum_plane(4)
    assert normal_form(bidegree_sum(AX, 2, 2), sys4).is_zero()
    # but the Gaussian binomial does not vanish away from the right order
    assert not normal_form(bidegree_sum(AX, 1, 2), sys4).is_zero()


def test_downup_relations():
    rels = downup_relations(Fraction(-1), Fraction(-1), Fraction(0))
    du = rels[0].alphabet
    d, u = 0, 1

    def dm(*letters):
        return NcPoly.monomial(du, letters)

    assert rels[0] == dm(d, d, u) + dm(d, u, d) + dm(u, d, d)
    assert rels[1] == dm(d, u, u) + dm(u, d, u) + dm(u, u, d)

    x3 = DefiningPolynomial.from_coefficients((0, 0, 1))
    renamed = [NcPoly(AX, dict(r.items())) for r in rels]
    assert renamed[0] == defining_relation(x3, 2)
    assert renamed[1] == defining_relation(x3, 1)

    rels2 = downup_relations(Fraction(0), Fraction(1), Fraction(0))
    assert rels2[0] == dm(d, d, u) - dm(u, d, d)
    assert rels2[1] == dm(d, u, u) - dm(u, u, d)


def test_leading_filtered_part():
    g = DefiningPolynomial.from_coefficients((Fraction(5), Fraction(-3), Fraction(1)))
    weights = {A: 1, X: 2}
    x3 = DefiningPolynomial.from_coefficients((0, 0, 1))
    assert leading_filtered_part(defining_relation(g, 1), weights) == defining_relation(x3, 1)
    assert leading_filtered_part(defining_relation(g, 2), weights) == defining_relation(x3, 2)
    homogeneous = bidegree_sum(AX, 2, 1)
    assert leading_filtered_part(homogeneous, weights) == homogeneous


def test_tensor_presentation_squares():
    g = DefiningPolynomial.from_coefficients((0, 1))
    f = DefiningPolynomial.from_coefficients((0, 1))
    pres = build_tensor_presentation(g, f)
    a, x, b, y = 0, 1, 2, 3

    def tmono(*letters):
        return NcPoly.monomial(pres.alphabet, letters)

    rules = {rule.lhs: rule.rhs for rule in pres.system.rules}
    assert rules[(a, x)] == -tmono(x, a)
    assert rules[(b, y)] == -tmono(y, b)
    assert rules[(y, a)] == tmono(a, y)
    assert rules[(y, x)] == tmono(x, y)
    assert rules[(b, a)] == tmono(a, b)
    assert rules[(b, x)] == tmono(x, b)
    assert rules[(b, b)] == tmono(a, a)
    assert rules[(y, y)] == tmono(x, x)
    assert len(rules) == 8


def test_tensor_presentation_scales_curve():
    g = DefiningPolynomial.from_coefficients((0, 1))
    f = DefiningPolynomial.from_coefficients((0, 2))  # 2 y^2
    pres = build_tensor_presentation(g, f)
    y = 3
    curve_rule = next(r for r in pres.system.rules if r.label == "curve")
    assert curve_rule.lhs == (y, y)
    assert curve_rule.rhs == NcPoly.monomial(pres.alphabet, (1, 1), Fraction(1, 2))


def test_tensor_presentation_nodal_relations():
    g = DefiningPolynomial.from_coefficients((0, 1, 1))
    f = DefiningPolynomial.from_coefficients((0, 1))
    pres = build_tensor_presentation(g, f)
    a, x, b, y = 0, 1, 2, 3

    def tmono(*letters):
        return NcPoly.monomial(pres.alphabet, letters)

    assert pres.relation("tau_1") == tmono(b, y) + tmono(y, b)
    assert pres.relation("group") == tmono(b, b) - tmono(a, a, a)
    # the curve rule's relation, monic in y^2
    assert pres.relation("curve") == tmono(y, y) - tmono(x, x, x) - tmono(x, x)
    assert pres.relation("sigma_1") == bidegree_sum(
        pres.alphabet, 1, 1, (a, x)
    ) + bidegree_sum(pres.alphabet, 1, 2, (a, x))
