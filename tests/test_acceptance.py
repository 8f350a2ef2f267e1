"""Acceptance criteria, one test per criterion.

Exact arithmetic throughout: every comparison is equality of exact
scalars/polynomials unless a criterion states otherwise.  Each test prints
one PASS/FAIL line; randomized suites use fixed seeds so the run is
reproducible bit for bit.
"""

import random
import time
from fractions import Fraction

from diamond.analysis import (
    degree_three_centre_element,
    degree_two_identities,
    dimension_oracle,
    growth_classify,
    irreducible_census,
    is_central,
    pbw_words,
    quotient_dimension_tensor,
    random_defining_polynomial,
)
from diamond.claims import run_claim_suites
from diamond.coalgebra import (
    check_coproduct_bidegree,
    coassociativity_holds,
    coproduct,
    counit,
    counit_laws_hold,
    tensor_normal_form,
)
from diamond.freealg import NcPoly, bidegree_sum, check_splitting_identity
from diamond.presentations import (
    AX,
    DefiningPolynomial,
    build_quantum_plane,
    build_system,
    build_tensor_presentation,
    defining_relation,
    downup_relations,
    leading_filtered_part,
    rescale_letter,
)
from diamond.rewrite import check_confluence, normal_form
from diamond.scalars import CyclotomicField

A, X = 0, 1


def power_poly(n):
    return DefiningPolynomial.from_coefficients((0,) * (n - 1) + (1,))


def report(number, title, ok):
    print(f"criterion {number:02d} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_randomized_diamond_suite():
    rng = random.Random(101)
    started = time.time()
    ok = True
    for _ in range(100):
        degree = rng.randint(2, 5)
        g = random_defining_polynomial(rng, degree)
        result = check_confluence(build_system(g).system)
        expected_overlaps = (degree - 1) * (degree - 2) // 2
        if result.overlap_count != expected_overlaps:
            ok = False
        if result.inclusion_count != 0:
            ok = False
        if not result.overall:
            ok = False
    elapsed = time.time() - started
    ok = ok and elapsed < 60
    report(1, f"randomized confluence suite, {elapsed:.1f}s", ok)


def test_criterion_02_splitting_identity_suite():
    started = time.time()
    ok = all(
        check_splitting_identity("tail1", r, s)
        for r in range(9)
        for s in range(9)
        if (r, s) != (0, 0)
    )
    ok = ok and all(
        check_splitting_identity("q_tail1", r, s)
        for r in range(9)
        for s in range(1, 9)
    )
    ok = ok and all(
        check_splitting_identity(kind, r, s)
        for kind in ("tail2", "head2", "head1_tail1")
        for r in range(2, 7)
        for s in range(2, 7)
    )
    ok = ok and all(
        check_splitting_identity(kind, r, s)
        for kind in ("tail3", "head3", "head2_tail1", "head1_tail2")
        for r in range(3, 7)
        for s in range(3, 7)
    )
    elapsed = time.time() - started
    ok = ok and elapsed < 5
    report(2, f"splitting identities, {elapsed:.1f}s", ok)


def test_criterion_03_pbw_suite():
    started = time.time()
    ok = True
    for n in range(2, 6):
        system = build_system(power_poly(n)).system
        census = irreducible_census(system, 12)
        per_len = [0] * 13
        for word in pbw_words(n, 12):
            per_len[len(word)] += 1
        if per_len != census.counts:
            ok = False
    for n in (2, 3, 4):
        g = power_poly(n)
        cumulative = irreducible_census(build_system(g).system, 8).cumulative()
        for ell in range(9):
            result = dimension_oracle(g, ell)
            if not result.stable or result.dimension != cumulative[ell]:
                ok = False
    elapsed = time.time() - started
    ok = ok and elapsed < 180
    report(3, f"PBW census + dimension oracle, {elapsed:.1f}s", ok)


def test_criterion_04_centrality_suite():
    rng = random.Random(104)
    ok = True
    for _ in range(200):
        degree = rng.randint(2, 5)
        g = random_defining_polynomial(rng, degree)
        system = build_system(g).system
        an = NcPoly.monomial(AX, (A,) * degree)
        gen_x = NcPoly.generator(AX, X)
        gen_a = NcPoly.generator(AX, A)
        gp = g.monic().as_ncpoly(AX, X)
        if not normal_form(an * gen_x - gen_x * an, system).is_zero():
            ok = False
        if not normal_form(gp * gen_a - gen_a * gp, system).is_zero():
            ok = False
    for _ in range(50):
        g = random_defining_polynomial(rng, 3)
        if not is_central(degree_three_centre_element(g.monic()), build_system(g).system):
            ok = False
    field = CyclotomicField(3)
    lam = field.q
    cubic_system = build_system(power_poly(3)).system

    def mono(*letters):
        return NcPoly.monomial(AX, letters)

    xa, ax = mono(X, A), mono(A, X)
    elements = [
        mono(A, A, A),
        mono(X, X, X),
        xa ** 3 - 3 * lam ** 2 * (xa ** 2 * ax) + 3 * lam * (xa * ax ** 2) - ax ** 3,
        xa ** 3 - 3 * lam * (xa ** 2 * ax) + 3 * lam ** 2 * (xa * ax ** 2) - ax ** 3,
        ax ** 2 - mono(X, X, A, A),
    ]
    ok = ok and all(is_central(el, cubic_system) for el in elements)
    report(4, "centrality suite", ok)


def test_criterion_05_coalgebra_suite():
    rng = random.Random(105)
    ok = all(check_coproduct_bidegree(0, ell) for ell in range(9))
    ok = ok and all(
        check_coproduct_bidegree(j, t) for j in range(9) for t in range(9 - j)
    )
    tested = [
        power_poly(n) for n in (2, 3, 4, 5)
    ] + [random_defining_polynomial(rng, rng.randint(2, 5)) for _ in range(6)]
    for g in tested:
        pres = build_system(g)
        for j in range(1, g.degree):
            sigma = defining_relation(g.monic(), j)
            if counit(sigma) != 0:
                ok = False
            if not tensor_normal_form(coproduct(sigma), pres.system).is_zero():
                ok = False
    for _ in range(10):
        terms = {
            tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6))): Fraction(
                rng.randint(-4, 4), rng.randint(1, 4)
            )
            for _ in range(4)
        }
        p = NcPoly(AX, terms)
        if not coassociativity_holds(p) or not counit_laws_hold(p):
            ok = False
    report(5, "coalgebra suite", ok)


def test_criterion_06_quantum_plane_suite():
    ok = True
    for n in range(2, 9):
        system = build_quantum_plane(n)
        for j in range(1, n):
            if not normal_form(bidegree_sum(AX, j, n - j), system).is_zero():
                ok = False
    report(6, "root-of-unity plane suite", ok)


def test_criterion_07_small_degree_structure():
    rng = random.Random(107)
    ok = True
    for _ in range(20):
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        anticommute, _, _ = degree_two_identities(r, 0)
        if not anticommute:
            ok = False
    x3 = power_poly(3)
    renamed = [
        NcPoly(AX, dict(p.items()))
        for p in downup_relations(Fraction(-1), Fraction(-1), Fraction(0))
    ]
    if renamed[0] != defining_relation(x3, 2) or renamed[1] != defining_relation(x3, 1):
        ok = False
    weights = {A: 1, X: 2}
    for _ in range(50):
        g = random_defining_polynomial(rng, 3)
        for j in (1, 2):
            if leading_filtered_part(defining_relation(g.monic(), j), weights) != defining_relation(x3, j):
                ok = False
    report(7, "small-degree structure", ok)


def test_criterion_08_growth_dichotomy():
    ok = True
    for n, kind, exponent in (
        (2, "polynomial", 2),
        (3, "polynomial", 3),
        (4, "exponential", None),
        (5, "exponential", None),
    ):
        census = irreducible_census(build_system(power_poly(n)).system, 12)
        cls = growth_classify(census)
        if cls.kind != kind or (exponent is not None and cls.exponent != exponent):
            ok = False
    report(8, "growth dichotomy", ok)


def test_criterion_09_rescaling():
    rng = random.Random(109)
    ok = True
    for _ in range(100):
        degree = rng.randint(2, 5)
        g = random_defining_polynomial(rng, degree)
        lam = Fraction(0)
        while not lam:
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        j = rng.randint(1, degree - 1)
        if rescale_letter(defining_relation(g, j), lam, X) != defining_relation(
            g.rescaled(lam), j
        ).scale(lam ** (-j)):
            ok = False
    report(9, "rescaling equivariance", ok)


def test_criterion_10_named_curves():
    rng = random.Random(110)
    ok = True

    # quartic even curve over the order-8 cyclotomic field: four relations
    field = CyclotomicField(8)
    lam2 = field.q ** 2
    g_lem = DefiningPolynomial((field.zero, lam2, field.zero, field.one))
    f_sq = DefiningPolynomial.from_coefficients((0, 1))
    lem = build_tensor_presentation(g_lem, f_sq)
    alphabet = lem.alphabet
    a, x, b, y = 0, 1, 2, 3

    def tmono(*letters):
        return NcPoly.monomial(alphabet, letters)

    if lem.relation("tau_1") != tmono(b, y) + tmono(y, b):
        ok = False
    if lem.relation("sigma_1") != bidegree_sum(alphabet, 1, 3, (a, x)) + bidegree_sum(
        alphabet, 1, 1, (a, x)
    ).scale(lam2):
        ok = False
    if lem.relation("sigma_2") != bidegree_sum(alphabet, 2, 2, (a, x)) + tmono(
        a, a
    ).scale(lam2) - tmono(a, a, a, a).scale(lam2):
        ok = False
    if lem.relation("sigma_3") != bidegree_sum(alphabet, 3, 1, (a, x)):
        ok = False

    # nodal cubic first relation
    nodal = build_tensor_presentation(
        DefiningPolynomial.from_coefficients((0, 1, 1)), f_sq
    )
    if nodal.relation("sigma_1") != bidegree_sum(
        nodal.alphabet, 1, 1, (a, x)
    ) + bidegree_sum(nodal.alphabet, 1, 2, (a, x)):
        ok = False

    # tensor-square identity for 20 random parameter pairs
    for _ in range(20):
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        anticommute, identity, _ = degree_two_identities(r, s)
        if not (identity and anticommute):
            ok = False

    # report-only verdicts are emitted and never fail the run
    claims = {c["id"]: c for c in run_claim_suites(["named-curves"], seed=110)}
    for cid in (
        "nodal-second-relation-diff",
        "power-chain-membership",
        "quadratic-tensor-identity-displayed-variant",
    ):
        if claims[cid]["verdict"] != "report-only":
            ok = False
    if claims["nodal-second-relation-diff"]["witness"]["difference"] != "2*a^2":
        ok = False
    if claims["power-chain-membership"]["witness"]["entries"][0]["normal_form"] != "x^2*a":
        ok = False
    report(10, "named curves", ok)


def test_criterion_11_tensor_quotient():
    ok = True
    g = DefiningPolynomial.from_coefficients((0, 1))
    for f_coeffs in ((0, 1), (0, 0, 1)):
        f = DefiningPolynomial.from_coefficients(f_coeffs)
        result = quotient_dimension_tensor(g, f, 6)
        # agreement expected; a mismatch must carry the first disagreeing
        # degree as a structured diagnostic rather than crash
        if not result.ok:
            if not isinstance(result.first_mismatch, int):
                ok = False
            ok = False
        if result.rank_dimensions != result.census_dimensions:
            ok = False
    report(11, "tensor quotient census", ok)
