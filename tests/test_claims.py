"""The claim registry: every suite is called as ``suite(seed)``, and each
claim's verdict and witness come from its own cases, the first failing
case being the witness."""

import inspect
import operator
import random
from fractions import Fraction

import pytest

from diamond import claims, rewrite
from diamond.analysis import commutator, degree_three_centre_element, random_defining_polynomial
from diamond.freealg import NcPoly
from diamond.presentations import AX, DefiningPolynomial, Presentation, build_system
from diamond.rewrite import (
    ConfluenceReport,
    ReductionSystem,
    Rule,
    check_confluence,
    find_ambiguities,
    normal_form,
    resolve_ambiguity,
)
from diamond.scalars import Batch, component


def by_id(entries) -> dict:
    return {c["id"]: c for c in entries}


def test_every_suite_takes_exactly_the_seed():
    for name, suite in claims.SUITES.items():
        assert inspect.isfunction(suite), name
        params = list(inspect.signature(suite).parameters.values())
        assert [(p.name, p.kind, p.default) for p in params] == [
            ("seed", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
        ], name


def test_claim_stops_at_the_first_failure():
    read = []

    def failures():
        for case in range(3):
            read.append(case)
            yield {"case": case}

    failed = claims._claim("c", "s", failures(), {"samples": 3})
    assert (failed["verdict"], failed["witness"], read) == ("fail", {"case": 0}, [0])
    passed = claims._claim("c", "s", iter(()), {"samples": 3})
    assert (passed["verdict"], passed["witness"]) == ("pass", {"samples": 3})


def test_failing_cubic_leaves_the_core_centrality_claim_alone(monkeypatch):
    # x is not central, so every sampled cubic fails
    monkeypatch.setattr(claims, "degree_three_centre_element", lambda g: NcPoly.generator(AX, 1))
    got = by_id(claims.run_claim_suites(["centrality"]))
    assert got["centre-cubic-deformed"]["verdict"] == "fail"
    assert list(got["centre-cubic-deformed"]["witness"]) == ["g"]
    assert got["centre-group-and-curve"]["verdict"] == "pass"
    assert got["centre-group-and-curve"]["witness"] == {"samples": 200}


def test_failing_census_leaves_the_resolvability_claim_alone(monkeypatch):
    monkeypatch.setattr(ConfluenceReport, "overlap_count", property(lambda self: -1))
    got = by_id(claims.run_claim_suites(["diamond"]))
    assert got["diamond-ambiguity-census"]["verdict"] == "fail"
    assert got["diamond-ambiguity-census"]["witness"]["overlaps"] == -1
    assert got["diamond-resolvable"]["verdict"] == "pass"
    assert got["diamond-resolvable"]["witness"] == {"samples": 100}


def recorded_draws(monkeypatch, names, seed) -> list:
    """The g that each suite of ``names`` draws at ``seed``, in draw order."""
    drawn = []

    def recording(rng, degree):
        drawn[-1].append(random_defining_polynomial(rng, degree))
        return drawn[-1][-1]

    monkeypatch.setattr(claims, "random_defining_polynomial", recording)
    for name in names:
        drawn.append([])
        claims.run_claim_suites([name], seed=seed)
    return drawn


@pytest.mark.parametrize("seed", [0, 7, 1, 2024])
def test_pbw_draws_its_polynomials_from_the_seed(monkeypatch, seed):
    # pbw drew from random.Random(seed), as the diamond suite does, so its
    # 5 g were the diamond suite's first 5; the check is by position, as in
    # the centrality test below
    diamond, pbw = recorded_draws(monkeypatch, ("diamond", "pbw"), seed)
    rng = random.Random(f"pbw:{seed}")
    assert pbw == [random_defining_polynomial(rng, rng.randint(2, 5)) for _ in range(5)]
    assert not any(map(operator.eq, diamond, pbw))


@pytest.mark.parametrize("seed", [0, 7, 1, 2024])
def test_rescaling_draws_its_polynomials_from_its_own_stream(monkeypatch, seed):
    # rescaling also drew from random.Random(seed), so its first g was the
    # diamond suite's first; later ones differ anyway, as rescaling draws a
    # lambda and a j between its g (a later g can still repeat by chance:
    # one did at seed 2024)
    diamond, rescaling = recorded_draws(monkeypatch, ("diamond", "rescaling"), seed)
    rng = random.Random(f"rescaling:{seed}")
    assert len(rescaling) == 100
    assert rescaling[0] == random_defining_polynomial(rng, rng.randint(2, 5))
    assert rescaling[0] != diamond[0]


def test_claim_suites_share_automata_across_systems(monkeypatch):
    # the 113 systems of the suites have 17 rule shapes and build 15
    # automata: one per shape that matches, not one per system (the
    # suites built 447 before shapes were shared, and 474 systems before
    # the sampled g of one degree were checked as one batched system)
    built = []
    init = rewrite.ObstructionAutomaton.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    rewrite._rule_shape.cache_clear()
    monkeypatch.setattr(rewrite.ObstructionAutomaton, "__init__", counting)
    claims.run_claim_suites(seed=1)
    assert 0 < len(built) <= 30


@pytest.mark.parametrize("seed", [1, 2024, 7])
def test_centrality_does_not_redraw_the_diamond_samples(monkeypatch, seed):
    # both suites drew from random.Random(seed), so centrality's first 100 g
    # were the diamond suite's 100, position by position; its stream is now
    # seeded by the string "centrality:<seed>".  Independent draws still
    # repeat some g by chance (a monic quadratic has about 100 values), so
    # the check is by position, not by set.
    drawn = []

    def recording(rng, degree):
        drawn[-1].append(random_defining_polynomial(rng, degree))
        return drawn[-1][-1]

    monkeypatch.setattr(claims, "random_defining_polynomial", recording)
    for name in ("diamond", "centrality"):
        drawn.append([])
        claims.run_claim_suites([name], seed=seed)
    diamond, centrality = drawn
    rng = random.Random(f"centrality:{seed}")
    expected = [random_defining_polynomial(rng, rng.randint(2, 5)) for _ in range(200)]
    assert centrality == expected + [random_defining_polynomial(rng, 3) for _ in range(50)]
    assert not any(map(operator.eq, diamond, centrality))


# -- the sampled g of one degree, checked as one batched system --------------


def test_integral_form_has_the_reducts_of_g():
    rng = random.Random(38)
    for _ in range(300):
        g = random_defining_polynomial(rng, rng.randint(2, 6)).rescaled(Fraction(rng.randint(1, 7)))
        tilde = claims.integral_form(g)
        assert all(type(c) is int for c in tilde.coefficients) and tilde.coefficients[-1] == 1
        assert build_system(tilde).system._reducts == build_system(g).system._reducts


def component_poly(poly: NcPoly, k: int) -> NcPoly:
    """Sample k's polynomial of a polynomial over batches."""
    return NcPoly(poly.alphabet, ((w, component(c, k)) for w, c in poly.items()))


def component_system(system, k: int):
    """Sample k's system of a system over batches: its rule words and
    order, with component k of every coefficient."""
    rules = [Rule(r.lhs, component_poly(r.rhs, k), r.label) for r in system.rules]
    return ReductionSystem(system.alphabet, system.order, rules, exponents=(0, 1))


def seeded_samples(seed: int) -> list:
    """Six g of each degree 2..5, and a quartic with r_2 = 0."""
    rng = random.Random(seed)
    samples = [random_defining_polynomial(rng, n) for n in (2, 3, 4, 5) for _ in range(6)]
    return samples + [DefiningPolynomial((Fraction(2, 3), 0, Fraction(-5, 4), 1))]


def random_element(rng, width: int) -> NcPoly:
    # int and Batch coefficients, words of length 0..8
    def coefficient():
        if rng.randint(0, 1):
            return rng.randint(-5, 5)
        return Batch(rng.randint(-5, 5) for _ in range(width))

    return NcPoly(AX, (
        (tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 8))), coefficient())
        for _ in range(5)
    ))


@pytest.mark.parametrize("seed", [3, 38])
def test_batched_normal_forms_equal_each_samples_own(seed):
    rng = random.Random(seed)
    samples = seeded_samples(seed)
    checked = 0
    for indices, g in claims._degree_groups(samples):
        batched = build_system(g).system
        own = [build_system(claims.integral_form(samples[i])).system for i in indices]
        for k, system in enumerate(own):
            # the batched system's sample k is the system of g~_k
            assert [(r.lhs, component_poly(r.rhs, k)) for r in batched.rules] == [
                (r.lhs, r.rhs) for r in system.rules
            ]
        elements = [
            commutator(NcPoly.monomial(AX, (0,) * g.degree), 1),
            commutator(g.as_ncpoly(AX, 1), 0),
        ]
        if g.degree == 3:
            elements += [commutator(degree_three_centre_element(g), c) for c in (0, 1)]
        elements += [random_element(rng, len(indices)) for _ in range(20)]
        for poly in elements:
            nf = normal_form(poly, batched)
            for k, system in enumerate(own):
                assert component_poly(nf, k) == normal_form(component_poly(poly, k), system)
                checked += 1
        report = check_confluence(batched)
        for amb in find_ambiguities(batched):
            res = resolve_ambiguity(amb, batched)
            for k, system in enumerate(own):
                mine = resolve_ambiguity(amb, system)
                assert component_poly(res.difference, k) == mine.difference
                assert component_poly(res.left_normal, k) == mine.left_normal
        assert report.overall and all(check_confluence(system).overall for system in own)
    assert checked > 500


def bumped(system, rule: int, bump: Batch):
    """``system`` with bump * x added to the right side of rule ``rule``:
    to sigma_1 it makes a system of degree >= 3 not confluent, and to
    sigma_(n-1) it makes a^n not commute with x."""
    rules = list(system.rules)
    rules[rule] = Rule(rules[rule].lhs, rules[rule].rhs + NcPoly.monomial(AX, (1,), bump), "s")
    return ReductionSystem(AX, system.order, rules)


def test_batched_confluence_differences_equal_each_samples_own():
    # x added to sigma_1 in every other sample: those systems are not
    # confluent, and the others are
    samples = seeded_samples(7)
    seen = set()
    for indices, g in claims._degree_groups(samples):
        batched = bumped(build_system(g).system, 0, Batch(k % 2 for k in range(len(indices))))
        report = check_confluence(batched)
        for k in range(len(indices)):
            own = check_confluence(component_system(batched, k))
            assert [component_poly(res.difference, k) for res in report.resolutions] == [
                res.difference for res in own.resolutions
            ]
            seen.add(own.overall)
    assert seen == {True, False}


def perturbing(monkeypatch, rule: int, places: dict):
    """Make ``claims.build_system`` add x to rule ``rule`` of the batched
    system of degree n in its sample at place ``places[n]`` (``bumped``)."""
    build = claims.build_system

    def perturbed(g, *args):
        pres = build(g, *args)
        if type(g.coefficients[0]) is not Batch or g.degree not in places:
            return pres
        width = len(g.coefficients[0].values)
        bump = Batch(int(k == places[g.degree]) for k in range(width))
        return Presentation(bumped(pres.system, rule, bump))

    monkeypatch.setattr(claims, "build_system", perturbed)


@pytest.mark.parametrize(
    "suite, claim, stream, count, rule",
    [("diamond", "diamond-resolvable", 1, 100, 0),
     ("centrality", "centre-group-and-curve", "centrality:1", 200, -1)],
)
def test_a_perturbed_sample_fails_its_claim_with_the_first_drawn_witness(
    monkeypatch, suite, claim, stream, count, rule
):
    # the suite's draws at seed 1
    rng = random.Random(stream)
    samples = [random_defining_polynomial(rng, rng.randint(2, 5)) for _ in range(count)]
    # a quintic drawn before a quartic: the quartics are checked first
    early = next(i for i, g in enumerate(samples) if g.degree == 5)
    late = next(i for i, g in enumerate(samples) if g.degree == 4 and i > early)

    def place(i):
        return sum(1 for g in samples[:i] if g.degree == samples[i].degree)

    for perturbed, witness in (((early, late), early), ((late,), late), ((), None)):
        with monkeypatch.context() as m:
            perturbing(m, rule, {samples[i].degree: place(i) for i in perturbed})
            got = by_id(claims.run_claim_suites([suite], seed=1))[claim]
        if witness is None:
            assert got["verdict"] == "pass"
        else:
            assert got["verdict"] == "fail"
            assert got["witness"]["g"] == samples[witness].render()
