"""The claim registry: every suite is called as ``suite(seed)``, and each
claim's verdict and witness come from its own cases, the first failing
case being the witness."""

import inspect
import random

import pytest

from diamond import claims, rewrite
from diamond.analysis import random_defining_polynomial
from diamond.freealg import NcPoly
from diamond.presentations import AX
from diamond.rewrite import ConfluenceReport


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


@pytest.mark.parametrize("seed", [0, 7])
def test_pbw_draws_its_polynomials_from_the_seed(monkeypatch, seed):
    drawn = []

    def recording(rng, degree):
        drawn.append(random_defining_polynomial(rng, degree))
        return drawn[-1]

    monkeypatch.setattr(claims, "random_defining_polynomial", recording)
    claims.run_claim_suites(["pbw"], seed=seed)
    rng = random.Random(seed)
    assert drawn == [random_defining_polynomial(rng, rng.randint(2, 5)) for _ in range(5)]


def test_claim_suites_share_automata_across_systems(monkeypatch):
    # the 474 systems of the suites have 25 rule shapes: one automaton per
    # shape that matches, not one per system (447 before shapes were shared)
    built = []
    init = rewrite.ObstructionAutomaton.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    rewrite._rule_shape.cache_clear()
    monkeypatch.setattr(rewrite.ObstructionAutomaton, "__init__", counting)
    claims.run_claim_suites(seed=1)
    assert 0 < len(built) <= 30
