"""The four benchmark workloads: inputs from a seed, the timed calls, and
the correctness check against the pinned references in reference.json.

A workload is a list of jobs.  Each job is one call into diamond and owns a
fixed number of operations (one claim, one ambiguity, or one (n, length)
census count), as many as its reference lists.  ``setup`` builds every input, including ``build_system``;
``Job.call`` is the only thing the benchmark times; ``check`` runs after the
timer stops.

Every call into diamond goes through a module attribute (``rewrite.check_confluence``,
not a name bound at import) so that the tracer's patches see it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from diamond import analysis, cli, presentations, rewrite
from diamond.freealg import render_word
from diamond.scalars import Cyclotomic, CyclotomicField

NAMES = ("verify-all", "confluence-dense", "confluence-power", "growth-census")

#: ``confluence-dense`` draws its inputs from this many pinned pool entries
#: (entry = seed mod DENSE_POOL), so every run is checked against a pinned
#: normal-form digest whatever the seed.
DENSE_POOL = 32
DENSE_DEGREE = 9
CYCLOTOMIC_DEGREE = 6
CYCLOTOMIC_ORDER = 8
POWER_DEGREE = 10
CENSUS_SIZES = (3, 4, 5)
CENSUS_MAX_LEN = 17

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    # per-job data the check needs (pool entry, output path, ...)
    context: dict


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def pure_power(n: int) -> presentations.DefiningPolynomial:
    return presentations.DefiningPolynomial.from_coefficients((0,) * (n - 1) + (1,))


def dense_rational(entry: int) -> presentations.DefiningPolynomial:
    """Monic degree-9 g over Q from ``random_defining_polynomial``, redrawn
    until every coefficient is nonzero.  A zero coefficient drops whole
    bidegree sums from the rules and changes the step count (8.3k against
    9.9k), which would make the work depend on the seed."""
    rng = random.Random(entry)
    while True:
        g = analysis.random_defining_polynomial(rng, DENSE_DEGREE)
        if all(g.coefficients):
            return g


def dense_cyclotomic(entry: int) -> presentations.DefiningPolynomial:
    """Monic degree-6 g over Q(zeta_8) whose lower coefficients have all
    four residues nonzero: +-1 or +-1/2."""
    rng = random.Random(1000 + entry)

    def residue() -> Fraction:
        return Fraction(rng.choice((-1, 1)), rng.randint(1, 2))

    field = CyclotomicField(CYCLOTOMIC_ORDER)
    phi = len(field.one.coeffs)
    coeffs = [
        Cyclotomic(CYCLOTOMIC_ORDER, [residue() for _ in range(phi)])
        for _ in range(CYCLOTOMIC_DEGREE - 1)
    ]
    return presentations.DefiningPolynomial(tuple(coeffs) + (field.one,))


def _confluence_job(name: str, g, context: dict) -> Job:
    system = presentations.build_system(g).system
    return Job(name, lambda: rewrite.check_confluence(system), context)


def setup(workload: str, seed: int, tmp: Path) -> list:
    """Build every input of ``workload`` for ``seed``; nothing here is timed
    as solve work."""
    if workload == "verify-all":
        out = tmp / f"verify-{os.getpid()}.json"
        argv = ["verify", "all", "--seed", str(seed), "--json", str(out)]
        return [Job("verify", lambda: cli.run_command(argv), {"path": out})]
    if workload == "confluence-dense":
        entry = seed % DENSE_POOL
        return [
            _confluence_job("rational", dense_rational(entry), {"entry": entry}),
            _confluence_job("cyclotomic", dense_cyclotomic(entry), {"entry": entry}),
        ]
    if workload == "confluence-power":
        # a pure power has no free coefficients, so the seed has nothing to vary
        return [_confluence_job("power", pure_power(POWER_DEGREE), {})]
    if workload == "growth-census":
        jobs = []
        for n in CENSUS_SIZES:
            system = presentations.build_system(pure_power(n)).system

            def census(system=system):
                report = analysis.irreducible_census(system, CENSUS_MAX_LEN)
                return report, analysis.growth_classify(report)

            jobs.append(Job(f"n={n}", census, {"n": n}))
        return jobs
    raise KeyError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# outputs and their check
# ---------------------------------------------------------------------------


def ambiguity_census(report) -> list:
    """One line per ambiguity: kind, the two rule labels, and A|B|C."""
    system = report.system
    out = []
    for res in report.resolutions:
        amb = res.ambiguity
        words = "|".join(render_word(system.alphabet, w) for w in (amb.a, amb.b, amb.c))
        out.append(
            f"{amb.kind} {system.rules[amb.sigma].label} {system.rules[amb.tau].label} {words}"
        )
    return out


def normal_form_digests(report) -> list:
    """A short digest of each ambiguity's rendered normal form.  Under
    confluence normal forms are unique, so any correct strategy gives these."""
    order = report.system.order
    return [
        hashlib.sha256(res.left_normal.render(order).encode()).hexdigest()[:16]
        for res in report.resolutions
    ]


def verify_claims(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    return {claim["id"]: claim["verdict"] for claim in document["claims"]}


def census_outcome(output) -> dict:
    report, classification = output
    return {
        "counts": list(report.counts),
        "kind": classification.kind,
        "exponent": classification.exponent,
    }


def expected(workload: str, job: Job, reference: dict):
    """The reference part one job is checked against; its length is the
    job's number of operations."""
    ref = reference[workload]
    if workload == "verify-all":
        return ref["claims"]
    if workload == "confluence-dense":
        entry = ref["digests"][str(job.context["entry"])]
        return list(zip(ref["census"][job.name], entry[job.name]))
    if workload == "confluence-power":
        return list(zip(ref["census"], ref["digests"]))
    return ref["systems"][str(job.context["n"])]["counts"]


def check(workload: str, job: Job, output, reference: dict) -> list:
    """Problems found in one job's output, at most one per operation; each
    counts that operation as failed."""
    ref = reference[workload]
    want = expected(workload, job, reference)
    problems = []
    if workload == "verify-all":
        if output != ref["exit_code"]:
            return [f"exit code {output}, expected {ref['exit_code']}"] * len(want)
        got = verify_claims(job.context["path"])
        for cid, verdict in sorted(want.items()):
            if got.get(cid) != verdict:
                problems.append(f"claim {cid}: {got.get(cid)} != {verdict}")
        return problems
    if workload in ("confluence-dense", "confluence-power"):
        got_census = ambiguity_census(output)
        got_digests = normal_form_digests(output)
        for i, (census, digest) in enumerate(want):
            if i >= len(got_census):
                problems.append(f"{job.name} ambiguity {i}: missing")
            elif got_census[i] != census:
                problems.append(f"{job.name} ambiguity {i}: {got_census[i]!r} != {census!r}")
            elif output.resolutions[i].verdict != rewrite.RESOLVABLE:
                problems.append(f"{job.name} ambiguity {i}: {output.resolutions[i].verdict}")
            elif got_digests[i] != digest:
                problems.append(f"{job.name} ambiguity {i}: normal form digest differs")
        if len(got_census) > len(want):
            problems.append(f"{job.name}: {len(got_census) - len(want)} extra ambiguities")
        return problems[: len(want)]
    if workload == "growth-census":
        system = ref["systems"][str(job.context["n"])]
        got = census_outcome(output)
        if (got["kind"], got["exponent"]) != (system["kind"], system["exponent"]):
            # a wrong classification fails the whole job
            return [
                f"{job.name}: classified {got['kind']}/{got['exponent']}, "
                f"expected {system['kind']}/{system['exponent']}"
            ] * len(want)
        for length, (a, b) in enumerate(zip(got["counts"], want)):
            if a != b:
                problems.append(f"{job.name} length {length}: {a} != {b}")
        missing = len(want) - len(got["counts"])
        problems.extend([f"{job.name}: count missing"] * max(0, missing))
        return problems
    raise KeyError(f"unknown workload {workload!r}")
