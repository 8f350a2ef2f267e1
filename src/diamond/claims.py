"""Claim suites: every mechanized structural claim, run as one registry.

Each suite takes the run's seed and returns claim entries {id, statement,
verdict, witness}; verdicts are "pass", "fail", or "report-only".  A
claim's verdict and witness come from its own cases: ``_claim`` reads the
claim's stream of failing cases, the first failure fails the claim and is
its witness, and a claim with no failure passes with its summary witness.
A suite that draws random inputs draws them from ``random.Random(seed)``,
claim after claim; centrality, pbw and rescaling seed their streams with
the strings "centrality:<seed>", "pbw:<seed>" and "rescaling:<seed>"
(hashed by SHA-512, the same in every process), so that they do not redraw
the diamond suite's g.  Report-only entries carry verdicts of computations
whose expected outcome is deliberately not asserted (known discrepancy
candidates and open cases); they never fail a run.

The diamond and centrality suites check their sampled g a degree at a
time, all the samples of one degree in one pass (``_degree_groups``).  Each
g is first replaced by its ``integral_form`` g~(t) = D^n g(t/D), whose
system has exactly the integral reducts that ``ReductionSystem`` derives
for g; then the coefficients r~_i of the samples become one ``Batch`` per
i, and one ``build_system`` builds the system of them all.  The reduction
of a word depends only on its coefficient when it is rewritten, and
``normal_form`` rewrites each word once, at its final coefficient, in a
fixed word order, so component k of every batched result is what sample k
gives on its own system, also where some of its coefficients are zero.
The elements checked, a^n x - x a^n, g~ a - a g~ and the cubic's central
element of g~, are the images of those of g under x -> D x up to a positive
factor, so each is zero exactly when the one of g is.  A sample fails when
its component of some result is nonzero, and a claim's witness is its first
failing sample in draw order, as if the samples were checked one by one.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import analysis
from .analysis import (
    commutator,
    cubic_centre_elements,
    degree_three_centre_element,
    degree_two_anticommutes,
    degree_two_identities,
    dimension_oracle,
    growth_classify,
    irreducible_census,
    is_central,
    pbw_words,
    quotient_dimension_tensor,
    random_defining_polynomial,
)
from .coalgebra import (
    check_coproduct_bidegree,
    coassociativity_holds,
    counit_laws_hold,
    hopf_ideal_check,
)
from .freealg import NcPoly, bidegree_sum, check_splitting_identity
from .presentations import (
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
from .rewrite import check_confluence, normal_form
from .scalars import Batch, CyclotomicField, common_denominator, component

PASS, FAIL, REPORT = "pass", "fail", "report-only"

#: the seed of a run that names none
DEFAULT_SEED = 2024


def _claim(cid: str, statement: str, failures, witness: dict) -> dict:
    """``failures`` yields one witness dict per failing case.  The first one
    fails the claim and is its witness, and the stream is read no further;
    with none, the claim passes with ``witness``."""
    failure = next(iter(failures), None)
    return {
        "id": cid,
        "statement": statement,
        "verdict": PASS if failure is None else FAIL,
        "witness": witness if failure is None else failure,
    }


def _report(cid: str, statement: str, witness: dict) -> dict:
    return {"id": cid, "statement": statement, "verdict": REPORT, "witness": witness}


def _power(n: int) -> DefiningPolynomial:
    """g = x^n."""
    return DefiningPolynomial.from_coefficients((0,) * (n - 1) + (1,))


# -- sampled g, checked a degree at a time -----------------------------------


def integral_form(g: DefiningPolynomial) -> DefiningPolynomial:
    """g~(t) = D^n gm(t/D) for the monic gm of g, with D the lcm of gm's
    denominators: r~_i = r_i D^(n-i), ints, and r~_n = 1.  Its system
    reduces with the reducts of g's, which hold c D^(e(lhs) - e(w)) for
    e(w) = #x (see ``rewrite``): -r_i D^(n-i) and r_j D^(n-j)."""
    gm = g.monic()
    n, scale = gm.degree, common_denominator(gm.coefficients)
    return DefiningPolynomial(
        tuple(int(c * scale ** (n - i)) for i, c in enumerate(gm.coefficients, 1))
    )


def _degree_groups(samples):
    """Per degree of the sampled g, ascending: the draw indices of its
    samples, and the monic g whose r_i, i < n, is the ``Batch`` of their
    integral forms' r~_i."""
    indices = {}
    for i, g in enumerate(samples):
        indices.setdefault(g.degree, []).append(i)
    for degree in sorted(indices):
        forms = zip(*(integral_form(samples[i]).coefficients[:-1] for i in indices[degree]))
        yield indices[degree], DefiningPolynomial(tuple(map(Batch, forms)) + (1,))


def _nonzero_samples(polys, width: int) -> set:
    """The samples, by place in their batch, whose component of some
    coefficient of ``polys`` is nonzero."""
    out = set()
    for poly in polys:
        for _, c in poly.items():
            out.update(k for k in range(width) if component(c, k))
    return out


def _in_draw_order(failures: dict) -> list:
    """The witnesses of a {draw index: witness} map, first drawn first."""
    return [failures[i] for i in sorted(failures)]


# -- 1. randomized diamond-lemma suite --------------------------------------


def diamond_suite(seed: int) -> list:
    rng = random.Random(seed)
    samples = [random_defining_polynomial(rng, rng.randint(2, 5)) for _ in range(100)]
    # each claim's failing samples, by draw index; no report outlives its
    # degree
    census, unresolved = {}, {}
    for indices, g in _degree_groups(samples):
        report = check_confluence(build_system(g).system)
        overlaps, inclusions = report.overlap_count, report.inclusion_count
        if overlaps != (g.degree - 1) * (g.degree - 2) // 2 or inclusions:
            for i in indices:
                census[i] = {"g": samples[i].render(), "overlaps": overlaps,
                             "inclusions": inclusions}
        differences = (res.difference for res in report.resolutions)
        for k in _nonzero_samples(differences, len(indices)):
            unresolved[indices[k]] = {"g": samples[indices[k]].render()}
    verdict6 = check_confluence(build_system(_power(6)).system)
    return [
        _claim(
            "diamond-ambiguity-census",
            "every random degree-n system has (n-1)(n-2)/2 overlap and 0 "
            "inclusion ambiguities",
            _in_draw_order(census),
            {"samples": 100},
        ),
        _claim(
            "diamond-resolvable",
            "every ambiguity of every random system of degree 2..5 resolves",
            _in_draw_order(unresolved),
            {"samples": 100},
        ),
        _report(
            "diamond-degree6-verdict",
            "confluence of the degree-6 pure-power system (open case, "
            "verdict emitted, not asserted)",
            {
                "overall": "resolvable" if verdict6.overall else "not_confluent",
                "overlaps": verdict6.overlap_count,
            },
        ),
    ]


# -- 2. splitting identities --------------------------------------------------


def _splitting_failures(cases):
    for kind, r, s in cases:
        if not check_splitting_identity(kind, r, s):
            yield {"kind": kind, "r": r, "s": s}


def splitting_suite(seed: int) -> list:
    depth1 = [("tail1", r, s) for r in range(9) for s in range(9) if (r, s) != (0, 0)]
    depth1 += [("q_tail1", r, s) for r in range(9) for s in range(1, 9)]
    return [
        _claim(
            "split-depth1",
            "one-letter splitting recursions for the bidegree sums and rests",
            _splitting_failures(depth1),
            {"max_index": 8},
        ),
        _claim(
            "split-depth2",
            "two-letter splitting identities, indices 2..6",
            _splitting_failures(
                (kind, r, s)
                for kind in ("tail2", "head2", "head1_tail1")
                for r in range(2, 7)
                for s in range(2, 7)
            ),
            {},
        ),
        _claim(
            "split-depth3",
            "three-letter splitting identities, indices 3..6",
            _splitting_failures(
                (kind, r, s)
                for kind in ("tail3", "head3", "head2_tail1", "head1_tail2")
                for r in range(3, 7)
                for s in range(3, 7)
            ),
            {},
        ),
    ]


# -- 3. PBW census and the dimension oracle -----------------------------------


def pbw_suite(seed: int) -> list:
    def census_failures():
        for n in range(2, 6):
            census = irreducible_census(build_system(_power(n)).system, 12)
            per_len = [0] * 13
            for w in pbw_words(n, 12):
                per_len[len(w)] += 1
            if per_len != census.counts:
                yield {"n": n, "census": census.counts, "enumerated": per_len}

    def polynomial_failures():
        rng = random.Random(f"pbw:{seed}")
        for _ in range(5):
            g = random_defining_polynomial(rng, rng.randint(2, 5))
            system = build_system(g).system
            for i in range(13):
                word = NcPoly.monomial(AX, (1,) * i)
                if normal_form(word, system) != word:
                    yield {"g": g.render(), "power": i}

    def oracle_failures():
        for n in (2, 3, 4):
            g = _power(n)
            cumulative = irreducible_census(build_system(g).system, 8).cumulative()
            for ell in range(9):
                result = dimension_oracle(g, ell)
                if not result.stable or result.dimension != cumulative[ell]:
                    yield {"n": n, "ell": ell, "oracle": result.values,
                           "census": cumulative[ell]}

    return [
        _claim(
            "pbw-census",
            "automaton census of irreducible words equals the x^i <blocks> a^k "
            "enumeration at every length <= 12, degrees 2..5",
            census_failures(),
            {"max_len": 12},
        ),
        _claim(
            "pbw-block-count",
            "the block alphabet has (n-1)(n-2)/2 members for 2 <= n <= 12",
            (
                {"n": n}
                for n in range(2, 13)
                if len(analysis.pbw_block_letters(n)) != (n - 1) * (n - 2) // 2
            ),
            {},
        ),
        _claim(
            "pbw-polynomial-subalgebra",
            "pure powers of x are their own normal forms (the one-variable "
            "polynomial ring embeds)",
            polynomial_failures(),
            {"max_power": 12},
        ),
        _claim(
            "dimension-oracle",
            "slack-stabilized exact-rank dimensions equal cumulative "
            "irreducible counts for degrees 2..4 up to filtration 8",
            oracle_failures(),
            {"ell": 8, "slack": analysis.ORACLE_SLACK},
        ),
    ]


# -- 4. centrality -------------------------------------------------------------


def centrality_suite(seed: int) -> list:
    rng = random.Random(f"centrality:{seed}")
    samples = [random_defining_polynomial(rng, rng.randint(2, 5)) for _ in range(200)]
    cubics = [random_defining_polynomial(rng, 3) for _ in range(50)]

    def core_failures():
        # a sample's witness names the first element that fails for it
        failures = {}
        for indices, g in _degree_groups(samples):
            system = build_system(g).system
            for element, poly, letter in (
                ("a^n", NcPoly.monomial(AX, (0,) * g.degree), 1),
                ("g", g.as_ncpoly(AX, 1), 0),
            ):
                nf = normal_form(commutator(poly, letter), system)
                for k in _nonzero_samples([nf], len(indices)):
                    failures.setdefault(
                        indices[k], {"g": samples[indices[k]].render(), "element": element}
                    )
        return _in_draw_order(failures)

    def cubic_failures():
        ((indices, g),) = _degree_groups(cubics)
        system = build_system(g).system
        element = degree_three_centre_element(g)
        nfs = [normal_form(commutator(element, letter), system) for letter in (0, 1)]
        return [{"g": cubics[indices[k]].render()}
                for k in sorted(_nonzero_samples(nfs, len(indices)))]

    cubic = build_system(_power(3)).system
    entries = [[label, is_central(element, cubic)] for label, element in cubic_centre_elements()]
    return [
        _claim(
            "centre-group-and-curve",
            "a^n commutes with x and g commutes with a in every sampled system",
            core_failures(),
            {"samples": 200},
        ),
        _claim(
            "centre-cubic-deformed",
            "axax - x^2a^2 - r_2 xa^2 - r_1 a^2 is central for sampled "
            "monic cubics",
            cubic_failures(),
            {"samples": 50},
        ),
        _claim(
            "centre-cubic-roots",
            "all five listed centre elements of the cubic power system are "
            "central over the cube-root field",
            ({"element": label} for label, central in entries if not central),
            {"entries": entries},
        ),
    ]


# -- 5. coalgebra ---------------------------------------------------------------


def coalgebra_suite(seed: int) -> list:
    rng = random.Random(seed)
    tested = [
        DefiningPolynomial.from_coefficients(c)
        for c in ((0, 1), (1, 1), (0, 0, 1), (Fraction(1, 2), 2, 1), (0, 0, 0, 1),
                  (1, 0, 2, 0, 1))
    ] + [random_defining_polynomial(rng, rng.randint(2, 5)) for _ in range(4)]

    def law_failures():
        for _ in range(10):
            p = analysis.random_ncpoly(rng, AX, 6, 4)
            if not coassociativity_holds(p) or not counit_laws_hold(p):
                yield {"poly": p.render()}

    return [
        _claim(
            "coproduct-closed-forms",
            "closed forms for the coproducts of powers and bidegree sums up "
            "to total degree 8",
            # j = 0 covers the powers x^t, since P(0, t) = x^t
            (
                {"j": j, "t": t}
                for j in range(9)
                for t in range(9 - j)
                if not check_coproduct_bidegree(j, t)
            ),
            {"max_index": 8},
        ),
        _claim(
            "bialgebra-ideal",
            "every defining relation has zero counit and coproduct inside "
            "the two-sided coideal, for each tested polynomial",
            ({"g": g.render()} for g in tested if not hopf_ideal_check(build_system(g)).ok),
            {"tested": len(tested)},
        ),
        _claim(
            "coalgebra-laws",
            "coassociativity and the counit laws on random polynomials",
            law_failures(),
            {},
        ),
    ]


# -- 6. root-of-unity plane ------------------------------------------------------


def quantum_plane_suite(seed: int) -> list:
    def failures():
        for n in range(2, 9):
            system = build_quantum_plane(n)
            for j in range(1, n):
                nf = normal_form(bidegree_sum(AX, j, n - j), system)
                if not nf.is_zero():
                    yield {"n": n, "j": j, "normal_form": nf.render()}

    return [
        _claim(
            "root-of-unity-plane",
            "every n-th bidegree sum reduces to zero under x*a -> q*a*x over "
            "the order-n cyclotomic field, n = 2..8",
            failures(),
            {"orders": list(range(2, 9))},
        )
    ]


# -- 7. small-degree structure -----------------------------------------------------


def small_degree_suite(seed: int) -> list:
    rng = random.Random(seed)
    x3 = _power(3)

    def quadratic_failures():
        for _ in range(20):
            r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if not degree_two_anticommutes(r):
                yield {"r": str(r)}

    # d -> a, u -> x keeps indices (0, 1); only the alphabet changes
    renamed = [
        NcPoly(AX, dict(poly.items()))
        for poly in downup_relations(Fraction(-1), Fraction(-1), Fraction(0))
    ]

    def leading_failures():
        weights = {0: 1, 1: 2}
        for _ in range(50):
            g = random_defining_polynomial(rng, 3)
            for j in (1, 2):
                lead = leading_filtered_part(defining_relation(g.monic(), j), weights)
                if lead != defining_relation(x3, j):
                    yield {"g": g.render(), "j": j}

    return [
        _claim(
            "quadratic-change-of-variable",
            "a x' + x' a reduces to zero after the degree-2 change of "
            "variable, for random parameters",
            quadratic_failures(),
            {"samples": 20},
        ),
        _claim(
            "downup-match",
            "the (-1,-1,0) down-up relations, renamed, equal the cubic "
            "power-system relations",
            ({"j": j} for poly, j in zip(renamed, (2, 1)) if poly != defining_relation(x3, j)),
            {},
        ),
        _claim(
            "cubic-deformation-leading-part",
            "leading filtered parts of the cubic relations equal the pure "
            "power relations (weights x:2, a:1)",
            leading_failures(),
            {"samples": 50},
        ),
    ]


# -- 8. growth dichotomy --------------------------------------------------------------


def growth_suite(seed: int) -> list:
    expected = {2: ("polynomial", 2), 3: ("polynomial", 3), 4: ("exponential", None),
                5: ("exponential", None)}
    found = {n: growth_classify(irreducible_census(build_system(_power(n)).system, 12))
             for n in expected}
    return [
        _claim(
            "growth-dichotomy",
            "census classification: degree 2 polynomial of exponent 2, "
            "degree 3 exponent 3, degrees 4 and 5 exponential",
            (
                {"n": n, "kind": cls.kind, "exponent": cls.exponent}
                for n, cls in found.items()
                if (cls.kind, cls.exponent) != expected[n]
            ),
            {str(n): {"kind": cls.kind, "exponent": cls.exponent} for n, cls in found.items()},
        )
    ]


# -- 9. rescaling ------------------------------------------------------------------------


def rescaling_suite(seed: int) -> list:
    rng = random.Random(f"rescaling:{seed}")

    def failures():
        for _ in range(100):
            degree = rng.randint(2, 5)
            g = random_defining_polynomial(rng, degree)
            lam = Fraction(0)
            while not lam:
                lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            j = rng.randint(1, degree - 1)
            left = rescale_letter(defining_relation(g, j), lam, 1)
            right = defining_relation(g.rescaled(lam), j).scale(lam ** (-j))
            if left != right:
                yield {"g": g.render(), "lambda": str(lam), "j": j}

    return [
        _claim(
            "rescaling-equivariance",
            "rescaling x by lambda multiplies the j-th relation of the "
            "rescaled polynomial by lambda^-j",
            failures(),
            {"samples": 100},
        )
    ]


# -- 10. named curves -----------------------------------------------------------------------


def _lemniscate_expected(alphabet, lam2):
    a, x, b, y = 0, 1, 2, 3

    def mono(*letters):
        return NcPoly.monomial(alphabet, letters)

    tau_1 = mono(b, y) + mono(y, b)
    sigma_1 = bidegree_sum(alphabet, 1, 3, (a, x)) + bidegree_sum(
        alphabet, 1, 1, (a, x)
    ).scale(lam2)
    sigma_2 = (
        bidegree_sum(alphabet, 2, 2, (a, x))
        + mono(a, a).scale(lam2)
        - mono(a, a, a, a).scale(lam2)
    )
    sigma_3 = bidegree_sum(alphabet, 3, 1, (a, x))
    return {"tau_1": tau_1, "sigma_1": sigma_1, "sigma_2": sigma_2, "sigma_3": sigma_3}


def _power_chain(m: int, n: int) -> list:
    """Normal forms of the degree-m power generators P(j, m - j) under the
    degree-n power system; the containment is a discrepancy candidate, so
    these are reported, not asserted."""
    system = build_system(_power(n)).system
    entries = []
    for j in range(1, m):
        nf = normal_form(bidegree_sum(AX, j, m - j), system)
        entries.append(
            {
                "generator": f"sum_bidegree({j},{m - j})",
                "normal_form": nf.render(system.order),
                "zero": nf.is_zero(),
            }
        )
    return entries


def named_curves_suite(seed: int) -> list:
    rng = random.Random(seed)
    claims = []

    # lemniscate: y^2 = x^4 + lam^2 x^2 over the order-8 cyclotomic field
    field_ = CyclotomicField(8)
    lam2 = field_.q ** 2
    g_lem = DefiningPolynomial((field_.zero, lam2, field_.zero, field_.one))
    lem = build_tensor_presentation(g_lem, _power(2))
    expected = _lemniscate_expected(lem.alphabet, lam2)
    claims.append(
        _claim(
            "lemniscate-relations",
            "machine relations of the quartic-curve system match the four "
            "displayed relations term for term",
            ({"relation": label} for label, poly in expected.items()
             if lem.relation(label) != poly),
            {"relations": sorted(expected)},
        )
    )

    # nodal cubic: y^2 = x^3 + x^2
    nodal = build_tensor_presentation(DefiningPolynomial.from_coefficients((0, 1, 1)), _power(2))
    a = 0
    sigma_1 = nodal.relation("sigma_1")
    expected_sigma_1 = bidegree_sum(nodal.alphabet, 1, 1, (0, 1)) + bidegree_sum(
        nodal.alphabet, 1, 2, (0, 1)
    )
    claims.append(
        _claim(
            "nodal-first-relation",
            "the nodal-cubic first relation matches its displayed form",
            [{"difference": (sigma_1 - expected_sigma_1).render()}]
            if sigma_1 != expected_sigma_1 else [],
            {},
        )
    )
    sigma_2 = nodal.relation("sigma_2")
    displayed_sigma_2 = (
        bidegree_sum(nodal.alphabet, 2, 1, (0, 1))
        - NcPoly.monomial(nodal.alphabet, (a,) * 3)
        - NcPoly.monomial(nodal.alphabet, (a,) * 2)
    )
    diff = sigma_2 - displayed_sigma_2
    claims.append(
        _report(
            "nodal-second-relation-diff",
            "difference between the machine second relation of the nodal "
            "cubic and its displayed form (discrepancy candidate)",
            {"difference": diff.render(), "zero": diff.is_zero()},
        )
    )

    # degree-2 tensor identity for random parameters
    failures, variants_zero = [], []
    for _ in range(20):
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        anticommute, identity, variant_zero = degree_two_identities(r, s)
        if not (identity and anticommute):
            failures.append({"r": str(r), "s": str(s)})
        variants_zero.append(variant_zero)
    claims.append(
        _claim(
            "quadratic-tensor-identity",
            "x'^2 - y'^2 = (g - f) + (r^2-s^2)/4 - (r^2 a^2 - s^2 b^2)/4 in "
            "the tensor algebra, for random (r, s)",
            failures,
            {"samples": 20},
        )
    )
    claims.append(
        _report(
            "quadratic-tensor-identity-displayed-variant",
            "the juxtaposed variant with f - g in place of g - f "
            "(discrepancy candidate; differs by 2(g - f))",
            {"always_zero": all(variants_zero)},
        )
    )

    # power-chain membership verdicts
    chain = _power_chain(3, 2)
    claims.append(
        _report(
            "power-chain-membership",
            "normal forms of the degree-3 power generators under the "
            "degree-2 power system (verdicts only)",
            {
                "entries": chain,
                "all_zero": all(e["zero"] for e in chain),
                "recursion_identity": all(
                    check_splitting_identity("tail1", j, 3 - j) for j in range(1, 3)
                ),
            },
        )
    )
    chain = _power_chain(4, 3)
    claims.append(
        _report(
            "power-chain-membership-4-3",
            "normal forms of the degree-4 power generators under the "
            "degree-3 power system (verdicts only)",
            {"entries": chain, "all_zero": all(e["zero"] for e in chain)},
        )
    )

    # combined-system confluence verdict (open: no order is prescribed)
    combined = check_confluence(build_tensor_presentation(_power(2), _power(3)).system)
    claims.append(
        _report(
            "tensor-system-confluence-verdict",
            "confluence verdict for the combined quadratic/cubic tensor "
            "system under the product order (emitted, not asserted)",
            {
                "overall": "resolvable" if combined.overall else "not_confluent",
                "ambiguities": len(combined.resolutions),
            },
        )
    )
    return claims


# -- 11. tensor quotient census ------------------------------------------------------------


def tensor_quotient_suite(seed: int) -> list:
    claims = []
    for label, m in (("square", 2), ("cube", 3)):
        report = quotient_dimension_tensor(_power(2), _power(m), 6)
        doc = report.to_json_dict()
        claims.append(
            _claim(
                f"tensor-quotient-{label}",
                "rank-computed tensor-quotient dimensions equal the "
                "standard-monomial census at every weighted degree <= 6",
                [] if report.ok else [doc],
                doc,
            )
        )
    return claims


# -- registry ---------------------------------------------------------------------


SUITES = {
    "diamond": diamond_suite,
    "splitting": splitting_suite,
    "pbw": pbw_suite,
    "centrality": centrality_suite,
    "coalgebra": coalgebra_suite,
    "quantum-plane": quantum_plane_suite,
    "small-degree": small_degree_suite,
    "growth": growth_suite,
    "rescaling": rescaling_suite,
    "named-curves": named_curves_suite,
    "tensor-quotient": tensor_quotient_suite,
}


def run_claim_suites(names=None, seed: int = DEFAULT_SEED) -> list:
    """Run the selected suites (all by default), each as ``suite(seed)``, and
    return claim entries sorted by id."""
    if names is None:
        names = sorted(SUITES)
    claims = []
    for name in names:
        suite = SUITES.get(name)
        if suite is None:
            raise KeyError(f"unknown suite {name!r}")
        claims.extend(suite(seed))
    return sorted(claims, key=lambda c: c["id"])
