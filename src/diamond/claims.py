"""Claim suites: every mechanized structural claim, run as one registry.

Each suite returns claim entries {id, statement, verdict, witness}; verdicts
are "pass", "fail", or "report-only".  Report-only entries carry verdicts of
computations whose expected outcome is deliberately not asserted (known
discrepancy candidates and open cases); they never fail a run.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import analysis
from .analysis import (
    cubic_centre_suite,
    degree_three_centre_element,
    degree_two_suite,
    dimension_oracle,
    growth_classify,
    irreducible_census,
    is_central,
    pbw_words,
    power_chain_report,
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
from .scalars import CyclotomicField

PASS, FAIL, REPORT = "pass", "fail", "report-only"


def _claim(cid: str, statement: str, ok: bool, witness: dict) -> dict:
    return {
        "id": cid,
        "statement": statement,
        "verdict": PASS if ok else FAIL,
        "witness": witness,
    }


def _report(cid: str, statement: str, witness: dict) -> dict:
    return {"id": cid, "statement": statement, "verdict": REPORT, "witness": witness}


# -- 1. randomized diamond-lemma suite --------------------------------------


def diamond_suite(seed: int = 2024) -> list:
    rng = random.Random(seed)
    checked = 0
    census_ok = True
    resolvable_ok = True
    detail = {}
    for _ in range(100):
        degree = rng.randint(2, 5)
        g = random_defining_polynomial(rng, degree)
        report = check_confluence(build_system(g).system)
        expected = (degree - 1) * (degree - 2) // 2
        if report.overlap_count != expected or report.inclusion_count != 0:
            census_ok = False
            detail = {"g": g.render(), "overlaps": report.overlap_count}
        if not report.overall:
            resolvable_ok = False
            detail = {"g": g.render()}
        checked += 1
    claims = [
        _claim(
            "diamond-ambiguity-census",
            "every random degree-n system has (n-1)(n-2)/2 overlap and 0 "
            "inclusion ambiguities",
            census_ok,
            {"samples": checked, **detail},
        ),
        _claim(
            "diamond-resolvable",
            "every ambiguity of every random system of degree 2..5 resolves",
            resolvable_ok,
            {"samples": checked, **detail},
        ),
    ]
    verdict6 = check_confluence(
        build_system(DefiningPolynomial.from_coefficients((0,) * 5 + (1,))).system
    )
    claims.append(
        _report(
            "diamond-degree6-verdict",
            "confluence of the degree-6 pure-power system (open case, "
            "verdict emitted, not asserted)",
            {
                "overall": "resolvable" if verdict6.overall else "not_confluent",
                "overlaps": verdict6.overlap_count,
            },
        )
    )
    return claims


# -- 2. splitting identities --------------------------------------------------


def splitting_suite() -> list:
    ok_tail1 = all(
        check_splitting_identity("tail1", r, s)
        for r in range(9)
        for s in range(9)
        if (r, s) != (0, 0)
    )
    ok_qtail1 = all(
        check_splitting_identity("q_tail1", r, s) for r in range(9) for s in range(1, 9)
    )
    ok_two = all(
        check_splitting_identity(kind, r, s)
        for kind in ("tail2", "head2", "head1_tail1")
        for r in range(2, 7)
        for s in range(2, 7)
    )
    ok_three = all(
        check_splitting_identity(kind, r, s)
        for kind in ("tail3", "head3", "head2_tail1", "head1_tail2")
        for r in range(3, 7)
        for s in range(3, 7)
    )
    return [
        _claim(
            "split-depth1",
            "one-letter splitting recursions for the bidegree sums and rests",
            ok_tail1 and ok_qtail1,
            {"max_index": 8},
        ),
        _claim(
            "split-depth2",
            "two-letter splitting identities, indices 2..6",
            ok_two,
            {},
        ),
        _claim(
            "split-depth3",
            "three-letter splitting identities, indices 3..6",
            ok_three,
            {},
        ),
    ]


# -- 3. PBW census and the dimension oracle -----------------------------------


def pbw_suite() -> list:
    claims = []
    census_ok = True
    witness = {}
    for n in range(2, 6):
        pres = build_system(
            DefiningPolynomial.from_coefficients((0,) * (n - 1) + (1,))
        )
        census = irreducible_census(pres.system, 12)
        enumerated = pbw_words(n, 12)
        per_len = [0] * 13
        for w in enumerated:
            per_len[len(w)] += 1
        if per_len != census.counts:
            census_ok = False
            witness = {"n": n, "census": census.counts, "enumerated": per_len}
    claims.append(
        _claim(
            "pbw-census",
            "automaton census of irreducible words equals the x^i <blocks> a^k "
            "enumeration at every length <= 12, degrees 2..5",
            census_ok,
            witness or {"max_len": 12},
        )
    )
    block_ok = all(
        len(analysis.pbw_block_letters(n)) == (n - 1) * (n - 2) // 2
        for n in range(2, 13)
    )
    claims.append(
        _claim(
            "pbw-block-count",
            "the block alphabet has (n-1)(n-2)/2 members for 2 <= n <= 12",
            block_ok,
            {},
        )
    )
    rng = random.Random(12)
    poly_ok = True
    for _ in range(5):
        g = random_defining_polynomial(rng, rng.randint(2, 5))
        system = build_system(g).system
        for i in range(13):
            word = NcPoly.monomial(AX, (1,) * i)
            if normal_form(word, system) != word:
                poly_ok = False
    claims.append(
        _claim(
            "pbw-polynomial-subalgebra",
            "pure powers of x are their own normal forms (the one-variable "
            "polynomial ring embeds)",
            poly_ok,
            {"max_power": 12},
        )
    )
    oracle_ok = True
    owitness = {}
    for n in (2, 3, 4):
        g = DefiningPolynomial.from_coefficients((0,) * (n - 1) + (1,))
        pres = build_system(g)
        cumulative = irreducible_census(pres.system, 8).cumulative()
        for ell in range(9):
            result = dimension_oracle(g, ell, 2)
            if not result.stable or result.dimension != cumulative[ell]:
                oracle_ok = False
                owitness = {
                    "n": n,
                    "ell": ell,
                    "oracle": result.values,
                    "census": cumulative[ell],
                }
    claims.append(
        _claim(
            "dimension-oracle",
            "slack-stabilized exact-rank dimensions equal cumulative "
            "irreducible counts for degrees 2..4 up to filtration 8",
            oracle_ok,
            owitness or {"ell": 8, "slack": 2},
        )
    )
    return claims


# -- 4. centrality -------------------------------------------------------------


def centrality_suite(seed: int = 2024) -> list:
    rng = random.Random(seed)
    a, x = 0, 1
    ok_core = True
    witness = {}
    for _ in range(200):
        degree = rng.randint(2, 5)
        g = random_defining_polynomial(rng, degree)
        pres = build_system(g)
        an = NcPoly.monomial(AX, (a,) * degree)
        gen_x = NcPoly.generator(AX, x)
        gen_a = NcPoly.generator(AX, a)
        gp = g.monic().as_ncpoly(AX, x)
        if not normal_form(an * gen_x - gen_x * an, pres.system).is_zero():
            ok_core, witness = False, {"g": g.render(), "element": "a^n"}
        if not normal_form(gp * gen_a - gen_a * gp, pres.system).is_zero():
            ok_core, witness = False, {"g": g.render(), "element": "g"}
    ok_cubic = True
    for _ in range(50):
        g = random_defining_polynomial(rng, 3)
        pres = build_system(g)
        if not is_central(degree_three_centre_element(g.monic()), pres.system):
            ok_cubic = False
            witness = {"g": g.render()}
    centre = cubic_centre_suite()
    return [
        _claim(
            "centre-group-and-curve",
            "a^n commutes with x and g commutes with a in every sampled system",
            ok_core,
            witness or {"samples": 200},
        ),
        _claim(
            "centre-cubic-deformed",
            "axax - x^2a^2 - r_2 xa^2 - r_1 a^2 is central for sampled "
            "monic cubics",
            ok_cubic,
            witness or {"samples": 50},
        ),
        _claim(
            "centre-cubic-roots",
            "all five listed centre elements of the cubic power system are "
            "central over the cube-root field",
            centre["ok"],
            {"entries": [[label, bool(v)] for label, v in centre["entries"]]},
        ),
    ]


# -- 5. coalgebra ---------------------------------------------------------------


def coalgebra_suite(seed: int = 2024) -> list:
    rng = random.Random(seed)
    # j = 0 covers the powers x^t, since P(0, t) = x^t
    bidegree_ok = all(check_coproduct_bidegree(j, t) for j in range(9) for t in range(9 - j))
    tested = [
        DefiningPolynomial.from_coefficients(c)
        for c in ((0, 1), (1, 1), (0, 0, 1), (Fraction(1, 2), 2, 1), (0, 0, 0, 1),
                  (1, 0, 2, 0, 1))
    ] + [random_defining_polynomial(rng, rng.randint(2, 5)) for _ in range(4)]
    hopf_ok = True
    hwitness = {}
    for g in tested:
        report = hopf_ideal_check(g)
        if not report.ok:
            hopf_ok = False
            hwitness = {"g": g.render()}
    laws_ok = True
    for _ in range(10):
        p = analysis.random_ncpoly(rng, AX, 6, 4)
        if not coassociativity_holds(p) or not counit_laws_hold(p):
            laws_ok = False
    return [
        _claim(
            "coproduct-closed-forms",
            "closed forms for the coproducts of powers and bidegree sums up "
            "to total degree 8",
            bidegree_ok,
            {"max_index": 8},
        ),
        _claim(
            "bialgebra-ideal",
            "every defining relation has zero counit and coproduct inside "
            "the two-sided coideal, for each tested polynomial",
            hopf_ok,
            hwitness or {"tested": len(tested)},
        ),
        _claim(
            "coalgebra-laws",
            "coassociativity and the counit laws on random polynomials",
            laws_ok,
            {},
        ),
    ]


# -- 6. root-of-unity plane ------------------------------------------------------


def quantum_plane_suite() -> list:
    ok = True
    witness = {}
    for n in range(2, 9):
        system = build_quantum_plane(n)
        for j in range(1, n):
            nf = normal_form(bidegree_sum(AX, j, n - j), system)
            if not nf.is_zero():
                ok = False
                witness = {"n": n, "j": j, "normal_form": nf.render()}
    return [
        _claim(
            "root-of-unity-plane",
            "every n-th bidegree sum reduces to zero under x*a -> q*a*x over "
            "the order-n cyclotomic field, n = 2..8",
            ok,
            witness or {"orders": list(range(2, 9))},
        )
    ]


# -- 7. small-degree structure -----------------------------------------------------


def small_degree_suite(seed: int = 2024) -> list:
    rng = random.Random(seed)
    a, x = 0, 1
    quad_ok = True
    for _ in range(20):
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if not degree_two_suite(r, 0)["anticommute_ok"]:
            quad_ok = False
    x3 = DefiningPolynomial.from_coefficients((0, 0, 1))
    downup = downup_relations(Fraction(-1), Fraction(-1), Fraction(0))
    renamed = []
    for poly in downup:
        # d -> a, u -> x keeps indices (0, 1); only the alphabet changes
        renamed.append(NcPoly(AX, dict(poly.items())))
    downup_ok = renamed[0] == defining_relation(x3, 2) and renamed[1] == defining_relation(x3, 1)
    filtered_ok = True
    weights = {a: 1, x: 2}
    for _ in range(50):
        g = random_defining_polynomial(rng, 3)
        for j in (1, 2):
            lead = leading_filtered_part(defining_relation(g.monic(), j), weights)
            if lead != defining_relation(x3, j):
                filtered_ok = False
    return [
        _claim(
            "quadratic-change-of-variable",
            "a x' + x' a reduces to zero after the degree-2 change of "
            "variable, for random parameters",
            quad_ok,
            {"samples": 20},
        ),
        _claim(
            "downup-match",
            "the (-1,-1,0) down-up relations, renamed, equal the cubic "
            "power-system relations",
            downup_ok,
            {},
        ),
        _claim(
            "cubic-deformation-leading-part",
            "leading filtered parts of the cubic relations equal the pure "
            "power relations (weights x:2, a:1)",
            filtered_ok,
            {"samples": 50},
        ),
    ]


# -- 8. growth dichotomy --------------------------------------------------------------


def growth_suite() -> list:
    expected = {2: ("polynomial", 2), 3: ("polynomial", 3), 4: ("exponential", None),
                5: ("exponential", None)}
    ok = True
    witness = {}
    for n, (kind, exponent) in expected.items():
        pres = build_system(DefiningPolynomial.from_coefficients((0,) * (n - 1) + (1,)))
        cls = growth_classify(irreducible_census(pres.system, 12))
        good = cls.kind == kind and (exponent is None or cls.exponent == exponent)
        witness[str(n)] = {"kind": cls.kind, "exponent": cls.exponent}
        if not good:
            ok = False
    return [
        _claim(
            "growth-dichotomy",
            "census classification: degree 2 polynomial of exponent 2, "
            "degree 3 exponent 3, degrees 4 and 5 exponential",
            ok,
            witness,
        )
    ]


# -- 9. rescaling ------------------------------------------------------------------------


def rescaling_suite(seed: int = 2024) -> list:
    rng = random.Random(seed)
    x = 1
    ok = True
    witness = {}
    for _ in range(100):
        degree = rng.randint(2, 5)
        g = random_defining_polynomial(rng, degree)
        lam = Fraction(0)
        while not lam:
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        j = rng.randint(1, degree - 1)
        left = rescale_letter(defining_relation(g, j), lam, x)
        right = defining_relation(g.rescaled(lam), j).scale(lam ** (-j))
        if left != right:
            ok = False
            witness = {"g": g.render(), "lambda": str(lam), "j": j}
    return [
        _claim(
            "rescaling-equivariance",
            "rescaling x by lambda multiplies the j-th relation of the "
            "rescaled polynomial by lambda^-j",
            ok,
            witness or {"samples": 100},
        )
    ]


# -- 10. named curves -----------------------------------------------------------------------


def _lemniscate_expected(alphabet):
    field_ = CyclotomicField(8)
    lam2 = field_.q ** 2
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


def named_curves_suite(seed: int = 2024) -> list:
    rng = random.Random(seed)
    claims = []

    # lemniscate: y^2 = x^4 + lam^2 x^2 over the order-8 cyclotomic field
    field_ = CyclotomicField(8)
    lam2 = field_.q ** 2
    g_lem = DefiningPolynomial((field_.zero, lam2, field_.zero, field_.one))
    f_sq = DefiningPolynomial.from_coefficients((0, 1))
    lem = build_tensor_presentation(g_lem, f_sq)
    expected = _lemniscate_expected(lem.alphabet)
    lem_ok = all(lem.relation(label) == poly for label, poly in expected.items())
    claims.append(
        _claim(
            "lemniscate-relations",
            "machine relations of the quartic-curve system match the four "
            "displayed relations term for term",
            lem_ok,
            {"relations": sorted(expected)},
        )
    )

    # nodal cubic: y^2 = x^3 + x^2
    g_nodal = DefiningPolynomial.from_coefficients((0, 1, 1))
    nodal = build_tensor_presentation(g_nodal, f_sq)
    a = 0
    sigma_1 = nodal.relation("sigma_1")
    expected_sigma_1 = bidegree_sum(nodal.alphabet, 1, 1, (0, 1)) + bidegree_sum(
        nodal.alphabet, 1, 2, (0, 1)
    )
    claims.append(
        _claim(
            "nodal-first-relation",
            "the nodal-cubic first relation matches its displayed form",
            sigma_1 == expected_sigma_1,
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
    identity_ok = True
    displayed_all_zero = True
    for _ in range(20):
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        result = degree_two_suite(r, s)
        identity_ok = identity_ok and result["identity_ok"] and result["anticommute_ok"]
        displayed_all_zero = displayed_all_zero and result["displayed_variant_zero"]
    claims.append(
        _claim(
            "quadratic-tensor-identity",
            "x'^2 - y'^2 = (g - f) + (r^2-s^2)/4 - (r^2 a^2 - s^2 b^2)/4 in "
            "the tensor algebra, for random (r, s)",
            identity_ok,
            {"samples": 20},
        )
    )
    claims.append(
        _report(
            "quadratic-tensor-identity-displayed-variant",
            "the juxtaposed variant with f - g in place of g - f "
            "(discrepancy candidate; differs by 2(g - f))",
            {"always_zero": displayed_all_zero},
        )
    )

    # power-chain membership verdicts
    chain = power_chain_report(3, 2)
    claims.append(
        _report(
            "power-chain-membership",
            "normal forms of the degree-3 power generators under the "
            "degree-2 power system (verdicts only)",
            {
                "entries": chain["entries"],
                "all_zero": chain["all_zero"],
                "recursion_identity": chain["recursion_identity"],
            },
        )
    )
    chain43 = power_chain_report(4, 3)
    claims.append(
        _report(
            "power-chain-membership-4-3",
            "normal forms of the degree-4 power generators under the "
            "degree-3 power system (verdicts only)",
            {"entries": chain43["entries"], "all_zero": chain43["all_zero"]},
        )
    )

    # combined-system confluence verdict (open: no order is prescribed)
    combined = check_confluence(build_tensor_presentation(
        DefiningPolynomial.from_coefficients((0, 1)),
        DefiningPolynomial.from_coefficients((0, 0, 1)),
    ).system)
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


def tensor_quotient_suite() -> list:
    claims = []
    for label, f_coeffs in (("square", (0, 1)), ("cube", (0, 0, 1))):
        g = DefiningPolynomial.from_coefficients((0, 1))
        f = DefiningPolynomial.from_coefficients(f_coeffs)
        report = quotient_dimension_tensor(g, f, 6)
        claims.append(
            _claim(
                f"tensor-quotient-{label}",
                "rank-computed tensor-quotient dimensions equal the "
                "standard-monomial census at every weighted degree <= 6",
                report.ok,
                report.to_json_dict(),
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


def run_claim_suites(names=None, seed: int = 2024) -> list:
    """Run the selected suites (all by default) and return claim entries
    sorted by id.  ``seed`` goes to each suite that draws random inputs."""
    if names is None:
        names = sorted(SUITES)
    claims = []
    for name in names:
        suite = SUITES.get(name)
        if suite is None:
            raise KeyError(f"unknown suite {name!r}")
        code = suite.__code__
        takes_seed = "seed" in code.co_varnames[: code.co_argcount]
        claims.extend(suite(seed) if takes_seed else suite())
    return sorted(claims, key=lambda c: c["id"])
