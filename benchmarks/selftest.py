"""Self-test of the tracer and of the traced run.

    python3 benchmarks/selftest.py

Checks, in this order:

1. every binding of a probed function is patched, in every module that
   imported it by name, and ``uninstall`` puts back every original object;
2. each probe records calls on the workload the layer map assigns it, and
   reads 0 where the map predicts 0;
3. the count metrics of two traced runs of the same seed are equal.

It takes a few minutes: step 2 and 3 run every workload traced, twice.
Exit code 0 when every check passes.
"""

from __future__ import annotations

import fractions
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402

SEED = 3

#: metrics that must be nonzero on each workload (the layer map in README.md)
NONZERO = {
    "verify-all": (
        "scalars.fraction_ops", "scalars.cyclotomic_ops", "scalars.euler_phi_calls",
        "ordering.sort_key_calls", "rewrite.match_calls", "rewrite.normal_form_calls",
        "rewrite.steps", "presentations.build_system_s", "freealg.ncpoly_mul_calls",
        "freealg.ncpoly_add_s", "freealg.bidegree_sum_s", "freealg.tensorpoly_mul_s",
        "coalgebra.coproduct_s", "coalgebra.tensor_normal_form_s", "analysis.oracle_calls",
        "analysis.oracle_s", "analysis.oracle_pivots", "analysis.census_s",
        "analysis.census_words", "analysis.growth_classify_s", "cli.self_s",
        *(f"claims.{suite}_s" for suite in (
            "diamond", "splitting", "pbw", "centrality", "coalgebra", "quantum-plane",
            "small-degree", "growth", "rescaling", "named-curves", "tensor-quotient",
        )),
    ),
    "confluence-dense": (
        "scalars.fraction_ops", "scalars.fraction_s", "scalars.cyclotomic_ops",
        "scalars.cyclotomic_s", "scalars.euler_phi_calls", "ordering.sort_key_calls",
        "ordering.sort_key_s", "rewrite.match_calls", "rewrite.normal_form_calls",
        "rewrite.normal_form_self_s", "rewrite.steps", "rewrite.max_support",
        "rewrite.steps_per_s", "rewrite.resolve_max_s", "rewrite.find_ambiguities_s",
        "presentations.build_system_s", "freealg.ncpoly_mul_calls",
    ),
    "confluence-power": (
        "ordering.sort_key_calls", "rewrite.match_calls", "rewrite.match_s",
        "rewrite.normal_form_calls", "rewrite.steps", "rewrite.max_support",
        "rewrite.steps_per_s", "rewrite.resolve_max_s", "rewrite.find_ambiguities_s",
        "presentations.build_system_s",
    ),
    "growth-census": (
        "rewrite.match_calls", "rewrite.match_s", "analysis.census_s",
        "analysis.census_words", "analysis.growth_classify_s", "presentations.build_system_s",
    ),
}

#: metrics the layer map predicts to be 0 on a workload
ZERO = {
    "verify-all": (),
    "confluence-dense": ("analysis.oracle_calls", "analysis.census_words", "cli.self_s"),
    "confluence-power": (
        "analysis.oracle_calls", "scalars.cyclotomic_ops", "analysis.census_words",
    ),
    "growth-census": (
        "scalars.fraction_ops", "scalars.cyclotomic_ops", "rewrite.normal_form_calls",
        "analysis.oracle_calls",
    ),
}


def _bindings():
    """Every object a probe could replace, by where it is bound."""
    from diamond import claims

    out = {}
    for name, module in tracer_mod.diamond_modules().items():
        for attr, value in vars(module).items():
            out[(name, attr)] = value
    for suite, fn in claims.SUITES.items():
        out[("SUITES", suite)] = fn
    classes = [fractions.Fraction]
    modules = tracer_mod.diamond_modules()
    for module_name, cls_name, _, _ in tracer_mod.METHODS:
        classes.append(getattr(modules[f"diamond.{module_name}"], cls_name))
    for cls in classes:
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def check_patching() -> list:
    from diamond import analysis, claims, cli, coalgebra, rewrite
    from diamond.presentations import DefiningPolynomial, build_system

    problems = []
    before = _bindings()
    originals = {
        "normal_form": rewrite.normal_form,
        "check_confluence": rewrite.check_confluence,
        "build_system": build_system,
    }
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for module in (analysis, claims, coalgebra, cli):
            for name, original in originals.items():
                bound = getattr(module, name, None)
                if bound is None:
                    continue
                if bound is original or getattr(bound, "__wrapped__", None) is not original:
                    problems.append(f"{module.__name__}.{name} is not patched")
        # a call through analysis' own binding of normal_form must be seen
        g = DefiningPolynomial.from_coefficients((0, 0, 1))
        system = build_system(g).system
        analysis.is_central(analysis.NcPoly.monomial(analysis.AX, (0, 0, 0)), system)
        if not tracer.stats.get("rewrite.normal_form"):
            problems.append("normal_form called from analysis was not recorded")
    finally:
        tracer.uninstall()
    after = _bindings()
    for key in sorted(set(before) | set(after), key=str):
        if before.get(key) is not after.get(key):
            problems.append(f"{key} not restored by uninstall")
    return problems


def check_workloads() -> list:
    problems = []
    layer_units = run.declared_units()[1]
    run.TMP.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        runs = []
        for _ in range(2):
            result = run.spawn(workload, SEED, "trace", time.monotonic() + run.DEADLINE_S)
            runs.append(result)
            if result["failed"]:
                problems.append(f"{workload}: traced run failed {result['problems'][:3]}")
        first, second = (r["layers"] for r in runs)
        for name in NONZERO[workload]:
            if not first[name] > 0:
                problems.append(f"{workload}: {name} recorded nothing")
        for name in ZERO[workload]:
            if first[name] != 0:
                problems.append(f"{workload}: {name} = {first[name]}, predicted 0")
        for name, value in first.items():
            if layer_units[name] in ("count", "ratio") and second[name] != value:
                problems.append(f"{workload}: {name} {value} then {second[name]}")
        ratio = first["rewrite.match_distinct_ratio"]
        if workload == "growth-census" and ratio != 1.0:
            problems.append(f"growth-census: match_distinct_ratio {ratio} != 1")
        if workload == "confluence-power" and not ratio < 1.0:
            problems.append(f"confluence-power: match_distinct_ratio {ratio} not < 1")
        print(f"{workload}: traced twice, {len(first)} layer metrics checked", flush=True)
    return problems


def main() -> int:
    problems = check_patching()
    print(f"patching: {len(problems)} problems", flush=True)
    try:
        problems += check_workloads()
    finally:
        shutil.rmtree(run.TMP, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
