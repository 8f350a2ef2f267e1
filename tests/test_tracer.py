"""``benchmarks/tracer.py`` patches functions and class methods of ``diamond``
by name (``--trace 1``).  These checks load it unchanged and keep its
targets resolvable, so a refactor cannot silently break the traced run."""

import fractions
import importlib.util
from pathlib import Path

from diamond import coalgebra
from diamond.freealg import NcPoly, TensorPoly, bidegree_sum
from diamond.presentations import AX

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer) -> dict:
    """Every object the tracer may replace, keyed by where it is bound."""
    from diamond import claims

    modules = tracer.diamond_modules()
    out = {(name, attr): value for name, m in modules.items() for attr, value in vars(m).items()}
    classes = [fractions.Fraction] + [
        getattr(modules[f"diamond.{m}"], cls) for m, cls, _, _ in tracer.METHODS
    ]
    out.update({(cls, attr): value for cls in classes for attr, value in vars(cls).items()})
    out.update({("SUITES", suite): fn for suite, fn in claims.SUITES.items()})
    return out


def test_tracer_targets_resolve_and_uninstall_restores():
    tracer = load_tracer()
    modules = tracer.diamond_modules()
    for module_name, fn_name, _ in tracer.FUNCTIONS:
        assert callable(getattr(modules[f"diamond.{module_name}"], fn_name))
    for module_name, cls_name, methods, _ in tracer.METHODS:
        cls = getattr(modules[f"diamond.{module_name}"], cls_name)
        for method in methods:
            # probes replace cls.__dict__[method]; an inherited method is missed
            assert method in vars(cls), f"{cls_name}.{method} must be defined in its class body"

    before = bindings(tracer)
    probe = tracer.Tracer()
    probe.install()
    try:
        # looked up on the module, where the probe is bound
        delta = coalgebra.coproduct(bidegree_sum(AX, 1, 2))
        # the closed-form coproduct neither multiplies nor adds term maps,
        # so the product and sum probes are driven here
        delta * TensorPoly.one(AX)
        bidegree_sum(AX, 1, 1) + bidegree_sum(AX, 2, 0)
    finally:
        probe.uninstall()
    after = bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    # tensor additions count under the inherited NcPoly.__add__
    for name in ("coalgebra.coproduct", "freealg.tensorpoly_mul", "freealg.ncpoly_add"):
        assert probe.stats[name].calls > 0


def test_tracer_counts_repeated_matches_in_confluence():
    # one S-polynomial per ambiguity: confluence of x^5 walks no input word
    # twice.  Reducing one input twice does, so the walks then outnumber
    # the distinct words matched
    from diamond import presentations, rewrite

    tracer = load_tracer()
    g = presentations.DefiningPolynomial.from_coefficients((0, 0, 0, 0, 1))
    system = presentations.build_system(g).system
    word = NcPoly.monomial(system.alphabet, (0, 0, 1, 1, 1, 0, 1))
    probe = tracer.Tracer()
    probe.install()
    try:
        rewrite.check_confluence(system)
        alone = probe.metrics()["rewrite.match_distinct_ratio"]
        rewrite.normal_form(word, system)
        rewrite.normal_form(word, system)
    finally:
        probe.uninstall()
    assert alone == 1
    assert probe.stats["rewrite.match"].calls > 0
    assert probe.stats["rewrite.check_confluence"].calls == 1
    assert probe.metrics()["rewrite.match_distinct_ratio"] < 1


def test_suite_probe_forwards_the_seed(monkeypatch):
    # the tracer puts a _SuiteProbe, which copies the suite's __code__, in
    # place of each suite; run_claim_suites calls it as suite(seed)
    from diamond import claims

    seen = []

    def recording_suite(seed):
        seen.append(seed)
        return []

    monkeypatch.setitem(claims.SUITES, "recording", recording_suite)
    tracer = load_tracer()
    probe = tracer.Tracer()
    probe.install()
    try:
        installed = claims.SUITES["recording"]
        assert installed is not recording_suite
        assert installed.__code__ is recording_suite.__code__
        assert claims.run_claim_suites(["recording"], seed=5) == []
    finally:
        probe.uninstall()
    assert claims.SUITES["recording"] is recording_suite
    assert seen == [5]
    assert probe.stats["claims.recording"].calls == 1
