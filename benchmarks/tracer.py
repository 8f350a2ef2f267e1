"""Per-layer tracing from outside the program.

``Tracer.install`` wraps public functions and methods of every ``diamond``
module, plus ``fractions.Fraction`` arithmetic, with probes that aggregate
calls, inclusive time, self time (time minus traced children) and the
slowest single call.  Nothing is recorded per call beyond these sums, so
call-heavy functions (``match``, ``sort_key``, ``Fraction`` ops) cost one
counter update each.

Functions such as ``normal_form`` are bound by name in several modules
(``from .rewrite import normal_form``), so a probe replaces every binding
of the original object, in every ``diamond`` module and in
``claims.SUITES``.  ``uninstall`` restores each one.
"""

from __future__ import annotations

import fractions
import sys
from time import perf_counter

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")
CYCLOTOMIC_OPS = FRACTION_OPS + ("__neg__", "__truediv__", "__rtruediv__", "__pow__")

#: (module, function) pairs probed at every binding, with the probe's name
FUNCTIONS = (
    ("scalars", "euler_phi", "scalars.euler_phi"),
    ("presentations", "build_system", "presentations.build_system"),
    ("rewrite", "normal_form", "rewrite.normal_form"),
    ("rewrite", "check_confluence", "rewrite.check_confluence"),
    ("rewrite", "resolve_ambiguity", "rewrite.resolve_ambiguity"),
    ("rewrite", "find_ambiguities", "rewrite.find_ambiguities"),
    ("freealg", "bidegree_sum", "freealg.bidegree_sum"),
    ("coalgebra", "coproduct", "coalgebra.coproduct"),
    ("coalgebra", "tensor_normal_form", "coalgebra.tensor_normal_form"),
    ("analysis", "ideal_filtration_profile", "analysis.oracle"),
    ("analysis", "irreducible_census", "analysis.census"),
    ("analysis", "growth_classify", "analysis.growth_classify"),
    ("cli", "run_command", "cli.run_command"),
)

#: (module, class, methods) probed on the class, with the probe's name
METHODS = (
    ("scalars", "Cyclotomic", CYCLOTOMIC_OPS, "scalars.cyclotomic"),
    ("ordering", "GrlexPlus", ("sort_key",), "ordering.sort_key"),
    ("ordering", "ProductGrlex", ("sort_key",), "ordering.sort_key"),
    ("rewrite", "ReductionSystem", ("match",), "rewrite.match"),
    ("freealg", "NcPoly", ("__mul__", "__rmul__"), "freealg.ncpoly_mul"),
    ("freealg", "NcPoly", ("__add__",), "freealg.ncpoly_add"),
    ("freealg", "TensorPoly", ("__mul__",), "freealg.tensorpoly_mul"),
)


class Stat:
    __slots__ = ("calls", "total", "own", "peak")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # inclusive seconds
        self.own = 0.0  # seconds minus traced children
        self.peak = 0.0  # slowest single call

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total, "self_s": self.own, "max_s": self.peak}


class _SuiteProbe:
    # run_claim_suites reads suite.__code__ to decide whether to pass the
    # seed, so the probe must expose the suite's own code object.
    def __init__(self, fn, probe):
        self.__code__ = fn.__code__
        self._probe = probe

    def __call__(self, *args, **kwargs):
        return self._probe(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self.setup_stats: dict = {}
        self.steps = 0
        self.max_support = 0
        self.oracle_pivots = 0
        self.census_words = 0
        self._stack = [0.0]  # children's time accumulated per open probe
        self._seen: dict = {}  # id(system) -> (system, distinct words matched)
        self._patches: list = []  # (owner, key, original, is_mapping)

    # -- probes ------------------------------------------------------------

    def _probe(self, fn, name: str, after=None):
        stack = self._stack
        tracer = self

        def probe(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                stat = tracer.stats.get(name)
                if stat is None:
                    stat = tracer.stats[name] = Stat()
                stat.calls += 1
                stat.total += elapsed
                stat.own += elapsed - children
                if elapsed > stat.peak:
                    stat.peak = elapsed
            if after is not None:
                after(args, result)
            return result

        probe.__name__ = getattr(fn, "__name__", name)
        probe.__doc__ = getattr(fn, "__doc__", None)
        probe.__wrapped__ = fn
        return probe

    def _after_match(self, args, result):
        system, word = args[0], args[1]
        entry = self._seen.get(id(system))
        if entry is None:
            # keep the system alive so its id cannot be reused
            entry = self._seen[id(system)] = (system, set())
        entry[1].add(word)

    def _after_confluence(self, args, report):
        self.steps += report.stats.steps
        self.max_support = max(self.max_support, report.stats.max_support)

    def _after_oracle(self, args, profile):
        self.oracle_pivots += sum(profile)

    def _after_census(self, args, report):
        # every word of length <= max_len is examined once
        letters = len(args[0].alphabet)
        self.census_words += sum(letters**length for length in range(len(report.counts)))

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from diamond import claims

        modules = diamond_modules()
        hooks = {
            "rewrite.match": self._after_match,
            "rewrite.check_confluence": self._after_confluence,
            "analysis.oracle": self._after_oracle,
            "analysis.census": self._after_census,
        }
        for module_name, fn_name, name in FUNCTIONS:
            original = getattr(modules[f"diamond.{module_name}"], fn_name)
            probe = self._probe(original, name, hooks.get(name))
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, False))
                        setattr(module, attr, probe)
        for suite, fn in list(claims.SUITES.items()):
            probe = _SuiteProbe(fn, self._probe(fn, f"claims.{suite}"))
            self._patches.append((claims.SUITES, suite, fn, True))
            claims.SUITES[suite] = probe
        targets = [(fractions.Fraction, FRACTION_OPS, "scalars.fraction")]
        for module_name, cls_name, methods, name in METHODS:
            targets.append((getattr(modules[f"diamond.{module_name}"], cls_name), methods, name))
        for cls, methods, name in targets:
            for method in methods:
                original = cls.__dict__[method]
                self._patches.append((cls, method, original, False))
                setattr(cls, method, self._probe(original, name, hooks.get(name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original, mapping = self._patches.pop()
            if mapping:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def start_solve(self) -> None:
        """Close the set-up phase: later metrics count the solve phase only,
        except build_system time, which is what set-up spends."""
        self.setup_stats = self.stats
        self.stats = {}
        self.steps = 0
        self.max_support = 0
        self.oracle_pivots = 0
        self.census_words = 0
        self._seen.clear()

    # -- results ---------------------------------------------------------------

    def probe_stats(self) -> dict:
        return {name: stat.as_dict() for name, stat in sorted(self.stats.items())}

    def metrics(self) -> dict:
        """Per-layer metrics of the solve phase (trace.overhead_s is added by
        the caller, which has the untraced times)."""
        from diamond import claims

        def s(name):
            return self.stats.get(name) or Stat()

        match = s("rewrite.match")
        distinct = sum(len(words) for _, words in self._seen.values())
        confluence_s = s("rewrite.check_confluence").total
        suites_s = 0.0
        out = {
            "scalars.fraction_ops": s("scalars.fraction").calls,
            "scalars.fraction_s": s("scalars.fraction").total,
            "scalars.cyclotomic_ops": s("scalars.cyclotomic").calls,
            "scalars.cyclotomic_s": s("scalars.cyclotomic").total,
            "scalars.euler_phi_calls": s("scalars.euler_phi").calls,
            "ordering.sort_key_calls": s("ordering.sort_key").calls,
            "ordering.sort_key_s": s("ordering.sort_key").total,
            "rewrite.match_calls": match.calls,
            "rewrite.match_s": match.total,
            "rewrite.match_distinct_ratio": distinct / match.calls if match.calls else 0.0,
            "rewrite.normal_form_calls": s("rewrite.normal_form").calls,
            "rewrite.normal_form_self_s": s("rewrite.normal_form").own,
            "rewrite.steps": self.steps,
            "rewrite.max_support": self.max_support,
            "rewrite.steps_per_s": self.steps / confluence_s if confluence_s else 0.0,
            "rewrite.resolve_max_s": s("rewrite.resolve_ambiguity").peak,
            "rewrite.find_ambiguities_s": s("rewrite.find_ambiguities").total,
            "presentations.build_system_s": s("presentations.build_system").total
            + (self.setup_stats.get("presentations.build_system") or Stat()).total,
            "freealg.ncpoly_mul_calls": s("freealg.ncpoly_mul").calls,
            "freealg.ncpoly_mul_s": s("freealg.ncpoly_mul").total,
            "freealg.ncpoly_add_s": s("freealg.ncpoly_add").total,
            "freealg.bidegree_sum_s": s("freealg.bidegree_sum").total,
            "freealg.tensorpoly_mul_s": s("freealg.tensorpoly_mul").total,
            "coalgebra.coproduct_s": s("coalgebra.coproduct").total,
            "coalgebra.tensor_normal_form_s": s("coalgebra.tensor_normal_form").total,
            "analysis.oracle_calls": s("analysis.oracle").calls,
            "analysis.oracle_s": s("analysis.oracle").total,
            "analysis.oracle_pivots": self.oracle_pivots,
            "analysis.census_s": s("analysis.census").total,
            "analysis.census_words": self.census_words,
            "analysis.growth_classify_s": s("analysis.growth_classify").total,
        }
        for suite in sorted(claims.SUITES):
            out[f"claims.{suite}_s"] = s(f"claims.{suite}").total
            suites_s += s(f"claims.{suite}").total
        run = s("cli.run_command")
        out["cli.self_s"] = run.total - suites_s if run.calls else 0.0
        return out


def diamond_modules() -> dict:
    """Every imported ``diamond`` module, by name."""
    import diamond.analysis  # noqa: F401  (make sure every layer is loaded)
    import diamond.claims  # noqa: F401
    import diamond.cli  # noqa: F401
    import diamond.coalgebra  # noqa: F401

    return {
        name: module
        for name, module in sorted(sys.modules.items())
        if name == "diamond" or name.startswith("diamond.")
    }
