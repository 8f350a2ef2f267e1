"""Regenerate reference.json, the pinned outputs every repetition is checked against.

    PYTHONPATH=src python3 benchmarks/pin.py

Run it only when a change is meant to alter outputs.  The census counts are
cross-checked against ``pbw_words``, an enumeration that does not use the
rewriting engine, before they are written.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from collections import Counter
from pathlib import Path

import workloads
from diamond import analysis, cli


TMP = Path(__file__).resolve().parent.parent / ".bench_tmp"


def pin_verify(seeds=(2024, 1, 2)) -> dict:
    verdicts = None
    out = TMP / "verify.json"
    for seed in seeds:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run_command(["verify", "all", "--seed", str(seed), "--json", str(out)])
        got = workloads.verify_claims(out)
        if code != 0 or (verdicts is not None and got != verdicts):
            raise SystemExit(f"verify all --seed {seed}: exit {code}, verdicts differ")
        verdicts = got
    return {"exit_code": 0, "claims": verdicts}


def pin_confluence(jobs) -> tuple:
    censuses, digests = {}, {}
    for job in jobs:
        report = job.call()
        if not report.overall:
            raise SystemExit(f"{job.name}: not confluent")
        censuses[job.name] = workloads.ambiguity_census(report)
        digests[job.name] = workloads.normal_form_digests(report)
    return censuses, digests


def pin_census() -> dict:
    systems = {}
    for job in workloads.setup("growth-census", 0, TMP):
        outcome = workloads.census_outcome(job.call())
        n = job.context["n"]
        by_length = Counter(len(w) for w in analysis.pbw_words(n, workloads.CENSUS_MAX_LEN))
        pbw = [by_length[length] for length in range(workloads.CENSUS_MAX_LEN + 1)]
        if pbw != outcome["counts"]:
            raise SystemExit(f"n={n}: census {outcome['counts']} != pbw_words {pbw}")
        systems[str(n)] = outcome
    return {"max_len": workloads.CENSUS_MAX_LEN, "systems": systems}


def main() -> int:
    TMP.mkdir(exist_ok=True)
    try:
        reference = pin_all()
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def pin_all() -> dict:
    reference = {"verify-all": pin_verify()}
    dense = {"pool": workloads.DENSE_POOL, "census": None, "digests": {}}
    for entry in range(workloads.DENSE_POOL):
        census, digests = pin_confluence(workloads.setup("confluence-dense", entry, TMP))
        if dense["census"] not in (None, census):
            raise SystemExit(f"dense pool entry {entry}: ambiguity census differs")
        dense["census"] = census
        dense["digests"][str(entry)] = digests
        print(f"confluence-dense entry {entry} pinned", file=sys.stderr)
    reference["confluence-dense"] = dense
    census, digests = pin_confluence(workloads.setup("confluence-power", 0, TMP))
    reference["confluence-power"] = {"census": census["power"], "digests": digests["power"]}
    reference["growth-census"] = pin_census()
    return reference


if __name__ == "__main__":
    sys.exit(main())
