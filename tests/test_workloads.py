"""The correctness gate of ``benchmarks/workloads.py``, run on its
confluence jobs: the ambiguity census and every verdict against
``benchmarks/reference.json``, and the normal-form digests of the
ambiguities.  A change to ``Resolution.left_normal`` or to the ambiguity
order then fails here, not only in a benchmark run.  The cyclotomic job of
``confluence-dense`` is digested in full, for pool entries 0 to 3: its 10
ambiguities reduce in Z[zeta_8] in about 0.1 s.  The rational and power
jobs digest only their first few ambiguities: each digest reduces a whole
one-step rewrite, and their full passes take seconds per job."""

import importlib.util
import sys
from pathlib import Path

import pytest

from diamond.rewrite import RESOLVABLE, ConfluenceReport

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
#: the ambiguities digested of the rational and power jobs
DIGESTED = 4


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclass looks its module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def check_job(workloads, workload, job):
    reference = workloads.load_reference()
    report = job.call()
    want = workloads.expected(workload, job, reference)
    assert workloads.ambiguity_census(report) == [census for census, _ in want]
    assert all(res.verdict == RESOLVABLE for res in report.resolutions)
    digested = len(want) if job.name == "cyclotomic" else DIGESTED
    first = ConfluenceReport(report.system, report.resolutions[:digested])
    digests = [digest for _, digest in want[:digested]]
    assert workloads.normal_form_digests(first) == digests


@pytest.mark.parametrize("workload", ["confluence-dense", "confluence-power"])
def test_confluence_jobs_match_the_benchmark_reference(workload, tmp_path):
    workloads = load_workloads()
    # seed 0 draws pool entry 0 of confluence-dense
    jobs = workloads.setup(workload, 0, tmp_path)
    assert [job.name for job in jobs] == (
        ["rational", "cyclotomic"] if workload == "confluence-dense" else ["power"]
    )
    for job in jobs:
        check_job(workloads, workload, job)


@pytest.mark.parametrize("entry", [1, 2, 3])
def test_cyclotomic_job_matches_the_benchmark_reference(entry, tmp_path):
    workloads = load_workloads()
    (job,) = [job for job in workloads.setup("confluence-dense", entry, tmp_path)
              if job.name == "cyclotomic"]
    assert job.context == {"entry": entry}
    check_job(workloads, "confluence-dense", job)
