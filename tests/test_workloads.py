"""The correctness gate of ``benchmarks/workloads.py``, run on two of its
confluence jobs: the ambiguity census and every verdict against
``benchmarks/reference.json``, and the normal-form digests of the first
few ambiguities of each job.  A change to ``Resolution.left_normal`` or to
the ambiguity order then fails here, not only in a benchmark run.  Only
the first few are digested: each digest reduces a whole one-step rewrite,
and the full pass takes seconds per job."""

import importlib.util
import sys
from pathlib import Path

import pytest

from diamond.rewrite import RESOLVABLE, ConfluenceReport

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
DIGESTED = 4


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclass looks its module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["confluence-dense", "confluence-power"])
def test_confluence_jobs_match_the_benchmark_reference(workload, tmp_path):
    workloads = load_workloads()
    reference = workloads.load_reference()
    # seed 0 draws pool entry 0 of confluence-dense
    jobs = workloads.setup(workload, 0, tmp_path)
    assert [job.name for job in jobs] == (
        ["rational", "cyclotomic"] if workload == "confluence-dense" else ["power"]
    )
    for job in jobs:
        report = job.call()
        want = workloads.expected(workload, job, reference)
        assert workloads.ambiguity_census(report) == [census for census, _ in want]
        assert all(res.verdict == RESOLVABLE for res in report.resolutions)
        first = ConfluenceReport(report.system, report.resolutions[:DIGESTED])
        digests = [digest for _, digest in want[:DIGESTED]]
        assert workloads.normal_form_digests(first) == digests
