"""One cold repetition of a workload, in its own interpreter.

    python3 benchmarks/child.py --workload W --seed N --mode MODE --out PATH

MODE is ``solve`` (set up, time the jobs between two calibration loops,
check them), ``setup`` (set up and stop), ``trace`` (as ``solve`` with the
tracer installed after import and no calibration) or ``prime`` (import
only, so later children load compiled bytecode).
The result goes to PATH as JSON; the program's own output goes to stdout,
which run.py discards.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads


def calibrate() -> float:
    """Seconds taken by a fixed loop of dict, tuple and ``Fraction`` work
    that uses no diamond code.  The speed of a shared host drifts by 20-30 %
    over minutes; the loop, run right before and right after the solve,
    measures that drift so solve time can be given in loop lengths."""
    start = time.perf_counter()
    table: dict = {}
    third = Fraction(1, 3)
    total = Fraction(0)
    for i in range(120_000):
        key = (i & 4095, i % 7)
        table[key] = table.get(key, 0) + i
        total += third * (i % 11)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("solve", "setup", "trace", "prime"))
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    result: dict = {"mode": args.mode}
    if args.mode == "prime":
        args.out.write_text(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = workloads.setup(args.workload, args.seed, args.out.parent)
    result["ready"] = time.monotonic()
    reference = workloads.load_reference()
    operations = [len(workloads.expected(args.workload, job, reference)) for job in jobs]
    result["attempted"] = sum(operations)
    if args.mode == "setup":
        args.out.write_text(json.dumps(result))
        return 0

    if tracer is not None:
        tracer.start_solve()
    else:
        calibration = calibrate()
    outputs = []
    start = time.perf_counter()
    for job in jobs:
        try:
            outputs.append(job.call())
        except Exception as exc:  # an aborted job fails all its operations
            outputs.append(exc)
    result["solve_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        result["calibration_s"] = [calibration, calibrate()]
    else:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["probes"] = tracer.probe_stats()

    problems = []
    for job, count, output in zip(jobs, operations, outputs):
        if isinstance(output, Exception):
            problems.extend([f"{job.name}: {type(output).__name__}: {output}"] * count)
        else:
            problems.extend(workloads.check(args.workload, job, output, reference))
    result["failed"] = len(problems)
    result["problems"] = problems[:20]
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
