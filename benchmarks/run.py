"""Cold-start benchmark for diamond.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1 [--record PATH]

W is one of verify-all, confluence-dense, confluence-power, growth-census,
or ``all`` to run the four in turn.  Every repetition is a fresh interpreter
(benchmarks/child.py), started one after another from this process, so the
module-level caches of diamond start empty each time.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
one traced repetition.  The lines before it print every metric by name with
its unit, the failed operations over those attempted, and the run record
(Python version, nproc, platform, git commit).  ``--record PATH`` also
writes every sample to PATH as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"

WORKLOADS = ("verify-all", "confluence-dense", "confluence-power", "growth-census")
#: set-up-only children per run, on top of the set-up of every timed repetition
SETUP_REPS = 5
#: a run stops starting children after this many seconds, and kills any still
#: running, so that it ends within its 180 s limit
DEADLINE_S = 170.0


def declared_units() -> tuple:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    return tuple(
        {m["name"]: m["unit"] for m in declared[kind]} for kind in ("end_to_end", "per_layer")
    )


class Failed(Exception):
    """A repetition that produced no result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    # the thread-pool knob would change what a repetition measures
    env.pop("DIAMOND_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(TMP)
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one child to completion; return its result with ``setup_s``."""
    out = TMP / f"{workload}-{mode}-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    log = TMP / f"{workload}-{mode}-{os.getpid()}.stderr"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise Failed("run deadline reached")
    cmd = [
        sys.executable, "-s", str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, "--out", str(out),
    ]
    with open(log, "wb") as err:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.DEVNULL, stderr=err, env=child_env(),
                cwd=ROOT, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise Failed(f"{mode} child killed after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not out.is_file():
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        raise Failed(f"{mode} child exited {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(out.read_text())
    out.unlink()
    if "ready" in result:
        result["setup_s"] = result["ready"] - spawned
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All repetitions of one workload: set-up-only children, then cold
    timed repetitions until ``seconds`` would be exceeded, then (traced run)
    one traced repetition."""
    begin = time.monotonic()
    deadline = begin + DEADLINE_S
    spawn(workload, seed, "prime", deadline)
    setups, reps, errors = [], [], []
    attempted = failed = 0
    for _ in range(SETUP_REPS):
        setup = spawn(workload, seed, "setup", deadline)
        setups.append(setup["setup_s"])
    # what a repetition that dies counts as failed
    operations = setup["attempted"]
    # a traced run keeps half its time for the traced repetition
    budget = seconds / 2 if trace else seconds
    start = time.monotonic()
    durations: list = []
    # start another repetition if it is expected to end no later than half
    # a repetition past the budget, so runs last ``budget`` on average
    while not durations or time.monotonic() - start + statistics.mean(durations) / 2 <= budget:
        t0 = time.monotonic()
        try:
            rep = spawn(workload, seed, "solve", deadline)
        except Failed as exc:
            # nothing is known about this repetition but its operations
            errors.append(str(exc))
            attempted += operations
            failed += operations
            break
        durations.append(time.monotonic() - t0)
        reps.append(rep)
        setups.append(rep["setup_s"])
        attempted += rep["attempted"]
        failed += rep["failed"]
        errors.extend(rep["problems"])
    traced = None
    if trace and reps:
        try:
            traced = spawn(workload, seed, "trace", deadline)
            attempted += traced["attempted"]
            failed += traced["failed"]
            errors.extend(traced["problems"])
        except Failed as exc:
            errors.append(str(exc))
            attempted += operations
            failed += operations
    if not reps or (trace and traced is None):
        raise Failed(f"{workload}: no repetition completed ({'; '.join(errors[:3])})")
    solve = [rep["solve_s"] for rep in reps]
    solve_cal = [rep["solve_s"] / statistics.mean(rep["calibration_s"]) for rep in reps]
    record = {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "setup_s": setups,
        "solve_s": solve,
        "calibration_s": [rep["calibration_s"] for rep in reps],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
        "solve_s_median": statistics.median(solve),
        "metrics": {
            "solve_cal": statistics.median(solve_cal),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        },
        "wall_s": time.monotonic() - begin,
    }
    if traced is not None:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["solve_s"] - record["solve_s_median"]
        record["traced_solve_s"] = traced["solve_s"]
        record["layers"] = layers
        record["probes"] = traced["probes"]
    return record


def run_info() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit or "unknown",
    }


def summary_lines(record: dict, trace: bool) -> list:
    w = record["workload"]
    solve = record["solve_s"]
    lines = [
        f"{w}: solve_s median {record['solve_s_median']:.4f} s, "
        f"max {max(solve):.4f} s over {len(solve)} cold repetitions "
        f"(too few for a higher percentile)",
        f"{w}: solve_cal {record['metrics']['solve_cal']:.4f} ratio "
        f"(solve time over calibration-loop time, median)",
        f"{w}: setup_s {record['metrics']['setup_s']:.4f} s "
        f"(median of {len(record['setup_s'])})",
        f"{w}: peak_rss_mb {record['metrics']['peak_rss_mb']:.1f} MiB",
        f"{w}: ops_failed {record['failed']} of {record['attempted']} attempted",
    ]
    if trace:
        units = declared_units()[1]
        for name, value in record["layers"].items():
            lines.append(f"{w}: {name} {value} {units[name]}")
    lines.extend(f"{w}: FAILED {e}" for e in record["errors"][:5])
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="write every sample to this JSON file")
    args = parser.parse_args()
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "diamond" / "__init__.py").is_file():
        print(f"error: no diamond sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    TMP.mkdir(exist_ok=True)
    info = run_info()
    records = []
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            records.append(record)
            for line in summary_lines(record, bool(args.trace)):
                print(line, flush=True)
    except Failed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print("run: " + " ".join(f"{k}={v}" for k, v in info.items()))
    if args.record:
        args.record.write_text(
            json.dumps({"run": info, "seconds": args.seconds, "workloads": records}, indent=1)
            + "\n"
        )

    units = declared_units()[1 if args.trace else 0]
    metrics = {}
    for record in records:
        values = record["layers"] if args.trace else record["metrics"]
        if set(values) != set(units):
            print(f"error: metrics {sorted(set(values) ^ set(units))} not as declared",
                  file=sys.stderr)
            return 1
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for name in units:
            metrics[prefix + name] = {"value": values[name], "unit": units[name]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
