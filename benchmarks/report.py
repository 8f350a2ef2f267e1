"""Markdown table of each layer's share of solve time, from a traced record.

    python3 benchmarks/report.py benchmarks/BENCH_seed_trace.json

A layer's share is the self time of its probes (time minus traced
children) in the traced repetition, over that repetition's solve time.
Self times of nested probes partition the time inside the outermost probe,
so the shares and ``outside every probe`` add up to 100 %.  The traced times
include the probes' own overhead, which the ``trace.overhead_s`` column
gives per workload.
"""

from __future__ import annotations

import json
import sys

LAYERS = (
    "scalars", "ordering", "rewrite", "presentations", "freealg",
    "coalgebra", "analysis", "claims", "cli",
)


def share_table(record: dict) -> str:
    rows = []
    header = "| layer | " + " | ".join(w["workload"] for w in record["workloads"]) + " |"
    rows.append(header)
    rows.append("|---" * (len(record["workloads"]) + 1) + "|")
    shares = []
    for w in record["workloads"]:
        solve = w["traced_solve_s"]
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for name, stat in w["probes"].items():
            by_layer[name.split(".")[0]] += stat["self_s"]
        by_layer["outside every probe"] = solve - sum(by_layer.values())
        shares.append({k: v / solve for k, v in by_layer.items()})
    for layer in (*LAYERS, "outside every probe"):
        rows.append(f"| {layer} | " + " | ".join(f"{s[layer]:.1%}" for s in shares) + " |")
    rows.append(
        "| traced solve_s | "
        + " | ".join(f"{w['traced_solve_s']:.2f} s" for w in record["workloads"])
        + " |"
    )
    rows.append(
        "| untraced solve_s (median) | "
        + " | ".join(f"{w['solve_s_median']:.2f} s" for w in record["workloads"])
        + " |"
    )
    rows.append(
        "| trace.overhead_s | "
        + " | ".join(f"{w['layers']['trace.overhead_s']:.2f} s" for w in record["workloads"])
        + " |"
    )
    return "\n".join(rows)


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        record = json.load(fh)
    print(share_table(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
