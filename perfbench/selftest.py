"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics run.py prints, with the
same units, and that two traced passes of solve-hard and of verify-n7 give
identical counts: search nodes per (instance, invariant) and per suite,
calls, and graph constructions. These counts are the deterministic baseline
that solver and enumeration changes are compared on. Exits 1 on a mismatch.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import END_TO_END, ROOT, per_layer_units, run_pass  # noqa: E402


def main() -> int:
    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", END_TO_END), ("per_layer", per_layer_units())):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        if listed != units:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(units.items()))}")

    count_keys = [k for k, u in per_layer_units().items() if u == "count"]
    deadline = time.monotonic() + 600
    for workload in ("solve-hard", "verify-n7"):
        counts = []
        for i in range(2):
            r = run_pass(workload, 0, "full", 1, f"selftest/{workload}/pass{i}", deadline)
            if r is None or r["failed"]:
                problems.append(f"{workload} pass {i} failed: {r and r['failures']}")
                break
            counts.append((r.get("nodes"), {k: r["layers"][k] for k in count_keys
                                            if k in r["layers"]}))
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{workload}: counts differ between two passes")
        elif counts:
            print(f"{workload}: counts identical across two passes "
                  f"({len(counts[0][1])} layer counts, "
                  f"{len(counts[0][0] or {})} per-instance node counts)")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
