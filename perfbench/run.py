"""The dilations benchmark.

    python3 perfbench/run.py --workload verify-n7 --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout that holds `src/dilations`. Every pass of a
workload runs in a fresh process (perfbench/worker.py), so each pass pays
cold enumeration and set-up as a CLI invocation does. Load is batch and
closed-loop from one client: the next pass starts when the previous one has
ended, as long as it should end within --seconds.

--trace 0 reports the end-to-end metrics, medians over the untraced passes;
set-up time also over extra set-up-only processes. Times are scaled to a
reference core speed sampled while each process runs (corespeed.py). --trace 1
alternates traced and untraced passes and reports the per-layer metrics,
medians over the traced passes, plus the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. The lines
before it print every metric with its unit, the seed, and fail_ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from corespeed import CoreSpeed  # noqa: E402
from spans import SOLVERS, SUITE_FUNCTIONS  # noqa: E402

# workload -> pool size; verify-n7-jobs2 also runs one serial reference pass
# whose output must be byte-identical and whose suite times give the
# parallel efficiency
WORKLOADS = {"enumerate-n8": 1, "verify-n7": 1, "solve-hard": 1, "verify-n7-jobs2": 2}

SETUP_PROBES = 9
RUN_LIMIT_S = 170  # every run ends well within the 180 s a run may take

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# solve-hard instances whose node counts are reported one by one
FIXED_SOLVES = ("C23_4_1.gamma", "C25_4_1.gamma", "C25.tau", "corona_C9_5_2.gamma",
                "C31_4_1.nu", "G18.nu", "G24.tau")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    names = ["isomorphism.canonical_form.calls", "isomorphism.canonical_form.self_s",
             "isomorphism.canonical_form.cache_hit_ratio",
             "isomorphism.canonical_labeling.self_s",
             "isomorphism.enumerate_connected.self_s", "graphs.Graph.constructions"]
    for p in SOLVERS:
        names += [f"invariants.{p}.{stat}"
                  for stat in ("calls", "self_s", "nodes", "max_nodes", "nodes_per_s")]
    names += ["invariants.budget_exceeded", "dilation.dilate.calls", "dilation.dilate.self_s",
              "dilation.classify_dilation.self_s", "hypergraphs.closed_neighborhoods.self_s",
              "berge.random_berge.self_s", "families.union_family_member.calls",
              "families.union_family_member.self_s", "families.load_g2nb_candidates.calls",
              "graphs.parse_graph6.calls", "graphs.structure_profile.calls", "cli.main.self_s"]
    for suite in SUITE_FUNCTIONS:
        names += [f"harness.{suite}.{stat}" for stat in ("wall_s", "instances", "nodes")]
    names += ["harness.tasks", "harness.parallel_efficiency"]
    names += [f"solve.{key}.nodes" for key in FIXED_SOLVES]
    names += [f"solve.batch.{p}.nodes" for p in SOLVERS]
    names += ["trace.overhead_s"]

    def unit(name: str) -> str:
        if name.endswith("nodes_per_s"):
            return "1/s"
        if name.endswith("_s"):
            return "s"
        if name.endswith(("_ratio", "_efficiency")):
            return "ratio"
        return "count"
    return {name: unit(name) for name in names}


def run_pass(workload: str, seed: int, scope: str, jobs: int, run_id: str,
             deadline: float, cpu: int | None = None) -> dict | None:
    """One fresh worker process, pinned to `cpu` if given, while the speed of
    the CPUs it may use is sampled; None if it failed or ran out of time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--jobs", str(jobs), "--scope", scope, "--run-id", run_id]
    if scope != "none":
        cmd += ["--spans", str(ROOT / ".perfbench" / f"spans-{workload}.jsonl.gz")]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    cpus = [cpu] if cpu is not None else sorted(os.sched_getaffinity(0))
    with CoreSpeed(cpus) as speed:
        spawned = time.time()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and its pool workers
            proc.communicate()
            print(f"pass {run_id} ran out of time", file=sys.stderr)
            return None
    if proc.returncode != 0:
        print(f"pass {run_id} exited {proc.returncode}:\n{err}", file=sys.stderr)
        return None
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["scope"] = scope
    result["slowdown"] = speed.slowdown
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dilations" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/dilations package to benchmark", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    jobs = WORKLOADS[args.workload]
    traced_scope = "suite" if jobs > 1 else "full"
    run_id = f"{args.workload}/seed{args.seed}"
    attempted = failed = 0
    failures: list[str] = []

    def check(name: str, ok: bool):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(name)

    cpus = sorted(os.sched_getaffinity(0))
    setups = []
    for i in range(SETUP_PROBES):
        probe = run_pass("setup", args.seed, "none", 1, f"setup{i}", deadline,
                         cpus[i % len(cpus)])
        check(f"setup probe {i}", probe is not None)
        if probe:
            setups.append(probe["setup_s"] / probe["slowdown"])

    reference = None
    if jobs > 1:
        reference = run_pass(args.workload, args.seed, "suite", 1, f"{run_id}/reference",
                             deadline, cpus[0])
        check("serial reference pass", reference is not None)

    # A pass starts only if it should end within --seconds, judged by the
    # longest pass so far; trace runs make at least one pass of each scope.
    # A serial pass is pinned, taking the CPUs in turn, so that the speed
    # samples come from the core it runs on; a pool pass may use every CPU.
    schedule = [traced_scope, "none"] if args.trace else ["none"]
    passes: list[dict] = []
    longest = 0.0
    measure_from = time.monotonic()
    while (len(passes) < len(schedule)
           or time.monotonic() - measure_from + longest <= args.seconds):
        started_pass = time.monotonic()
        result = run_pass(args.workload, args.seed, schedule[len(passes) % len(schedule)],
                          jobs, f"{run_id}/pass{len(passes) + 1}", deadline,
                          cpus[len(passes) % len(cpus)] if jobs == 1 else None)
        longest = max(longest, time.monotonic() - started_pass)
        check(f"pass {len(passes) + 1}", result is not None)
        if result is None:
            break
        passes.append(result)

    for r in passes + ([reference] if reference else []):
        attempted += r["attempted"]
        failed += r["failed"]
        failures += r["failures"]
        setups.append(r["setup_s"] / r["slowdown"])
    if reference:
        for r in passes:
            check("jobs 2 output byte-identical to jobs 1",
                  r["output_sha256"] == reference["output_sha256"])
    # counts made by the program repeat exactly from pass to pass
    check("solver nodes repeat across passes",
          len({json.dumps(r.get("nodes"), sort_keys=True) for r in passes}) <= 1)
    if passes and passes[0].get("nodes"):
        record = {"run_id": run_id, "nodes": passes[0]["nodes"]}
        out = ROOT / ".perfbench" / f"nodes-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    traced = [r for r in passes if r["scope"] != "none"]
    count_keys = [k for k, u in per_layer_units().items() if u == "count"]
    check("traced counts repeat across passes",
          len({json.dumps([r["layers"].get(k) for k in count_keys]) for r in traced}) <= 1)

    plain = [r for r in passes if r["scope"] == "none"]
    if not plain or not setups:
        print("error: no pass completed", file=sys.stderr)
        return 1
    # times are in seconds at the reference core speed (see corespeed.py)
    values = {"setup_s": statistics.median(setups),
              "wall_s": statistics.median(r["wall_s"] / r["slowdown"] for r in plain),
              "cpu_s": statistics.median(r["cpu_s"] / r["slowdown"] for r in plain),
              "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    raw = (f"as measured: wall_s {statistics.median(r['wall_s'] for r in plain):.4f} s, "
           f"cpu_s {statistics.median(r['cpu_s'] for r in plain):.4f} s; core slowdown "
           + " ".join(f"{r['slowdown']:.3f}" for r in plain))
    units = END_TO_END
    if args.trace:
        units = per_layer_units()
        values = {name: statistics.median(r["layers"].get(name, 0) for r in traced)
                  for name in units}
        nodes = passes[0].get("nodes", {})
        for key in FIXED_SOLVES:
            values[f"solve.{key}.nodes"] = nodes.get(key, 0)
        for p in SOLVERS:
            values[f"solve.batch.{p}.nodes"] = sum(
                v for k, v in nodes.items() if k.startswith("batch") and k.endswith("." + p))
        if reference and traced:
            serial = sum(reference["layers"][f"harness.{s}.wall_s"]
                         for s in SUITE_FUNCTIONS) / reference["slowdown"]
            parallel = statistics.median(
                sum(r["layers"][f"harness.{s}.wall_s"] for s in SUITE_FUNCTIONS)
                / r["slowdown"] for r in traced)
            values["harness.parallel_efficiency"] = serial / (2 * parallel)
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] / r["slowdown"] for r in traced)
            - statistics.median(r["wall_s"] / r["slowdown"] for r in plain))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} ({len(traced)} traced)  setups {len(setups)}  "
          f"elapsed {time.monotonic() - started:.1f} s")
    for name, unit in units.items():
        print(f"  {name:48s} {values[name]:>16.6g} {unit}")
    print(f"  {raw}")
    print(f"  {'fail_ratio':48s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} items)")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
