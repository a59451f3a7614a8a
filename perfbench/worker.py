"""One pass of one workload, in a fresh process.

Run by perfbench/run.py; prints one JSON object on its last line of standard
output. The pass first sets up (imports the package from the checkout's
`src/` and loads the shipped G2NB asset), reports the wall-clock instant it
became ready, then times the workload, then checks every output. Checks run
after the timed region and outside any tracing.

    python3 perfbench/worker.py --workload solve-hard --seed 1 --scope none
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
import warnings
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SOLVERS, SUITE_FUNCTIONS, Tracer  # noqa: E402

WORKLOADS = ("enumerate-n8", "verify-n7", "solve-hard", "verify-n7-jobs2")

# connected graphs on n = 1..8 vertices up to isomorphism (OEIS A001349)
A001349 = (1, 1, 2, 6, 21, 112, 853, 11117)
# sha256 prefix of the newline-joined canonical codes of each n, in output order
CODE_DIGESTS = {1: "c3641f8544d7c02f", 2: "ada8d598e51a0bf0", 3: "2c1256ffd0617e16",
                4: "bf158ea8c37a3ec7", 5: "5de92424af99346f", 6: "866bd05423740958",
                7: "d56b3e350da1f98a", 8: "4dfd021435b77755"}

# instances per suite of `verify all --max-n 7`
SUITE_INSTANCES = {"hereditary": 995, "extremal-gamma1": 995, "extremal-gamma0": 995,
                   "nonextremal": 42, "counterexample": 4}

# random part of solve-hard: many moderate instances, so that the pass time
# varies little from seed to seed (one large random instance varies 5x)
BATCH_SIZE = 120


def setup():
    """Fresh process to ready: import the package and load the shipped asset."""
    sys.path.insert(0, str(SRC))
    import dilations
    import dilations.cli
    if Path(dilations.__file__).resolve().parent != SRC / "dilations":
        raise SystemExit(f"dilations imported from {dilations.__file__}, not {SRC}")
    dilations.load_g2nb_candidates()
    return dilations


def run_cli(dilations, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dilations.cli.main(argv)
    return code, buf.getvalue()


class Items:
    """Checked items of one pass; an item fails if any of its checks fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "", count: int = 1,
            failed: int | None = None):
        """Record `count` items; `failed` of them failed (all of them when not ok)."""
        if failed is None:
            failed = 0 if ok else count
        self.attempted += count
        self.failed += failed
        if failed:
            self.failures.append(f"{name}: {detail}" if detail else name)


# -- enumerate-n8 ---------------------------------------------------------------

def enumerate_pass(dilations, seed: int, jobs: int):
    code, out = run_cli(dilations, ["enumerate", "--n", "8", "--format", "json",
                                    "--no-timestamp"])
    return {"code": code, "out": out}


def enumerate_check(dilations, state, items: Items) -> dict:
    from dilations import canonical_form, enumerate_connected, parse_graph6
    doc = json.loads(state["out"]) if state["code"] == 0 else {"result": {"graphs": []}}
    for n, expected in enumerate(A001349, start=1):
        if n == 8:
            graphs = [parse_graph6(s) for s in doc["result"]["graphs"]]
        else:
            graphs = list(enumerate_connected(n))
        codes = [canonical_form(g) for g in graphs]
        digest = hashlib.sha256("\n".join(codes).encode()).hexdigest()[:16]
        ok = len(codes) == expected and digest == CODE_DIGESTS[n]
        items.add(f"n={n}", ok, f"{len(codes)} classes (expected {expected}), codes {digest}")
    return {}


# -- verify-n7 and verify-n7-jobs2 ---------------------------------------------------

def verify_pass(dilations, seed: int, jobs: int):
    code, out = run_cli(dilations, ["verify", "all", "--max-n", "7", "--jobs", str(jobs),
                                    "--seed", str(seed), "--format", "json",
                                    "--no-timestamp"])
    return {"code": code, "out": out}


def verify_check(dilations, state, items: Items) -> dict:
    try:
        doc = json.loads(state["out"])
    except json.JSONDecodeError:
        doc = {"result": {"reports": [], "ok": False}}
    reports = {r["suite"]: r for r in doc["result"]["reports"]}
    for suite, expected in SUITE_INSTANCES.items():
        r = reports.get(suite, {"instance_count": 0, "hard_failure_count": 0})
        items.add(f"{suite}:instances", r["instance_count"] == expected,
                  f"{r['instance_count']} instances (expected {expected})")
        items.add(f"{suite}:hard_failures", True, count=r["instance_count"],
                  failed=r["hard_failure_count"])
    items.add("ok", state["code"] == 0 and doc["result"]["ok"] is True,
              f"exit code {state['code']}")
    return {"output_sha256": hashlib.sha256(state["out"].encode()).hexdigest()}


# -- solve-hard -----------------------------------------------------------------------

def _gnp(Graph, n: int, p: float, rng: random.Random):
    """A connected G(n, p) graph, by rejection."""
    while True:
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < p])
        if g.is_connected():
            return g


def solve_hard_inputs(seed: int) -> list[tuple]:
    """(name, invariant, instance, support graph or None) for each solve.

    Fixed corpus: the known blow-ups of the branch and bound. Random part:
    BATCH_SIZE seeded moderate graphs and gamma1 dilations.
    """
    from dilations import (DilationClass, Graph, classify_dilation, corona, cycle,
                           generalized_power)

    def gamma1_power(g, k, s):
        h, w = generalized_power(g, k, s)
        if classify_dilation(h, w) is not DilationClass.GAMMA1:
            raise SystemExit(f"{g!r}^({k},{s}) is not a gamma1 dilation")
        return h

    fixed = random.Random("solve-hard corpus")
    g18, g24 = _gnp(Graph, 18, 0.3, fixed), _gnp(Graph, 24, 0.3, fixed)
    c9 = corona(cycle(9))
    solves = [("C23_4_1", "gamma", gamma1_power(cycle(23), 4, 1), cycle(23)),
              ("C25_4_1", "gamma", gamma1_power(cycle(25), 4, 1), cycle(25)),
              ("C25", "tau", cycle(25), None),
              ("corona_C9_5_2", "gamma", gamma1_power(c9, 5, 2), c9),
              ("C31_4_1", "nu", gamma1_power(cycle(31), 4, 1), cycle(31)),
              ("G18", "nu", g18, None),
              ("G24", "tau", g24, None)]
    rng = random.Random(f"solve-hard batch {seed}")
    for i in range(BATCH_SIZE):
        g = _gnp(Graph, 14, 0.3, rng)
        d = _gnp(Graph, 10, 0.3, rng)
        h = gamma1_power(d, 4, 1)
        solves += [(f"batch{i}.G14", "gamma", g, None), (f"batch{i}.G14", "nu", g, None),
                   (f"batch{i}.G14", "tau", g, None), (f"batch{i}.G10_4_1", "gamma", h, d),
                   (f"batch{i}.G10_4_1", "nu", h, d)]
    return solves


def solve_pass(dilations, seed: int, jobs: int, solves: list[tuple]):
    fns = {"gamma": dilations.invariants.domination_number,
           "nu": dilations.invariants.matching_number,
           "tau": dilations.invariants.transversal_number}
    certs = []
    for _name, param, x, _support in solves:
        try:
            certs.append(fns[param](x))
        except Exception as exc:  # a failed solve is a failed item, not a crash
            certs.append(exc)
    return {"certs": certs, "solves": solves}


def _nx(g):
    import networkx as nx
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def _reference_nu(g) -> int:
    import networkx as nx
    return len(nx.max_weight_matching(_nx(g), maxcardinality=True))


def _reference_tau(g) -> int:
    """n minus the independence number, found as a maximum clique of the complement."""
    import networkx as nx
    _clique, alpha = nx.max_weight_clique(nx.complement(_nx(g)), weight=None)
    return g.n - alpha


def solve_check(dilations, state, items: Items) -> dict:
    """Plain graphs: nu against networkx, tau against n - alpha from networkx,
    gamma against the package's exhaustive reference mode. Dilations: the
    paper's identities gamma(H) = tau(G) on gamma1 hosts and nu(H) = nu(G).
    Every witness must pass check_certificate."""
    from dilations import check_certificate, domination_number
    nodes = {}
    for (name, param, x, support), cert in zip(state["solves"], state["certs"]):
        key = f"{name}.{param}"
        if isinstance(cert, Exception):
            items.add(key, False, f"raised {type(cert).__name__}: {cert}")
            continue
        nodes[key] = cert.node_count
        if support is not None:
            expected = _reference_tau(support) if param == "gamma" else _reference_nu(support)
        elif param == "nu":
            expected = _reference_nu(x)
        elif param == "tau":
            expected = _reference_tau(x)
        else:
            expected = domination_number(x, mode="exhaustive").value
        ok = cert.value == expected and check_certificate(x, cert)
        items.add(key, ok, f"value {cert.value}, expected {expected}")
    return {"nodes": nodes}


# -- one pass ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, cache_before, cache_after) -> dict:
    selfs = tracer.self_times()
    walls = tracer.wall_times()
    calls = tracer.calls
    hits = cache_after.hits - cache_before.hits
    lookups = hits + cache_after.misses - cache_before.misses
    m = {"isomorphism.canonical_form.calls": calls["isomorphism.canonical_form"],
         "isomorphism.canonical_form.self_s": selfs["isomorphism.canonical_form"],
         "isomorphism.canonical_form.cache_hit_ratio": hits / lookups if lookups else 0.0,
         "isomorphism.canonical_labeling.self_s": selfs["isomorphism.canonical_labeling"],
         "isomorphism.enumerate_connected.self_s": selfs["isomorphism.enumerate_connected"],
         "graphs.Graph.constructions": tracer.constructions}
    for p, fn in SOLVERS.items():
        m[f"invariants.{p}.calls"] = calls[fn]
        m[f"invariants.{p}.self_s"] = selfs[fn]
        m[f"invariants.{p}.nodes"] = tracer.nodes[fn]
        m[f"invariants.{p}.max_nodes"] = tracer.max_nodes[fn]
        m[f"invariants.{p}.nodes_per_s"] = tracer.nodes[fn] / selfs[fn] if selfs[fn] else 0.0
    m["invariants.budget_exceeded"] = sum(
        count for (name, exc), count in tracer.errors.items()
        if exc == "SearchBudgetExceeded")
    for name in ("dilation.dilate", "families.union_family_member"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = selfs[name]
    for name in ("dilation.classify_dilation", "hypergraphs.closed_neighborhoods",
                 "berge.random_berge", "cli.main"):
        m[f"{name}.self_s"] = selfs[name]
    for name in ("families.load_g2nb_candidates", "graphs.parse_graph6",
                 "graphs.structure_profile"):
        m[f"{name}.calls"] = calls[name]
    suite_nodes = tracer.nodes_by_suite()
    for suite, fn in SUITE_FUNCTIONS.items():
        m[f"harness.{suite}.wall_s"] = walls[fn]
        m[f"harness.{suite}.instances"] = tracer.instances[fn]
        m[f"harness.{suite}.nodes"] = suite_nodes.get(fn, 0)
    m["harness.tasks"] = tracer.tasks
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("setup",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--scope", choices=("none", "full", "suite"), default="none")
    ap.add_argument("--run-id", default="pass")
    ap.add_argument("--spans", help="write the pass's spans to this file")
    ap.add_argument("--cpu", type=int, help="run on this CPU only")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    dilations = setup()
    ready = time.time()
    if args.workload == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    warnings.simplefilter("ignore", dilations.RankDeficitWarning)

    if args.workload == "enumerate-n8":
        run, check, extra = enumerate_pass, enumerate_check, ()
    elif args.workload == "solve-hard":
        run, check, extra = solve_pass, solve_check, (solve_hard_inputs(args.seed),)
    else:
        run, check, extra = verify_pass, verify_check, ()

    tracer = Tracer(args.run_id, args.scope) if args.scope != "none" else None
    canonical_form = dilations.isomorphism.canonical_form  # unwrapped, for its cache_info
    cache_before = canonical_form.cache_info()
    if tracer:
        tracer.install(dilations)
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with tracer.span(f"perfbench.{args.workload}") if tracer else nullcontext():
        state = run(dilations, args.seed, args.jobs, *extra)
    wall = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cache_after = canonical_form.cache_info()
    if tracer:
        tracer.uninstall()
    cpu = sum(u1.ru_utime + u1.ru_stime - u0.ru_utime - u0.ru_stime
              for u0, u1 in ((usage0, usage1), (children0, children1)))
    peak_kb = max(usage1.ru_maxrss, children1.ru_maxrss)

    items = Items()
    result = check(dilations, state, items)
    result.update({"ready": ready, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024,
                   "attempted": items.attempted, "failed": items.failed,
                   "failures": items.failures[:20]})
    if tracer:
        result["layers"] = layer_metrics(tracer, cache_before, cache_after)
        if args.spans:
            tracer.write(Path(args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
