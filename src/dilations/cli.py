"""Command-line interface.

Subcommands: gen, dilate, power, invariant, keg, classify, berge, enumerate,
derive-nb, verify. Each subcommand accepts only the options it reads and
at most one input source. It returns its effective configuration and a
payload, the JSON result under --format json and otherwise the text lines;
`main` alone writes them, to stdout or --out. Text and csv output carry the
configuration as '#' comment lines, json embeds it in the document. Exit
codes: 0 success, 1 verification failure, 2 usage error (including an input
file that cannot be read or parsed, a malformed witness and an --out path
that cannot be written), 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .berge import BergeWitness, search_berge_witness, verify_berge_witness
from .dilation import (DilationSpec, classify_dilation, check_dilation_properties,
                       dilate, generalized_power)
from .errors import SearchBudgetExceeded
from .families import (derive_g2nb_candidates, extremal_class_gamma1,
                       in_family_g1, in_family_g2b, in_family_g2nb,
                       is_generalized_corona, union_family_member)
from .graphs import (Graph, graph_from_family_string, parse_graph,
                     serialize_graph, to_graph6)
from .harness import SUITES, run_suites
from .hypergraphs import (Hypergraph, builtin_hypergraph, parse_hypergraph,
                          to_hypergraph_text)
from .invariants import (DEFAULT_NODE_CAP, domination_number, is_keg,
                         matching_number, transversal_number)
from .isomorphism import canonical_form, enumerate_connected

_INVARIANT_FNS = {"gamma": domination_number, "nu": matching_number,
                  "tau": transversal_number}


def _graph_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges()], "graph6": to_graph6(g)}


def _hypergraph_json(h: Hypergraph) -> dict:
    return {"m": h.m, "edges": h.edge_sets(), "rank": h.rank}


def _load_graph(args) -> Graph:
    if getattr(args, "family", None):
        return graph_from_family_string(args.family)
    if getattr(args, "graph", None):
        text = Path(args.graph).read_text()
        fmt = args.graph_format or "auto"
        if fmt == "auto":
            stripped = next((ln for ln in text.splitlines()
                             if ln.strip() and not ln.lstrip().startswith("#")), "")
            fmt = "edge_list" if len(stripped.split()) > 1 else "graph6"
        return parse_graph(fmt, text)
    raise ValueError("one of --family or --graph is required")


def _load_hypergraph(spec: str) -> Hypergraph:
    if spec == "fano":
        return builtin_hypergraph("fano")
    return parse_hypergraph(Path(spec).read_text())


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _int_list(text: str, option: str) -> tuple[int, ...]:
    """The comma-separated integers given to `option`; a usage error names
    the option and the first bad entry."""
    values = []
    for i, entry in enumerate(text.split(","), start=1):
        try:
            values.append(int(entry))
        except ValueError:
            what = "is empty" if not entry.strip() else f"is not an integer: {entry!r}"
            raise ValueError(f"{option}: entry {i} of {text!r} {what}") from None
    return tuple(values)


def _build_spec(args, g: Graph) -> DilationSpec:
    if args.s_uniform is not None:
        s = (args.s_uniform,) * g.n
    elif args.s is not None:
        s = _int_list(args.s, "--s")
    else:
        raise ValueError("provide --s or --s-uniform")
    if args.a_uniform is not None:
        a = (args.a_uniform,) * g.edge_count
    elif args.a is not None:
        a = _int_list(args.a, "--a")
    else:
        raise ValueError("provide --a or --a-uniform")
    return DilationSpec(args.k, s, a)


def _add_graph_args(p):
    """Add the graph inputs; returns their mutually exclusive group."""
    source = p.add_mutually_exclusive_group()
    source.add_argument("--family", help="family spec string, e.g. 'cycle:5' or 'corona:cycle:3'")
    source.add_argument("--graph", help="path to a graph6 or edge-list file")
    p.add_argument("--graph-format", choices=["auto", "graph6", "edge_list"],
                   help="format of the --graph file (default: auto)")
    return source


def _add_spec_args(p):
    p.add_argument("--s", help="comma-separated copy-block sizes per vertex")
    p.add_argument("--s-uniform", type=int)
    p.add_argument("--a", help="comma-separated additional-block sizes per edge")
    p.add_argument("--a-uniform", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilations",
        description="Exact dilation constructions, domination/matching/transversal "
                    "certificates, family classification, and identity verification.")
    parser.add_argument("--version", action="version", version=f"dilations {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json", "csv"], default="text")
    common.add_argument("--no-timestamp", action="store_true")
    common.add_argument("--out", help="write output to this path instead of stdout")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--node-cap", type=_int_at_least(1), default=DEFAULT_NODE_CAP)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="emit a graph from a family spec")
    _add_graph_args(p)
    p.add_argument("--encoding", choices=["graph6", "edge_list"], default="graph6")

    p = sub.add_parser("dilate", parents=[common], help="build a dilation with its witness")
    _add_graph_args(p)
    p.add_argument("--k", type=int, required=True)
    _add_spec_args(p)

    p = sub.add_parser("power", parents=[common], help="build the generalized power G^(k,s)")
    _add_graph_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = sub.add_parser("invariant", parents=[capped],
                       help="compute gamma, nu, or tau with a certificate")
    _add_graph_args(p).add_argument("--hypergraph",
                                    help="hypergraph file path, or builtin name 'fano'")
    p.add_argument("--param", choices=["gamma", "nu", "tau"], required=True)
    p.add_argument("--mode", choices=["branch_and_bound", "exhaustive"],
                   default="branch_and_bound")

    p = sub.add_parser("keg", parents=[capped],
                       help="test tau = nu with both certificates")
    _add_graph_args(p)

    p = sub.add_parser("classify", parents=[common],
                       help="classify a dilation, or a graph against the families")
    _add_graph_args(p)
    p.add_argument("--what", choices=["dilation", "families"], default="families")
    p.add_argument("--k", type=int)
    _add_spec_args(p)

    p = sub.add_parser("berge", parents=[capped], help="verify or search Berge witnesses")
    p.add_argument("action", choices=["verify", "search"])
    _add_graph_args(p)
    p.add_argument("--hypergraph", required=True,
                   help="hypergraph file path, or builtin name 'fano'")
    p.add_argument("--witness", help="witness JSON file (for verify)")

    p = sub.add_parser("enumerate", parents=[common],
                       help="list connected graphs up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-degree", type=_int_at_least(0))
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--bipartite", action="store_true")
    grp.add_argument("--non-bipartite", action="store_true")

    p = sub.add_parser("derive-nb", parents=[common],
                       help="derive the non-bipartite min-degree-2 candidates")
    p.add_argument("--max-n", type=int, default=8)

    p = sub.add_parser("verify", parents=[capped], help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, help="hereditary's seed (default: 0)")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--max-n", type=int)
    p.add_argument("--samples", type=_int_at_least(0),
                   help="hereditary's random dilations per graph (default: 1)")
    return parser


def _payload(args, result: dict, lines: list[str]):
    """What main writes: the JSON result under --format json, else the text lines."""
    return result if args.format == "json" else lines


def _dilation_payload(args, g, h, w, rank_note: str):
    """The payload of dilate and power; text mode skips the property checks."""
    cls = classify_dilation(h, w).value
    if args.format != "json":
        return [f"# class: {cls}, rank {h.rank}{rank_note}", to_hypergraph_text(h)]
    report = check_dilation_properties(g, h, w)
    return {
        "hypergraph": _hypergraph_json(h),
        "witness": w.to_json(),
        "class": cls,
        "rank": h.rank,
        "declared_rank": w.declared_rank,
        "rank_attained": h.rank == w.declared_rank,
        "property_checks": {
            "two_supports_per_edge": report.two_supports_per_edge,
            "adjacency_preserved": report.adjacency_preserved,
            "disjointness_preserved": report.disjointness_preserved,
            "connectivity_preserved": report.connectivity_preserved,
        },
    }


def _cmd_gen(args):
    g = _load_graph(args)
    config = {"family": args.family, "graph": args.graph, "encoding": args.encoding}
    return config, _payload(args, _graph_json(g), [serialize_graph(args.encoding, g)])


def _cmd_dilate(args):
    g = _load_graph(args)
    spec = _build_spec(args, g)
    config = {"family": args.family, "graph": args.graph, "k": spec.k,
              "s": list(spec.s), "a": list(spec.a)}
    h, w = dilate(g, spec)
    return config, _dilation_payload(args, g, h, w, f" of declared {spec.k}")


def _cmd_power(args):
    g = _load_graph(args)
    config = {"family": args.family, "graph": args.graph, "k": args.k, "s": args.s}
    h, w = generalized_power(g, args.k, args.s)
    return config, _dilation_payload(args, g, h, w, "")


def _cmd_invariant(args):
    if args.hypergraph:
        target = _load_hypergraph(args.hypergraph)
        source = {"hypergraph": args.hypergraph}
    else:
        target = _load_graph(args)
        source = {"family": args.family, "graph": args.graph}
    config = {**source, "param": args.param, "mode": args.mode, "node_cap": args.node_cap}
    cert = _INVARIANT_FNS[args.param](target, mode=args.mode, node_cap=args.node_cap)
    return config, _payload(args, cert.to_json(), [f"{cert.parameter} = {cert.value}"])


def _cmd_keg(args):
    g = _load_graph(args)
    config = {"family": args.family, "graph": args.graph, "node_cap": args.node_cap}
    verdict = is_keg(g, node_cap=args.node_cap)
    return config, _payload(args, verdict.to_json(), [
        f"keg = {str(verdict.keg).lower()}"
        f" (tau = {verdict.tau.value}, nu = {verdict.nu.value})"])


def _cmd_classify(args):
    g = _load_graph(args)
    if args.what == "dilation":
        if args.k is None:
            raise ValueError("classify --what dilation requires --k and block sizes")
        spec = _build_spec(args, g)
        config = {"family": args.family, "graph": args.graph, "what": "dilation",
                  "k": spec.k, "s": list(spec.s), "a": list(spec.a)}
        cls = classify_dilation(*dilate(g, spec)).value
        return config, _payload(args, {"class": cls}, [f"class = {cls}"])
    if any(v is not None for v in (args.k, args.s, args.s_uniform, args.a, args.a_uniform)):
        raise ValueError("--k and block sizes apply only to classify --what dilation")
    config = {"family": args.family, "graph": args.graph, "what": "families"}
    extremal = extremal_class_gamma1(g) if g.is_connected() and g.edge_count else None
    result = {
        "g2b": in_family_g2b(g).to_json(),
        "g2nb": in_family_g2nb(g).to_json(),
        "g1": in_family_g1(g).to_json(),
        "generalized_corona": is_generalized_corona(g).to_json(),
        "union_member": union_family_member(g).to_json()
        if g.is_connected() else None,
        "extremal_gamma1": extremal.to_json() if extremal else None,
    }
    lines = [f"{name}: member = {str(result[name]['member']).lower()}"
             for name in ("g2b", "g2nb", "g1", "generalized_corona")]
    if extremal:
        lines.append(f"extremal_gamma1: {extremal.kind} (gamma = {extremal.realized_gamma})")
    return config, _payload(args, result, lines)


def _cmd_berge(args):
    g = _load_graph(args)
    h = _load_hypergraph(args.hypergraph)
    config = {"family": args.family, "graph": args.graph,
              "hypergraph": args.hypergraph, "action": args.action}
    if args.action == "verify":
        if not args.witness:
            raise ValueError("berge verify requires --witness")
        w = BergeWitness.from_json(json.loads(Path(args.witness).read_text()))
        valid = verify_berge_witness(g, h, w)
        return config, _payload(args, {"valid": valid, "witness": w.to_json()},
                                [f"valid = {str(valid).lower()}"])
    if args.witness:
        raise ValueError("--witness applies only to berge verify")
    witness = search_berge_witness(g, h, node_cap=args.node_cap)
    if witness is None:
        return config, _payload(args, {"found": False, "witness": None}, ["NotBerge"])
    return config, _payload(args, {"found": True, "witness": witness.to_json()}, [
        "witness found", json.dumps(witness.to_json(), sort_keys=True)])


def _cmd_enumerate(args):
    bipartite = True if args.bipartite else (False if args.non_bipartite else None)
    config = {"n": args.n, "min_degree": args.min_degree, "bipartite": bipartite}
    codes = [to_graph6(g) for g in enumerate_connected(
        args.n, min_degree=args.min_degree, bipartite=bipartite)]
    return config, _payload(args, {"count": len(codes), "graphs": codes}, codes)


def _cmd_derive_nb(args):
    config = {"max_n": args.max_n}
    codes = [canonical_form(g) for g in derive_g2nb_candidates(args.max_n)]
    return config, _payload(args, {"cap": args.max_n, "count": len(codes), "graphs": codes},
                            codes)


def _cmd_verify(args):
    """Also returns the exit code: 1 when some suite fails."""
    if args.suite not in ("hereditary", "all"):
        for option, value in (("--seed", args.seed), ("--samples", args.samples)):
            if value is not None:
                raise ValueError(f"{option} applies only to verify hereditary and all")
    samples = 1 if args.samples is None else args.samples
    seed = 0 if args.seed is None else args.seed
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, args.max_n, samples, seed, args.node_cap, args.jobs)
    ok = all(r.ok for r in reports)
    config = {"suites": names, "max_n": args.max_n, "samples": samples, "seed": seed}
    lines = [r.to_csv() if args.format == "csv" else r.to_text() for r in reports]
    result = {"reports": [r.to_json_dict() for r in reports], "ok": ok}
    return config, _payload(args, result, lines), int(not ok)


_COMMANDS = {
    "gen": _cmd_gen, "dilate": _cmd_dilate, "power": _cmd_power,
    "invariant": _cmd_invariant, "keg": _cmd_keg, "classify": _cmd_classify,
    "berge": _cmd_berge, "enumerate": _cmd_enumerate,
    "derive-nb": _cmd_derive_nb, "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if getattr(args, "graph_format", None) and not args.graph:
            raise ValueError("--graph-format applies only to --graph")
        config, payload, *code = _COMMANDS[args.command](args)
        if args.format == "json":
            doc = {"command": args.command, "config": config, "result": payload}
            lines = [json.dumps(doc, indent=2, sort_keys=True)]
        else:
            lines = [f"# dilations {args.command} | config: "
                     + json.dumps(config, sort_keys=True)]
            if not args.no_timestamp:
                lines.append("# generated: " + datetime.now(timezone.utc).isoformat())
            lines += (line.rstrip("\n") for line in payload)
        text = "\n".join(lines) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except SearchBudgetExceeded as exc:
        bound = "" if exc.best_bound is None else f", best bound: {exc.best_bound}"
        sys.stderr.write(f"timeout: {exc} (nodes: {exc.node_count}{bound})\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
