"""Command-line entry point.

One binary, nine subcommands::

    contains   order-preserving pattern containment between two graph files
    classify   extremal growth class of a tree
    enumerate  stream all trees with k edges (JSON-lines)
    catalog    write the derived obstruction patterns as graph files
    construct  build a named extremal construction (JSON, DOT or SVG)
    solve      exact extremal number by branch-and-bound
    embed      embed a (cg) z-tree into a dense host constructively
    extract    walk-free subgraph extraction from an edge-colored graph
    verify     run the release-gate checks and emit a CSV/JSON report

Single JSON documents go to stdout for verdict-like results; streams
(``enumerate``, ``contains --all``) are JSON-lines. Exit codes: 0 success,
1 verification failure, 2 malformed or inapplicable input, 3 negative result
(pattern not found, no embedding, or an explicit out-of-budget refusal).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from . import verify as verify_mod
from .constructions import f_n, f_n0, fh_q, fh_r, gstar, pow2
from .containment import find_embedding, iter_embeddings
from .errors import BudgetError, InputError, NotApplicableError
from .io import dumps_graph, graph_to_dict, load_graph
from .solver import embed_dense, extremal_number
from .trees import (
    ObstructionWitness,
    cg_z_decompose,
    classify_tree,
    derive_obstructions,
    enumerate_trees,
    z_decompose,
)
from .viz import to_dot, to_svg
from .walks import ColoredBipartite, extract_walk_free

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_NEGATIVE = 3


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _witness_dict(w) -> object:
    if isinstance(w, ObstructionWitness):
        # a graph is written in its file format, not field by field
        return {"pattern": graph_to_dict(w.pattern), "embedding": asdict(w.embedding)}
    return None if w is None else asdict(w)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_contains(args) -> int:
    host = load_graph(args.host)
    pattern = load_graph(args.pattern)
    if args.all:
        found = 0
        for emb in iter_embeddings(host, pattern, allow_reflection=args.reflect):
            print(json.dumps(asdict(emb)))
            found += 1
        return EXIT_OK if found else EXIT_NEGATIVE
    emb = find_embedding(host, pattern, allow_reflection=args.reflect)
    doc = {
        "found": emb is not None,
        "embedding": None if emb is None else asdict(emb),
    }
    print(json.dumps(doc))
    return EXIT_OK if emb is not None else EXIT_NEGATIVE


def _cmd_classify(args) -> int:
    t = load_graph(args.input)
    v = classify_tree(t)
    doc = {
        "kind": v.kind,
        "mode": v.mode,
        "k": v.k,
        "chi": v.chi,
        "formula": None if v.formula is None else str(v.formula),
        "growth_tag": v.growth_tag,
        "reason": v.reason,
        "witness": _witness_dict(v.witness),
    }
    print(json.dumps(doc))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    filt = "chi2" if args.chi2 else "all"
    for t in enumerate_trees(args.edges, args.mode, filt):
        print(dumps_graph(t))
    return EXIT_OK


def _cmd_catalog(args) -> int:
    catalog = derive_obstructions(args.max_edges)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for idx, (pat, prov) in enumerate(zip(catalog.patterns, catalog.provenance), 1):
        doc = graph_to_dict(pat)
        doc["provenance"] = prov
        path = out_dir / f"obstruction_{idx:02d}.json"
        path.write_text(json.dumps(doc) + "\n")
        print(path)
    return EXIT_OK


def _cmd_construct(args) -> int:
    name = args.name
    if name == "gstar":
        if None in (args.a, args.b, args.c):
            raise InputError("gstar needs --a, --b and --c")
        g = gstar(args.n, args.a, args.b, args.c)
    elif name in ("fh_q", "fh_r"):
        # the builder is parameterised by the stage s; the graph lives on 2s
        # vertices, so the CLI asks for the vertex count like everywhere else
        if args.n % 2:
            raise InputError(f"{name} graphs have an even vertex count, got {args.n}")
        g = (fh_q if name == "fh_q" else fh_r)(args.n // 2)
    else:
        g = {"pow2": pow2, "f_n": f_n, "f_n0": f_n0}[name](args.n)
    if args.dot:
        _emit(to_dot(g), args.out)
    elif args.svg:
        _emit(to_svg(g), args.out)
    else:
        _emit(json.dumps(graph_to_dict(g)), args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    result = extremal_number(args.n, load_graph(args.pattern))
    print(json.dumps(result.as_dict()))
    return EXIT_OK


def _cmd_embed(args) -> int:
    host = load_graph(args.host)
    tree = load_graph(args.ztree)
    dec = z_decompose(tree) if tree.mode == "ordered" else cg_z_decompose(tree)
    if not dec:
        raise NotApplicableError(f"--ztree is not decomposable: {dec.reason}")
    emb = embed_dense(host, dec)
    doc = {
        "found": emb is not None,
        "embedding": None if emb is None else asdict(emb),
    }
    print(json.dumps(doc))
    return EXIT_OK if emb is not None else EXIT_NEGATIVE


def _cmd_extract(args) -> int:
    g = load_graph(args.input)
    colored = ColoredBipartite.from_colored_graph(g)
    ext = extract_walk_free(colored, args.kind, args.start, seed=args.seed)
    edges = tuple((u, v) for u, v, _ in ext.subgraph.edges)
    colors = tuple(c for _, _, c in ext.subgraph.edges)
    doc = graph_to_dict(type(g)._trusted(g.n, edges, colors))  # sorted edges of g
    doc["extraction"] = ext.metadata()
    _emit(json.dumps(doc), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    ids = None
    if args.checks is not None:
        ids = [c.strip() for c in args.checks.split(",") if c.strip()]
    if args.report and not args.report.endswith((".csv", ".json")):
        raise InputError("--report must end in .csv or .json")
    results = []
    for r in verify_mod.run_suite(ids, seed=args.seed):
        line = f"{r.check_id}  {r.status:4s}  {r.seconds:7.1f}s  {r.name}"
        if r.detail:
            line += f"  [{r.detail}]"
        print(line, flush=True)
        results.append(r)
    ok = verify_mod.all_passed(results)
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    if args.report:
        if args.report.endswith(".csv"):
            verify_mod.write_csv(results, args.report)
        else:
            verify_mod.write_json(results, args.report)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xtrees",
        description="Extremal theory of ordered and convex geometric trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contains", help="test pattern containment")
    p.add_argument("--host", required=True, help="host graph JSON file")
    p.add_argument("--pattern", required=True, help="pattern graph JSON file")
    p.add_argument("--reflect", action="store_true", help="also allow reflections")
    p.add_argument("--all", action="store_true", help="stream every embedding")
    p.set_defaults(func=_cmd_contains)

    p = sub.add_parser("classify", help="classify a tree's extremal growth")
    p.add_argument("--input", required=True, help="tree graph JSON file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="stream all trees with k edges")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--mode", choices=("linear", "cyclic"), required=True)
    p.add_argument("--chi2", action="store_true", help="two-intervals trees only")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("catalog", help="write the obstruction pattern files")
    p.add_argument("--max-edges", type=int, required=True)
    p.add_argument("-o", "--out-dir", default=".", help="directory for the files")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("construct", help="build a named construction")
    p.add_argument(
        "--name",
        required=True,
        choices=("pow2", "fh_q", "fh_r", "gstar", "f_n", "f_n0"),
    )
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--a", type=int, help="gstar: core size")
    p.add_argument("--b", type=int, help="gstar: hj-fan size")
    p.add_argument("--c", type=int, help="gstar: ik-fan size")
    p.add_argument("-o", "--out", help="output file (default stdout)")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    fmt.add_argument("--svg", action="store_true", help="emit an SVG diagram")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("solve", help="exact extremal number")
    p.add_argument("--n", type=int, required=True, help="host vertex count (2..8)")
    p.add_argument("--pattern", required=True, help="pattern graph JSON file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("embed", help="embed a (cg) z-tree into a dense host")
    p.add_argument("--host", required=True, help="host graph JSON file")
    p.add_argument("--ztree", required=True, help="tree graph JSON file")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("extract", help="extract a walk-free subgraph")
    p.add_argument("--input", required=True, help="edge-colored graph JSON file")
    p.add_argument("--kind", choices=("fast", "slow"), required=True)
    p.add_argument("--start", choices=("A", "B"), help="start side for slow walks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("verify", help="run the release-gate checks")
    p.add_argument("--suite", choices=("all",), default="all")
    p.add_argument("--checks", help="comma-separated subset, e.g. c01,c05")
    p.add_argument("--report", help="write a .csv or .json report here")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
