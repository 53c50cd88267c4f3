#!/usr/bin/env python3
"""Regenerate the frozen reference data under golden/.

Every value here is computed from scratch by the library itself (exact
search, kernel containment); the files pin those outcomes so the
test suite can detect drift. Rerunning must be a no-op on a correct build.
"""

import json
import sys
import time
from pathlib import Path

from xtrees.constructions import f_n, fh_q, fh_r
from xtrees.containment import contains
from xtrees.io import graph_to_dict
from xtrees.order import OrderedGraph, mirror
from xtrees.solver import extremal_number
from xtrees.trees import (
    CROSSING_P3_EDGES,
    derive_obstructions,
    enumerate_trees,
    is_cg_z_tree,
)
from xtrees.walks import ColoredBipartite, extract_walk_free

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "golden"


def dump(name: str, payload: dict) -> None:
    path = GOLDEN / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def catalog_file() -> list:
    cat = derive_obstructions(4)
    entries = [
        {"n": p.n, "edges": [list(e) for e in p.edges], "provenance": prov}
        for p, prov in zip(cat.patterns, cat.provenance)
    ]
    dump("obstruction_catalog.json", {"max_edges": 4, "patterns": entries})
    return [p for p in cat.patterns]


def fh_table(patterns) -> None:
    derived = [p for p in patterns if len(p.edges) == 4]
    if len(derived) != 4:
        raise RuntimeError(f"expected 4 four-edge obstructions, got {len(derived)}")
    # group into mirror pairs, each keyed by its lexicographically first member
    pairs = {}
    seen = set()
    for p in derived:
        if tuple(p.edges) in seen:
            continue
        m = mirror(p)
        seen.add(tuple(p.edges))
        seen.add(tuple(m.edges))
        first, second = sorted([tuple(p.edges), tuple(m.edges)])
        pairs[len(pairs)] = (first, second)
    if len(pairs) != 2:
        raise RuntimeError(f"expected 2 mirror pairs, got {len(pairs)}")
    names = {}
    for idx, (first, second) in pairs.items():
        names[f"pair{idx + 1}_a"] = first
        names[f"pair{idx + 1}_b"] = second

    stages = [1, 2, 4, 8, 16, 32]
    table = {"fh_q": {}, "fh_r": {}}
    for label, ctor in (("fh_q", fh_q), ("fh_r", fh_r)):
        for pname, pedges in names.items():
            pat = OrderedGraph(5, list(pedges))
            row = {}
            for s in stages:
                host = ctor(s)
                row[str(s)] = bool(pat.n <= host.n and contains(host, pat))
            table[label][pname] = row

    # which pair does fh_q avoid outright?
    q_avoided = [
        idx
        for idx in (1, 2)
        if not any(table["fh_q"][f"pair{idx}_a"].values())
        and not any(table["fh_q"][f"pair{idx}_b"].values())
    ]
    if len(q_avoided) != 1:
        raise RuntimeError(f"fh_q avoidance ambiguous: {table['fh_q']}")
    q_pair = q_avoided[0]
    r_pair = 3 - q_pair
    r_a = any(table["fh_r"][f"pair{r_pair}_a"].values())
    r_b = any(table["fh_r"][f"pair{r_pair}_b"].values())
    if r_a == r_b:
        raise RuntimeError("fh_r must contain exactly one member of its pair")
    assignment = {
        "fh_q_avoids_pair": q_pair,
        "fh_r_pair": r_pair,
        "fh_r_avoids": f"pair{r_pair}_a" if r_b else f"pair{r_pair}_b",
        "fh_r_contains": f"pair{r_pair}_b" if r_b else f"pair{r_pair}_a",
    }
    dump(
        "fh_obstruction_assignment.json",
        {
            "stages": stages,
            "patterns": {k: [list(e) for e in v] for k, v in names.items()},
            "contains": table,
            "assignment": assignment,
        },
    )


def extremal_file() -> None:
    entries = []

    def add(n, pattern, note=""):
        r = extremal_number(n, pattern)
        entries.append(
            {
                "n": n,
                "mode": pattern.mode,
                "pattern": [list(e) for e in pattern.edges],
                "pattern_n": pattern.n,
                "value": r.value,
                "witness": graph_to_dict(r.witness),
                "note": note,
            }
        )
        print(f"  ex(n={n}, {pattern.mode}, {list(pattern.edges)}) = {r.value}")

    P = OrderedGraph(4, list(CROSSING_P3_EDGES))
    for n in (6, 7, 8):
        add(n, P, "crossing 3-edge path")
    # small cyclic table for cg z-trees (new data, not in any reference)
    for k in (2, 3):
        for t in enumerate_trees(k, "cyclic", "chi2"):
            if not is_cg_z_tree(t):
                continue
            for n in range(k + 1, 8):
                add(n, t, f"cg z-tree k={k}")
    dump("extremal.json", {"entries": entries})


def extraction_file() -> None:
    entries = []
    for n in (16, 64):
        cb = ColoredBipartite.from_colored_graph(f_n(n))
        for kind, start in (("fast", None), ("slow", "A"), ("slow", "B")):
            ex = extract_walk_free(cb, kind, start, seed=0)
            entries.append(
                {
                    "graph": "f_n",
                    "n": n,
                    "kind": kind,
                    "start": start,
                    "seed": 0,
                    "bound": ex.bound,
                    "largest_class": ex.largest_class,
                    "size": ex.size,
                    "method": ex.method,
                    "edges": [list(e) for e in ex.subgraph.edges],
                }
            )
            print(f"  f_{n} {kind} start={start}: size {ex.size} ({ex.method})")
    dump("extraction_sizes.json", {"entries": entries})


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    t0 = time.time()
    patterns = catalog_file()
    fh_table(patterns)
    extremal_file()
    extraction_file()
    print(f"done in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
