#!/usr/bin/env python3
"""Rewrite tests/data/solver_nodes.json, the search that TestPinnedSearch pins.

One entry a line: value, witness and nodes of ``extremal_number`` for every
tree with <= 3 edges in both orders at n = max(2, p)..7. Run it after a
change that is meant to move the node counts, and check that only ``nodes``
moved: ``git diff --word-diff tests/data/solver_nodes.json``.
"""

import json
import sys
from pathlib import Path

from xtrees.solver import extremal_number
from xtrees.trees import enumerate_trees

OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "solver_nodes.json"


def main() -> int:
    entries = []
    for k in (1, 2, 3):
        for mode in ("linear", "cyclic"):
            for t in enumerate_trees(k, mode):
                for n in range(max(2, t.n), 8):
                    r = extremal_number(n, t)
                    entries.append({"edges": [list(e) for e in t.edges], "mode": t.mode, "n": n,
                                    "nodes": r.nodes, "value": r.value,
                                    "witness": [list(e) for e in r.witness.edges]})
    entries.sort(key=lambda e: (e["mode"], len(e["edges"]), e["edges"], e["n"]))
    OUT.write_text("[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
