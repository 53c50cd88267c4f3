#!/usr/bin/env python3
"""Rewrite tests/data/embed_digest.json, the digest that pins embed_dense.

The digest is one sha256 over a fixed seeded set of ``embed_dense`` calls:
every ordered z-tree and every cg z-tree with 1-4 edges (a cg tree under
each rotation that linearises it to a z-tree), on hosts of every size from
the tree's own up to 12 vertices, drawn with a few edges more or fewer than
the threshold (k-1)n - C(k,2) of a k-edge tree. Each call's tree,
decomposition, host and returned images (or None), in order, go into the
hash, so a change to the embedder that alters any image fails
``tests/test_embed_dense.py::test_embed_digest_is_pinned``. Only rewrite it
for a change that is meant to alter the returned images.
"""

import hashlib
import json
import random
import sys
from itertools import combinations
from pathlib import Path

from xtrees.errors import NotApplicableError
from xtrees.order import CgGraph, OrderedGraph
from xtrees.solver import embed_dense
from xtrees.trees import CgZDecomposition, enumerate_trees, is_cg_z_tree, linearize, z_decompose

OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "embed_digest.json"

MAX_EDGES = 4
MAX_HOST = 12
OFFSETS = (-2, 0, 1, 3)  # edges above the threshold, one host each


def _decompositions(order: str, k: int) -> list:
    """(tree, decomposition) for each (cg) z-tree with k edges."""
    out = []
    for t in enumerate_trees(k, order, "chi2"):
        if order == "linear":
            dec = z_decompose(t)
            if dec:
                out.append((t, dec))
        elif is_cg_z_tree(t):
            for r in range(t.n):
                try:
                    dec = z_decompose(linearize(t, r))
                except NotApplicableError:
                    continue
                if dec:
                    out.append((t, CgZDecomposition(r, dec)))
    return out


def embed_digest() -> tuple[str, int]:
    """(sha256 hex digest, number of calls) over the seeded call set."""
    rng = random.Random("embed-digest")
    h = hashlib.sha256()
    calls = 0
    for order, cls in (("linear", OrderedGraph), ("cyclic", CgGraph)):
        for k in range(1, MAX_EDGES + 1):
            for tree, dec in _decompositions(order, k):
                for n in range(k + 1, MAX_HOST + 1):
                    pairs = list(combinations(range(1, n + 1), 2))
                    threshold = (k - 1) * n - k * (k - 1) // 2
                    for extra in OFFSETS:
                        m = min(max(threshold + extra, 0), len(pairs))
                        host = cls(n, sorted(rng.sample(pairs, m)))
                        emb = embed_dense(host, dec)
                        images = None if emb is None else emb.map
                        h.update(repr((tree.edges, dec, host.edges, images)).encode())
                        calls += 1
    return h.hexdigest(), calls


def main() -> int:
    digest, calls = embed_digest()
    OUT.write_text(json.dumps({"calls": calls, "sha256": digest}, sort_keys=True) + "\n")
    print(f"wrote the digest of {calls} calls to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
