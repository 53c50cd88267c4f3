#!/usr/bin/env python3
"""Rewrite tests/data/kernel_digest.json, the digest that pins the search kernel.

The digest is one sha256 over a fixed seeded set of ``order_embeddings``
calls: random hosts on up to 12 vertices, random patterns on up to 6, both
orders, limits 0, 1 and 3. Each call's arguments and the list it returns, in
order, go into the hash, so a kernel change that alters any list or its
order fails ``tests/test_containment.py::test_kernel_digest_is_pinned``.
Only rewrite it for a change that is meant to alter the returned lists.
"""

import hashlib
import json
import random
import sys
from itertools import combinations
from pathlib import Path

from xtrees.kernels import order_embeddings

OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "kernel_digest.json"

INSTANCES = 250  # per order
LIMITS = (0, 1, 3)


def kernel_digest() -> tuple[str, int]:
    """(sha256 hex digest, number of calls) over the seeded call set."""
    rng = random.Random("kernel-digest")
    h = hashlib.sha256()
    calls = 0
    for cyclic in (False, True):
        for _ in range(INSTANCES):
            p = rng.randint(1, 6)
            n = rng.randint(p, 12)
            density = rng.choice((0.2, 0.5, 0.8))
            adj = [0] * n
            for u, v in combinations(range(n), 2):
                if rng.random() < density:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            edges = [e for e in combinations(range(p), 2) if rng.random() < 0.45]
            for limit in LIMITS:
                maps = order_embeddings(n, adj, p, edges, cyclic, limit)
                h.update(repr((n, adj, p, edges, cyclic, limit, maps)).encode())
                calls += 1
    return h.hexdigest(), calls


def main() -> int:
    digest, calls = kernel_digest()
    OUT.write_text(json.dumps({"calls": calls, "sha256": digest}, sort_keys=True) + "\n")
    print(f"wrote the digest of {calls} calls to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
