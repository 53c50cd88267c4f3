"""Naive reference implementations used to validate the fast paths.

Everything here trades speed for obviousness: containment by enumerating all
vertex subsets, extremal numbers by enumerating all edge subsets. These
functions are the measuring sticks for the search kernel and the
branch-and-bound solver; they deliberately share no code with them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Optional

from .containment import Embedding
from .errors import BudgetError, InputError
from .order import GRAPH_CLASSES, _Graph

ORACLE_MAX_HOST = 12
ORACLE_MAX_EXTREMAL = 5


def oracle_iter_embeddings(
    host: _Graph, pattern: _Graph, *, allow_reflection: bool = False
) -> Iterator[Embedding]:
    """All embeddings by brute force over C(host.n, pattern.n) subsets.

    For cyclic graphs each chosen subset is read from every possible starting
    point (all rotations of the alignment), and backwards as well when
    reflections are allowed; a bad query raises at the call.
    """
    if host.mode != pattern.mode:
        raise InputError("host/pattern mode mismatch")
    if host.n > ORACLE_MAX_HOST:
        raise BudgetError(
            f"oracle containment is limited to hosts with <= {ORACLE_MAX_HOST} vertices"
        )
    cyclic = host.mode == "cg"
    if allow_reflection and not cyclic:
        raise InputError("reflection applies to cyclic containment only")
    p, n = pattern.n, host.n
    if p > n:
        raise InputError("pattern larger than host")
    host_edges = host.edge_set
    name = host.order

    def ok(mapping: tuple[int, ...]) -> bool:
        return all(
            (min(mapping[u - 1], mapping[v - 1]), max(mapping[u - 1], mapping[v - 1]))
            in host_edges
            for u, v in pattern.edges
        )

    def embeddings() -> Iterator[Embedding]:
        for combo in combinations(range(1, n + 1), p):
            if not cyclic:
                if ok(combo):
                    yield Embedding(name, combo)
                continue
            seen = set()
            for s in range(p):
                forward = tuple(combo[(i + s) % p] for i in range(p))
                if forward not in seen and ok(forward):
                    seen.add(forward)
                    yield Embedding(name, forward)
            if allow_reflection:
                for s in range(p):
                    backward = tuple(combo[(s - i) % p] for i in range(p))
                    if backward not in seen and ok(backward):
                        seen.add(backward)
                        yield Embedding(name, backward, reflected=True)

    return embeddings()


def oracle_find_embedding(
    host: _Graph, pattern: _Graph, *, allow_reflection: bool = False
) -> Optional[Embedding]:
    for emb in oracle_iter_embeddings(host, pattern, allow_reflection=allow_reflection):
        return emb
    return None


def oracle_contains(host: _Graph, pattern: _Graph, *, allow_reflection: bool = False) -> bool:
    return oracle_find_embedding(host, pattern, allow_reflection=allow_reflection) is not None


def oracle_extremal_number(n: int, pattern: _Graph) -> tuple[int, _Graph]:
    """Maximum edges of an n-vertex pattern-free graph by full enumeration.

    Walks all 2^C(n,2) edge subsets, so n is capped at ORACLE_MAX_EXTREMAL.
    Returns (value, witness); the witness is the first optimum encountered.
    """
    if n > ORACLE_MAX_EXTREMAL:
        raise BudgetError(
            f"oracle extremal search is limited to n <= {ORACLE_MAX_EXTREMAL}"
        )
    if n < 1:
        raise InputError("host size must be positive")
    cls = type(pattern)
    if cls not in GRAPH_CLASSES:
        raise InputError("pattern must be an OrderedGraph or CgGraph")
    if not pattern.edges:
        raise InputError("pattern has no edges, so every host contains it")
    all_edges = list(combinations(range(1, n + 1), 2))
    best = -1
    witness = None
    for bits in range(1 << len(all_edges)):
        if bits.bit_count() <= best:
            continue
        edges = tuple(e for i, e in enumerate(all_edges) if bits >> i & 1)
        g = cls._trusted(n, edges)  # sorted, distinct and in range as listed
        if pattern.n <= n and oracle_contains(g, pattern):
            continue
        best = len(edges)
        witness = g
    if witness is None:
        raise RuntimeError("internal: the edgeless host was not pattern-free")
    return best, witness
