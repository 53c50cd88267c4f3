"""Order-preserving pattern containment for ordered and cg graphs.

This module is the trusted containment predicate of the package: given a host
and a pattern of the same mode, it decides whether the pattern embeds into the
host by an injective map that preserves the linear order (ordered graphs) or
the clockwise cyclic order (cg graphs), and produces witnesses.

Semantics are non-induced: the host may have extra edges among image
vertices. Pattern vertices of degree 0 still constrain the relative order of
the images. Cyclic containment is orientation-preserving by default;
reflections (order-reversing maps) are searched only when requested, and only
for cg graphs, as the maps of the mirrored pattern edge list.

The search itself lives in xtrees.kernels; this module handles budgets,
reflection, deduplication and independent validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import BudgetError, InputError
from .kernels import _exists, order_embeddings
from .order import _check_graph, _check_host_size, _Graph, _linear_edges

MAX_PATTERN = 7


@dataclass(frozen=True)
class Embedding:
    """A witness of pattern containment.

    ``map`` holds the host image of each pattern vertex: pattern vertex v is
    sent to ``map[v-1]`` (both 1-based). ``mode`` is "linear" or "cyclic";
    ``reflected`` can be true only in cyclic mode and means the map reverses
    the clockwise order.
    """

    mode: str
    map: tuple[int, ...]
    reflected: bool = False

    def apply(self, v: int) -> int:
        p = len(self.map)
        if type(v) is not int or not 1 <= v <= p:
            raise InputError(f"pattern vertex must be an integer in 1..{p}, got {v!r}")
        return self.map[v - 1]


def _require_pair(
    host: _Graph, pattern: _Graph, allow_reflection: bool, limit: int
) -> bool:
    """Validate a (host, pattern) query; returns True when the mode is cyclic."""
    _check_graph("host", host)
    _check_graph("pattern", pattern)
    if host.mode != pattern.mode:
        raise InputError(
            f"host mode {host.mode!r} does not match pattern mode {pattern.mode!r}"
        )
    if type(allow_reflection) is not bool:
        raise InputError(f"allow_reflection must be True or False, got {allow_reflection!r}")
    if type(limit) is not int or limit < 0:
        raise InputError(f"limit must be a non-negative integer, got {limit!r}")
    if allow_reflection and host.mode != "cg":
        raise InputError("reflection applies to cyclic containment only")
    if pattern.n > host.n:
        raise InputError(
            f"pattern has {pattern.n} vertices but host only {host.n}"
        )
    _check_host_size("host", host.n)
    if pattern.n > MAX_PATTERN:
        raise BudgetError(
            f"pattern has {pattern.n} vertices; limit is {MAX_PATTERN}"
        )
    return host.mode == "cg"


def _kernel_maps(host: _Graph, p: int, edges, cyclic: bool, limit: int):
    pat = [(u - 1, v - 1) for u, v in edges]
    return order_embeddings(host.n, host.adjacency_masks(), p, pat, cyclic, limit)


def iter_embeddings(
    host: _Graph,
    pattern: _Graph,
    *,
    allow_reflection: bool = False,
    limit: int = 0,
) -> Iterator[Embedding]:
    """Iterate over the embeddings of ``pattern`` into ``host``, without
    duplicates.

    Orientation-preserving embeddings come first (lexicographically by image,
    cyclic ones grouped by anchor); with ``allow_reflection`` (cg only),
    order-reversing embeddings follow, flagged ``reflected=True``. ``limit``
    stops after that many embeddings in total (0 = all). The query is
    validated and searched at the call, so a bad one raises here.
    """
    return iter(_embeddings(host, pattern, allow_reflection, limit))


def _embeddings(
    host: _Graph, pattern: _Graph, allow_reflection: bool, limit: int
) -> list[Embedding]:
    cyclic = _require_pair(host, pattern, allow_reflection, limit)
    name = host.order
    p = pattern.n
    out = [
        Embedding(name, tuple(x + 1 for x in m))
        for m in _kernel_maps(host, p, pattern.edges, cyclic, limit)
    ]
    # Order-reversing maps exist on >= 3 points only for the reflected
    # pattern; on <= 2 points every map is both, so the first pass already
    # produced them all.
    if allow_reflection and p >= 3 and not (limit and len(out) >= limit):
        rem = limit - len(out) if limit else 0
        out += [
            Embedding(name, tuple(m[p - v] + 1 for v in range(1, p + 1)), reflected=True)
            for m in _kernel_maps(host, p, _linear_edges(p, pattern.edges, 0), cyclic, rem)
        ]
    return out


def find_embedding(
    host: _Graph,
    pattern: _Graph,
    *,
    allow_reflection: bool = False,
) -> Optional[Embedding]:
    """First embedding of ``pattern`` into ``host``, or None."""
    found = _embeddings(host, pattern, allow_reflection, 1)
    return found[0] if found else None


def contains(host: _Graph, pattern: _Graph, *, allow_reflection: bool = False) -> bool:
    """Whether ``host`` contains ``pattern`` (order-preservingly)."""
    cyclic = _require_pair(host, pattern, allow_reflection, 1)
    p = pattern.n
    orientations = [pattern.edges]
    if allow_reflection and p >= 3:
        orientations.append(_linear_edges(p, pattern.edges, 0))
    adj = host.adjacency_masks()
    return any(_exists(host.n, adj, p, [(u - 1, v - 1) for u, v in edges], cyclic)
               for edges in orientations)


def validate_embedding(host: _Graph, pattern: _Graph, emb: Embedding) -> bool:
    """Independently check an Embedding; returns True or raises InputError.

    Deliberately shares no code with the search kernel: order preservation
    and edge preservation are verified from first principles so that search
    bugs cannot hide behind a matching validator.
    """
    _check_graph("host", host)
    _check_graph("pattern", pattern)
    if not isinstance(emb, Embedding):
        raise InputError(f"emb must be an Embedding, got {type(emb).__name__}")
    if host.mode != pattern.mode:
        raise InputError("host/pattern mode mismatch")
    if emb.mode != host.order:
        raise InputError(f"embedding mode {emb.mode!r} does not fit {host.mode!r} graphs")
    m = emb.map
    if len(m) != pattern.n:
        raise InputError(f"map has {len(m)} entries for a {pattern.n}-vertex pattern")
    if len(set(m)) != len(m):
        raise InputError("map is not injective")
    if any(type(x) is not int or not 1 <= x <= host.n for x in m):
        raise InputError("map leaves the host vertex range")
    if emb.reflected and emb.mode != "cyclic":
        raise InputError("reflected embeddings are cyclic-only")
    if emb.mode == "linear":
        if any(m[i] >= m[i + 1] for i in range(len(m) - 1)):
            raise InputError("map does not preserve the linear order")
    elif len(m) >= 2:
        seq = list(reversed(m)) if emb.reflected else list(m)
        rel = [(x - seq[0]) % host.n for x in seq]
        if any(rel[i] >= rel[i + 1] for i in range(len(rel) - 1)):
            direction = "reversed" if emb.reflected else "clockwise"
            raise InputError(f"map does not follow the {direction} cyclic order")
    host_edges = host.edge_set
    for u, v in pattern.edges:
        a, b = m[u - 1], m[v - 1]
        if (min(a, b), max(a, b)) not in host_edges:
            raise InputError(f"pattern edge {u}{v} maps to the non-edge {a}{b}")
    return True
