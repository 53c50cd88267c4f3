"""Exact extremal numbers and constructive embeddings into dense hosts.

``extremal_number`` finds the maximum edge count of an n-vertex pattern-free
graph by branch-and-bound over the edges of the complete host, in a canonical
order (by length, then left endpoint), include-branch first. The placements
of the pattern are precomputed as edge-image bitmasks; on the complete host
they are counted out from vertex subsets rather than searched for.

* Closing lists: when edge i is decided every later edge is still absent, so
  including i can only complete a placement whose highest edge index is i.
  ``closing[i]`` holds those placements with bit i cleared, and edge i is
  blocked iff one of them lies inside the current edge set. The test is exact.
* Packing bound: a placement is live while none of its edges is excluded.
  Greedily pick live placements whose undecided parts are pairwise disjoint;
  each must still lose one of its own undecided edges, so count + undecided
  minus the number picked bounds every completion. A node is pruned as soon
  as that bound is at most the best count found.

The bound is admissible, so no ancestor of the first optimal leaf in DFS
order is pruned before that leaf is reached: the value and the witness are
those of the plain undecided-edges bound, only with far fewer nodes. n is
capped at 8; larger requests are refused rather than approximated.

``embed_dense`` turns the inductive extremal proofs into algorithms. Both
modes recurse by deleting a bounded set of extreme edges from the host,
embedding a one-edge-smaller tree in what remains, and re-extending with one
of the deleted edges:

* linear: with fan counts (a, b, c) and c >= 1, delete the longest rightward
  edge at every vertex g with b < g <= n-a-c+1 (n-k+1 deletions), embed the
  tree minus its top right-fan edge, then re-extend at the image of the hub's
  left endpoint — the deleted edge there ends beyond every used vertex. When
  c = 0 the mirror image has c >= 1 and is solved instead. Above the
  threshold (k-1)n - C(k,2) this always succeeds.
* cyclic: with core size a >= 2, delete at every vertex its two shortest
  edges, one per rotational direction (at most 2n deletions), embed the tree
  minus the leaf of the shortest core edge, and re-insert that leaf with the
  deleted edge at the image of its neighbor, which lands strictly inside the
  free arc. Double stars (a = 1) unroll: reading both circles as lines at
  the canonical rotation reduces to the linear case. Above 2(k-1)n this
  always succeeds.

Below the thresholds either algorithm may return None without certifying
absence. Every returned embedding is checked by the containment validator.
Tie-breaking never arises in the peeling: from a fixed endpoint, distinct
edges have distinct lengths in a line and distinct clockwise distances on a
circle.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Union

from .containment import Embedding, contains, validate_embedding
from .errors import BudgetError, InputError
from .order import CgGraph, OrderedGraph, _adjacency_lists, _Graph, mirror, rotate
from .trees import CgZDecomposition, ZDecomposition, _z_decompose, cg_z_decompose, z_decompose
from .trees import validate_decomposition

SOLVER_MIN_N = 2
SOLVER_MAX_N = 8


@dataclass(frozen=True)
class ExtremalResult:
    """The exact answer for one (n, pattern) query, with its witness."""

    n: int
    mode: str
    value: int
    witness: _Graph
    pattern: _Graph
    nodes: int
    seconds: float
    method: str

    def as_dict(self) -> dict:
        from .io import graph_to_dict

        return {
            "n": self.n,
            "mode": self.mode,
            "value": self.value,
            "witness": graph_to_dict(self.witness),
            "pattern": graph_to_dict(self.pattern),
            "nodes": self.nodes,
            "seconds": round(self.seconds, 6),
            "method": self.method,
        }


def _canonical_edges(n: int) -> list[tuple[int, int]]:
    es = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    es.sort(key=lambda e: (e[1] - e[0], e[0]))
    return es


def _placement_masks(n: int, pattern: _Graph, index: dict) -> list[int]:
    """Edge-image bitmasks of every placement of the pattern in [n].

    The host is complete, so placements are counted out rather than searched
    for: every increasing p-tuple is a linear placement, and every p-subset
    read from each of its p starting points is a cyclic one.
    """
    p = pattern.n
    shifts = range(p) if pattern.mode == "cg" else range(1)
    masks = set()
    for c in combinations(range(1, n + 1), p):
        for s in shifts:
            mask = 0
            for u, v in pattern.edges:
                a, b = c[(u - 1 + s) % p], c[(v - 1 + s) % p]
                mask |= 1 << index[(min(a, b), max(a, b))]
            masks.add(mask)
    return sorted(masks)


def extremal_number(n: int, pattern: _Graph, naive: bool = False) -> ExtremalResult:
    """Maximum edges of an n-vertex graph (same mode as the pattern) that
    does not contain the pattern, by exhaustive branch-and-bound.

    ``naive=True`` runs the full 2^C(n,2) enumeration instead (n <= 5); it
    exists to cross-check the search, not to be fast.
    """
    if not isinstance(n, int):
        raise InputError(f"n must be an integer, got {n!r}")
    if n < SOLVER_MIN_N:
        raise InputError(f"extremal queries need n >= {SOLVER_MIN_N}")
    if n > SOLVER_MAX_N:
        raise BudgetError(
            f"exact extremal search is refused above n = {SOLVER_MAX_N}; "
            "no approximation is attempted"
        )
    if not isinstance(pattern, (OrderedGraph, CgGraph)):
        raise InputError("pattern must be an OrderedGraph or CgGraph")
    if pattern.n > n:
        raise InputError(f"pattern on {pattern.n} vertices exceeds host size {n}")
    if not pattern.edges:
        raise InputError("pattern has no edges, so every host contains it")

    t0 = time.perf_counter()
    if naive:
        from .oracles import oracle_extremal_number

        value, witness = oracle_extremal_number(n, pattern)
        result = ExtremalResult(
            n, pattern.mode, value, witness, pattern,
            1 << (n * (n - 1) // 2), time.perf_counter() - t0, "naive",
        )
        _check_result(result)
        return result

    edges = _canonical_edges(n)
    index = {e: i for i, e in enumerate(edges)}
    masks = _placement_masks(n, pattern, index)
    # Edges are decided in index order and every later edge is still absent,
    # so adding edge i can only complete a placement whose top edge is i.
    closing: list[list[int]] = [[] for _ in edges]
    for m in masks:
        top = m.bit_length() - 1
        closing[top].append(m ^ (1 << top))
    total = len(edges)
    best = -1
    best_mask = 0
    nodes = 0

    def rec(i: int, cur: int, count: int, live: list[int]) -> None:
        nonlocal best, best_mask, nodes
        nodes += 1
        undecided = total - i
        if count + undecided <= best:
            return
        if i == total:
            best, best_mask = count, cur
            return
        # Live placements (no edge excluded) with pairwise disjoint undecided
        # parts each still have to lose one of their own undecided edges.
        used = 0
        packed = 0
        for m in live:
            r = m >> i
            if not r & used:
                used |= r
                packed += 1
        if count + undecided - packed <= best:
            return
        bit = 1 << i
        for r in closing[i]:
            if r & cur == r:
                break
        else:
            rec(i + 1, cur | bit, count + 1, live)
        rec(i + 1, cur, count, [m for m in live if not m & bit])

    rec(0, 0, 0, masks)
    chosen = [edges[i] for i in range(total) if best_mask >> i & 1]
    cls = type(pattern)
    witness = cls(n, sorted(chosen))
    result = ExtremalResult(
        n, pattern.mode, best, witness, pattern,
        nodes, time.perf_counter() - t0, "branch-and-bound",
    )
    _check_result(result)
    return result


def _check_result(r: ExtremalResult) -> None:
    """Raise AssertionError unless the witness is pattern-free of the claimed size."""
    if len(r.witness.edges) != r.value:
        raise AssertionError("witness has the wrong edge count")
    if contains(r.witness, r.pattern):
        raise AssertionError("witness contains the pattern")


# --- constructive embeddings into dense hosts -------------------------------


def _pattern_of(dec: ZDecomposition) -> OrderedGraph:
    """The tree of a decomposition derived from a validated one: a tree,
    so it and its mirror image go to _z_decompose without a tree check."""
    edges = dec.edges()
    return OrderedGraph._trusted(len(edges) + 1, edges)


def _first_edge_map(host: _Graph) -> Optional[tuple[int, ...]]:
    if not host.edges:
        return None
    return min(host.edges)


def _strip_longest_right(host: OrderedGraph, lo: int, hi: int):
    """Delete each vertex's longest rightward edge for lo <= g <= hi.

    Returns (stripped host, {g: far endpoint of the deleted edge}).
    """
    far = dict(host.edges)  # the edges are sorted: the last (g, w) is the longest
    deleted = {g: far[g] for g in range(lo, hi + 1) if g in far}
    gone = set(deleted.items())
    keep = tuple(e for e in host.edges if e not in gone)
    return OrderedGraph._trusted(host.n, keep), deleted


def _embed_linear(host: OrderedGraph, dec: ZDecomposition) -> Optional[tuple[int, ...]]:
    """Image tuple for pattern vertices 1..k+1, or None."""
    a, b, c = dec.counts
    k = a + b + c
    if k == 1:
        e = _first_edge_map(host)
        return e if e is None else tuple(e)
    if c == 0 and b == 0:
        # a non-canonical split of a pure chain; re-split and retry
        redec = _z_decompose(_pattern_of(dec))
        if not redec:
            return None
        return _embed_linear(host, redec)
    if c == 0:
        flipped = _z_decompose(mirror(_pattern_of(dec)))
        if not flipped:
            return None
        sub = _embed_linear(mirror(host), flipped)
        if sub is None:
            return None
        p = k + 1
        return tuple(host.n + 1 - sub[p - v] for v in range(1, p + 1))

    i = dec.hub[0]
    stripped, deleted = _strip_longest_right(host, b + 1, host.n - a - c + 1)
    inner = ZDecomposition(dec.hub, dec.core, dec.s_j, dec.s_i[:-1])
    sub = _embed_linear(stripped, inner)
    if sub is None:
        return None
    u = sub[i - 1]
    w = deleted.get(u)
    if w is None or w <= max(sub):
        return None
    return sub + (w,)


def _cyclic_distance(n: int, u: int, w: int) -> int:
    return (w - u) % n


def _strip_two_shortest(host: CgGraph):
    """Delete each vertex's shortest edge in each rotational direction.

    Returns (stripped host, {(v, +1): w, (v, -1): w} of deleted far ends).
    """
    n = host.n
    nbrs = _adjacency_lists(n, host.edges)
    deleted = {}
    gone = set()
    for v in range(1, n + 1):
        row = nbrs[v]
        if not row:
            continue
        # clockwise the nearest neighbour is the first label above v, else
        # the smallest; counter-clockwise the last below v, else the largest
        i = bisect_left(row, v)
        cw = row[i] if i < len(row) else row[0]
        ccw = row[i - 1] if i > 0 else row[-1]
        deleted[(v, +1)] = cw
        deleted[(v, -1)] = ccw
        gone.add((min(v, cw), max(v, cw)))
        gone.add((min(v, ccw), max(v, ccw)))
    keep = tuple(e for e in host.edges if e not in gone)
    return CgGraph._trusted(n, keep), deleted


def _unrolled_pattern(tree: CgGraph, dec: CgZDecomposition) -> tuple[OrderedGraph, int]:
    """Read the rotated cg tree as an ordered graph (same orientation)."""
    rolled = rotate(tree, dec.rotation)
    return OrderedGraph._trusted(tree.n, rolled.edges), dec.rotation


def _embed_cyclic(
    host: CgGraph, tree: CgGraph, dec: CgZDecomposition
) -> Optional[tuple[int, ...]]:
    lin = dec.linear
    p = tree.n
    n = host.n
    if lin.a == 1 or len(tree.edges) == 1:
        # double star: cut both circles open and solve on the line
        flat, r = _unrolled_pattern(tree, dec)
        d = z_decompose(flat)
        if not d:
            return None
        sub = _embed_linear(OrderedGraph._trusted(n, host.edges), d)
        if sub is None:
            return None
        return tuple(sub[(v - 1 + r) % p] for v in range(1, p + 1))

    # locate, in the tree's own labels, the shortest core edge's leaf x,
    # its neighbor y, and the far endpoint z of the next core edge
    def tree_label(lin_label: int) -> int:
        return ((p - lin_label - dec.rotation) % p) + 1

    e1, e2 = lin.core[0], lin.core[1]
    y_lin = e1[0] if e1[0] in e2 else e1[1]
    x_lin = e1[0] if e1[1] == y_lin else e1[1]
    z_lin = e2[0] if e2[1] == y_lin else e2[1]
    x, y, z = tree_label(x_lin), tree_label(y_lin), tree_label(z_lin)

    stripped, deleted = _strip_two_shortest(host)
    drop = {v: (v if v < x else v - 1) for v in range(1, p + 1) if v != x}
    # dropping x keeps the order of the other labels, so the edges stay
    # normalised and sorted
    sub_tree = CgGraph._trusted(p - 1, tuple((drop[u], drop[v]) for u, v in tree.edges
                                             if x not in (u, v)))
    sub_dec = cg_z_decompose(sub_tree)
    if not sub_dec:
        return None
    sub = _embed_cyclic(stripped, sub_tree, sub_dec)
    if sub is None:
        return None
    u = sub[drop[y] - 1]
    zz = sub[drop[z] - 1]
    direction = +1 if (x - y) % p == 1 else -1
    w = deleted.get((u, direction))
    if w is None:
        return None
    gap = _cyclic_distance(n, u, zz) if direction == +1 else _cyclic_distance(n, zz, u)
    got = _cyclic_distance(n, u, w) if direction == +1 else _cyclic_distance(n, w, u)
    if not 0 < got < gap:
        return None
    images = list(sub)
    images.insert(x - 1, w)
    return tuple(images)


def embed_dense(
    host: _Graph, dec: Union[ZDecomposition, CgZDecomposition]
) -> Optional[Embedding]:
    """Embed the decomposed tree into a dense host, or return None.

    Success is guaranteed above the mode's edge threshold (see module
    docstring); any embedding returned is independently validated.
    """
    if isinstance(dec, ZDecomposition):
        if host.mode != "ordered":
            raise InputError("a linear decomposition needs an ordered host")
        edges = dec.edges()
        pattern = OrderedGraph(len(edges) + 1, edges)
        if not pattern.is_tree():
            raise InputError("decomposition edges do not form a spanning tree")
        validate_decomposition(pattern, dec)
        if pattern.n > host.n:
            raise InputError("host smaller than the tree")
        images = _embed_linear(host, dec)
    elif isinstance(dec, CgZDecomposition):
        if host.mode != "cg":
            raise InputError("a cyclic decomposition needs a cg host")
        lin_edges = dec.linear.edges()
        p = len(lin_edges) + 1
        relabel = {v: ((p - v - dec.rotation) % p) + 1 for v in range(1, p + 1)}
        pattern = CgGraph(p, [(relabel[u], relabel[v]) for u, v in lin_edges])
        check = cg_z_decompose(pattern)
        if not check:
            raise InputError("not a valid cg z-decomposition")
        if pattern.n > host.n:
            raise InputError("host smaller than the tree")
        images = _embed_cyclic(host, pattern, dec)
    else:
        raise InputError(
            "dec must be a ZDecomposition or CgZDecomposition, "
            f"got {type(dec).__name__}"
        )
    if images is None:
        return None
    emb = Embedding(
        "linear" if host.mode == "ordered" else "cyclic", images, reflected=False
    )
    validate_embedding(host, pattern, emb)
    return emb
