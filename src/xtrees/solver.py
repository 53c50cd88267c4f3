"""Exact extremal numbers and constructive embeddings into dense hosts.

``extremal_number`` finds the maximum edge count of an n-vertex pattern-free
graph by branch-and-bound over the edges of the complete host, include-branch
first, in two runs of one search (``_search``):

1. The value: the edges that lie in the most placements of the pattern are
   decided first, fail-first (Haralick and Elliott 1980); ties go by length
   on the circle, min(j - i, n - j + i), then left endpoint. Symmetry
   breaking is on. At n = 8 the five ordered 3-edge z-trees take 120,299
   proof nodes in this order against 476,535 in the cyclic-length order
   alone. A cg pattern barely moves: its placements are closed under
   rotation, so all chords of one length lie in equally many of them.
2. The witness: the edges are decided in the canonical order (by length,
   then left endpoint) with the value known, that is counting only graphs
   above value - 1, without symmetry breaking, and the search stops at its
   first leaf.

The placements of the pattern are enumerated once per solve as edge sets; on
the complete host they are counted out from vertex subsets rather than
searched for. The proof order counts its edges in them, and each run maps
them to edge bitmasks in its own order.

* Closing lists: when edge i is decided every later edge is still absent, so
  including i can only complete a placement whose highest edge index is i.
  ``closing[i]`` holds those placements with bit i cleared, and edge i is
  blocked iff one of them lies inside the current edge set. The test is exact.
* Packing bound: a placement is live while none of its edges is excluded.
  Greedily pick live placements whose undecided parts are pairwise disjoint;
  each must still lose one of its own undecided edges, so count + undecided
  minus the number picked bounds every completion. A node is pruned as soon
  as that bound is at most the best count found, that is once the picks
  reach slack = count + undecided - best: the scan stops there. It is
  skipped when fewer than slack placements are live, and when count > best:
  each pick holds an undecided edge of its own, so the picks never exceed
  undecided, which is then below slack.
* Symmetry: a relabelling of the host that carries the placements onto
  themselves maps pattern-free graphs to pattern-free graphs of the same
  size. For cg these are the n rotations, and the n reflections when the
  reflected pattern is a rotation of itself; for an ordered pattern equal to
  its mirror, the mirror: that is, when the pattern's linearisation by some
  r equals its own edge list. Read an edge set as a word, edge 0 first, and
  compare cur with its image g(cur) up to the first position not known on
  both sides (lex-leader; Crawford, Ginsberg, Luks and Roy, KR 1996). If the
  first difference is an edge of g(cur) the node is pruned; if it is an edge
  of cur, g can never prune below and is retired for the subtree. g(cur)
  holds position k iff cur holds inv[k], the edge g carries onto k, so the
  image is never built: a node compares cur's bits k and inv[k] only on the
  positions that became known on both sides at its depth, as the earlier
  ones were equal at an ancestor. The relabellings not yet retired are the
  bits of one int.

Every rule above holds for any fixed edge order. A leaf cut by a symmetry
has a larger image of the same size, which the DFS meets earlier or cuts by
a bound no smaller, so the best count at each point of the DFS, and with it
every bound test, is unchanged: the proof visits a subset of the nodes the
search in its order would visit without symmetry, and finds the same value.

Why the witness is that of one canonical search: the include-first DFS
meets leaves in decreasing word order, so without a known value it would
return the largest optimal word. With the value known only leaves of that
size are counted, and the bounds are admissible, so no ancestor of the
largest optimal word is pruned: it is the first leaf the witness run
reaches, and the graphs under ``golden/`` do not depend on the order the
proof uses. n is capped at 8; larger requests are refused rather than
approximated.

``embed_dense`` turns the inductive extremal proof into an algorithm, one
for both vertex orders. With fan counts (a, b, c) and c >= 1, an induction
step deletes the longest rightward edge at every vertex g with
b < g <= n-a-c+1 (n-k+1 deletions), embeds the tree minus its top right-fan
edge, then re-extends at the image of the hub's left endpoint: the deleted
edge there ends beyond every used vertex. When c = 0 the mirror image has
c >= 1 and is solved instead. A cg z-tree is a rotation of its ordered
z-tree ``dec.linear`` read in reverse label order, and a cg host is read
the same way: cutting the circle open before vertex 1 keeps every edge, and
an order-preserving embedding into that line is also one on the circle once
both reversals are undone. So above (k-1)n - C(k,2) edges this always
succeeds, in either order. Only the steps depend on the decomposition, so it
is validated and compiled once into a cached plan, the steps down to one
edge (for cg: unroll, mirror, then the plan of ``dec.linear``; at c = 0
the z-scan re-splits the edge tuple, mirrored if b > 0); one loop peels a
host's sorted edge list down the plan, takes its first remaining edge, and
extends the image back up.

Below the threshold the algorithm may return None without certifying
absence. Every returned embedding is checked by the containment validator.
Tie-breaking never arises in the peeling: from a fixed endpoint, distinct
edges have distinct lengths in a line.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Optional, Sequence, Union

from .containment import Embedding, contains, validate_embedding
from .errors import BudgetError, InputError
from .order import CgGraph, OrderedGraph, _check_graph, _check_int, _Graph, _linear_edges
from .trees import CgZDecomposition, ZDecomposition, _z_scan, validate_decomposition

SOLVER_MIN_N = 2
SOLVER_MAX_N = 8


@dataclass(frozen=True)
class ExtremalResult:
    """The exact answer for one (n, pattern) query, with its witness. nodes
    is the sum over both runs: the proof of the value and the witness run."""

    n: int
    mode: str
    value: int
    witness: _Graph
    pattern: _Graph
    nodes: int
    seconds: float

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
        }


@lru_cache(maxsize=None)  # one entry per host size the solver accepts
def _canonical_edges(n: int) -> tuple[tuple[int, int], ...]:
    """The witness order: by length, then left endpoint."""
    return tuple(sorted(((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)),
                        key=lambda e: (e[1] - e[0], e[0])))


@lru_cache(maxsize=None)
def _cyclic_length_edges(n: int) -> tuple[tuple[int, int], ...]:
    """The proof's tie order: by length on the circle, min(j - i, n - j + i),
    then left endpoint; of two chords tied on both, the shorter one first."""
    return tuple(sorted(_canonical_edges(n),
                        key=lambda e: (min(e[1] - e[0], n - e[1] + e[0]), e[0])))


def _placements(n: int, pattern: _Graph) -> list[tuple[tuple[int, int], ...]]:
    """The distinct edge images of every placement of the pattern in [n], each
    a sorted tuple of host edges, in sorted order.

    The host is complete, so placements are counted out rather than searched
    for: every increasing p-tuple is a linear placement, and every p-subset
    read from each of its p starting points is a cyclic one. Each distinct
    rotation of the pattern is read once, as a sorted tuple of sorted pairs
    of positions; an increasing p-tuple maps it onto a sorted tuple of edges,
    so equal images are equal tuples.
    """
    p = pattern.n
    turns = range(p) if pattern.mode == "cg" else range(1)
    shapes = {tuple(sorted(tuple(sorted(((u - 1 + s) % p, (v - 1 + s) % p)))
                           for u, v in pattern.edges)) for s in turns}
    return sorted({tuple([(c[x], c[y]) for x, y in shape])
                   for c in combinations(range(1, n + 1), p) for shape in shapes})


def _masks(placements: list[tuple[tuple[int, int], ...]],
           edges: Sequence[tuple[int, int]]) -> list[int]:
    """The placements as bitmasks over the given edge order, sorted."""
    bit = {e: 1 << i for i, e in enumerate(edges)}
    return sorted([sum(map(bit.__getitem__, image)) for image in placements])


def _proof_edges(n: int, placements: list[tuple[tuple[int, int], ...]]) -> list[tuple[int, int]]:
    """The proof order: edges that lie in more placements first (fail-first),
    ties in cyclic-length order."""
    counts = Counter(chain.from_iterable(placements))
    return sorted(_cyclic_length_edges(n), key=lambda e: -counts[e])


def _relabellings(n: int, pattern: _Graph) -> list[list[int]]:
    """Non-identity relabellings img of [n] (img[0] unused) that carry the
    pattern's placements onto themselves: the rotations (the identity alone
    on a line), each composed with the mirror too when the linearisation of
    the pattern by some r is the pattern, that is its mirror is a rotation."""
    cg = pattern.mode == "cg"
    reflective = any(_linear_edges(pattern.n, pattern.edges, r) == pattern.edges
                     for r in range(pattern.n if cg else 1))
    flip = [0] + list(range(n, 0, -1))
    turns = [[0] + [(v + r) % n + 1 for v in range(n)] for r in range(n if cg else 1)]
    return turns[1:] + ([[t[v] for v in flip] for t in turns] if reflective else [])


class _Found(Exception):
    """Raised at the first leaf of a search asked to stop there."""


def _search(n: int, pattern: _Graph, placements: list[tuple[tuple[int, int], ...]],
            edges: Sequence[tuple[int, int]], best: int,
            first: bool) -> tuple[int, list[tuple[int, int]], int]:
    """(best count, its edges, nodes) of the branch-and-bound that decides the
    edges in the given order, counting only graphs above best. placements:
    those of the pattern in [n] (_placements). first: stop at the first leaf,
    with no symmetry breaking."""
    index = {e: i for i, e in enumerate(edges)}
    masks = _masks(placements, edges)
    # Edges are decided in index order and every later edge is still absent,
    # so adding edge i can only complete a placement whose top edge is i.
    closing: list[list[int]] = [[] for _ in edges]
    for m in masks:
        top = m.bit_length() - 1
        closing[top].append(m ^ (1 << top))
    total = len(edges)
    # Per relabelling g, inv[k] is the edge that g carries onto position k, so
    # g(cur) holds k iff cur holds inv[k]. Position k is known on both sides
    # once k and inv[k] are decided; at depth i the known prefix of g grows
    # from lo to hi, and tests[i] holds (bit of g, inv, lo, hi).
    maps = [] if first else _relabellings(n, pattern)
    tests: list[list[tuple]] = [[] for _ in range(total + 1)]
    for g, img in enumerate(maps):
        inv = [0] * total
        for e, (a, b) in enumerate(edges):
            x, y = img[a], img[b]
            inv[index[(x, y) if x < y else (y, x)]] = e
        prefix = 0
        for i in range(1, total + 1):
            grown = prefix
            while grown < i and inv[grown] < i:
                grown += 1
            if grown > prefix:
                tests[i].append((1 << g, inv, prefix, grown))
            prefix = grown
    best_mask = 0
    nodes = 0

    def rec(i: int, cur: int, count: int, live: list[int], alive: int) -> None:
        nonlocal best, best_mask, nodes
        nodes += 1
        undecided = total - i
        if count + undecided <= best:
            return
        if i == total:
            best, best_mask = count, cur
            if first:
                raise _Found
            return
        # Lex-leader test, bit 0 most significant, on the newly known
        # positions only (the earlier ones are equal): at the first
        # difference, g(cur) ahead prunes; cur ahead retires g for the subtree.
        if alive:
            for g, inv, lo, hi in tests[i]:
                if alive & g:
                    for k in range(lo, hi):
                        x = cur >> inv[k] & 1
                        if x != cur >> k & 1:
                            if x:
                                return
                            alive ^= g
                            break
        # Live placements (no edge excluded) with pairwise disjoint undecided
        # parts each still have to lose one of their own undecided edges, so
        # slack picks prune: too short a list cannot, nor can the at most
        # undecided picks once count > best, and the scan stops at the
        # slack-th pick. A live placement's decided edges are all in cur,
        # so its undecided part is m & high.
        slack = count + undecided - best
        if count <= best and len(live) >= slack:
            used = 0
            high = -1 << i
            for m in live:
                if not m & used:
                    used |= m & high
                    slack -= 1
                    if not slack:
                        return
        bit = 1 << i
        for r in closing[i]:
            if r & cur == r:
                break
        else:
            rec(i + 1, cur | bit, count + 1, live, alive)
        rec(i + 1, cur, count, [m for m in live if not m & bit], alive)

    try:
        rec(0, 0, 0, masks, (1 << len(maps)) - 1)
    except _Found:
        pass
    del rec  # rec reaches itself through its closure cell
    return best, sorted(edges[i] for i in range(total) if best_mask >> i & 1), nodes


def extremal_number(n: int, pattern: _Graph) -> ExtremalResult:
    """Maximum edges of an n-vertex graph (same mode as the pattern) that
    does not contain the pattern, by exhaustive branch-and-bound.

    The full 2^C(n,2) enumeration that checks this search is
    ``oracles.oracle_extremal_number``, which shares no code with it.
    """
    _check_int("n", n)
    if n < SOLVER_MIN_N:
        raise InputError(f"extremal queries need n >= {SOLVER_MIN_N}")
    if n > SOLVER_MAX_N:
        raise BudgetError(
            f"exact extremal search is refused above n = {SOLVER_MAX_N}; "
            "no approximation is attempted"
        )
    _check_graph("pattern", pattern)
    if pattern.n > n:
        raise InputError(f"pattern on {pattern.n} vertices exceeds host size {n}")
    if not pattern.edges:
        raise InputError("pattern has no edges, so every host contains it")

    t0 = time.perf_counter()
    placements = _placements(n, pattern)
    value, _, proof_nodes = _search(n, pattern, placements, _proof_edges(n, placements), -1, False)
    _, chosen, witness_nodes = _search(n, pattern, placements, _canonical_edges(n), value - 1, True)
    witness = type(pattern)._trusted(n, tuple(chosen))
    result = ExtremalResult(n, pattern.mode, value, witness, pattern,
                            proof_nodes + witness_nodes, time.perf_counter() - t0)
    _check_result(result)
    return result


def _check_result(r: ExtremalResult) -> None:
    """Raise AssertionError unless the witness is pattern-free of the claimed size."""
    if len(r.witness.edges) != r.value:
        raise AssertionError("witness has the wrong edge count")
    if contains(r.witness, r.pattern):
        raise AssertionError("witness contains the pattern")


# --- constructive embeddings into dense hosts -------------------------------


def _exact(dec: Union[ZDecomposition, CgZDecomposition]) -> bool:
    """Tuples and int labels only. Equal decompositions share one cached plan
    and True == 1.0 == 1, so a coerced copy would skip validation."""
    if isinstance(dec, CgZDecomposition):
        return type(dec.rotation) is int and _exact(dec.linear)
    parts = (dec.core, dec.s_j, dec.s_i)
    return all(type(p) is tuple for p in parts) and all(
        type(e) is tuple and all(type(v) is int for v in e) for e in (dec.hub,) + sum(parts, ()))


def _checked_tree(dec: ZDecomposition) -> OrderedGraph:
    """The tree of a caller's decomposition, which must be valid for it."""
    edges = dec.edges()
    tree = OrderedGraph(len(edges) + 1, edges)
    if not tree.is_tree():
        raise InputError("decomposition edges do not form a spanning tree")
    validate_decomposition(tree, dec)
    return tree


def _strip_longest_right(edges, lo: int, hi: int):
    """Delete each vertex's longest rightward edge for lo <= g <= hi.

    Takes sorted edges and returns (the kept edges as a sorted tuple,
    {g: far endpoint of the deleted edge}).
    """
    far = dict(edges)  # the edges are sorted: the last (g, w) is the longest
    deleted = {g: far[g] for g in range(lo, hi + 1) if g in far}
    gone = set(deleted.items())
    return tuple(e for e in edges if e not in gone), deleted


def _linear_steps(dec: ZDecomposition, steps: list) -> Optional[tuple]:
    """Append to steps those of a valid decomposition, down to one edge;
    return them all, or None if a derived tree does not decompose."""
    while dec.a + dec.b + dec.c > 1:
        a, b, c = dec.counts
        if c == 0:
            # b == 0 is a non-canonical split of a pure chain: re-split it;
            # otherwise the mirror image has the fan on the right
            if b:
                steps.append(("mirror",))
            # derived from a validated z-tree: a tree with χ = 2, as the scan needs
            edges = dec.edges()
            dec = _z_scan(_linear_edges(len(edges) + 1, edges, 0) if b else edges)
            if not isinstance(dec, ZDecomposition):
                return None
            continue
        # strip at b < g <= n-a-c+1, then extend at the hub's left endpoint
        steps.append(("right", b + 1, a + c - 1, dec.hub[0]))
        dec = ZDecomposition(dec.hub, dec.core, dec.s_j, dec.s_i[:-1])
    return tuple(steps)


@lru_cache(maxsize=1024)  # more decompositions than the checks and benchmark use
def _plan(dec: Union[ZDecomposition, CgZDecomposition]) -> tuple[_Graph, Optional[tuple]]:
    """(validated tree, its induction steps or None) for one decomposition."""
    if isinstance(dec, ZDecomposition):
        return _checked_tree(dec), _linear_steps(dec, [])
    lin = _checked_tree(dec.linear)
    tree = CgGraph._trusted(lin.n, _linear_edges(lin.n, lin.edges, dec.rotation))
    return tree, _linear_steps(dec.linear, [("unroll", dec.rotation), ("mirror",)])


def _run_plan(host: _Graph, steps: tuple) -> Optional[tuple[int, ...]]:
    """Peel the host's edges down the steps, take the first, extend back up.

    Unroll peels nothing: a cg host's edges, read as a line, are the same
    sorted list.
    """
    n = host.n
    edges = host.edges
    peeled = []
    for step in steps:
        kind = step[0]
        deleted = None
        if kind == "right":
            edges, deleted = _strip_longest_right(edges, step[1], n - step[2])
        elif kind == "mirror":
            edges = sorted((n + 1 - v, n + 1 - u) for u, v in edges)
        peeled.append(deleted)
    if not edges:
        return None
    images = edges[0]
    for step, deleted in zip(reversed(steps), reversed(peeled)):
        kind = step[0]
        if kind == "right":
            # the deleted edge at the hub's image must end beyond every image
            w = deleted.get(images[step[3] - 1])
            if w is None or w <= max(images):
                return None
            images += (w,)
        elif kind == "mirror":
            images = tuple(n + 1 - v for v in reversed(images))
        else:
            r = step[1] % len(images)
            images = images[r:] + images[:r]
    return images


def embed_dense(
    host: _Graph, dec: Union[ZDecomposition, CgZDecomposition]
) -> Optional[Embedding]:
    """Embed the decomposed tree into a dense host, or return None.

    Success is guaranteed above (k-1)n - C(k,2) edges for a k-edge tree and
    an n-vertex host, ordered or cg (see module docstring); any embedding
    returned is independently validated.
    """
    _check_graph("host", host)
    if isinstance(dec, ZDecomposition):
        mode, need = "ordered", "a linear decomposition needs an ordered host"
    elif isinstance(dec, CgZDecomposition) and isinstance(dec.linear, ZDecomposition):
        mode, need = "cg", "a cyclic decomposition needs a cg host"
    else:
        raise InputError(
            "dec must be a ZDecomposition or a CgZDecomposition of one, "
            f"got {type(dec).__name__}"
        )
    if host.mode != mode:
        raise InputError(need)
    if not _exact(dec):
        raise InputError("decomposition fields must be tuples of int labels, rotation an int")
    tree, steps = _plan(dec)
    if tree.n > host.n:
        raise InputError("host smaller than the tree")
    images = None if steps is None else _run_plan(host, steps)
    if images is None:
        return None
    emb = Embedding(host.order, images, reflected=False)
    validate_embedding(host, tree, emb)
    return emb
