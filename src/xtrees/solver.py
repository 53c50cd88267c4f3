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

The placements are built once per solve as bitmasks over canonical edge
indices, from vertex subsets of the complete host and tables cached per n;
the proof remaps them, and its relabellings, into its own order.

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
  undecided, which is then below slack. A parent tests its exclude child,
  after the include subtree, filtering the child's live list in that scan.
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
host's per-vertex neighbour lists, built once per call, down the plan: a
strip pops each vertex's longest rightward edge, a mirror flips an
orientation flag and copies nothing. It then takes the first remaining edge
and extends the image back up. So a call reads the host's edge list once
instead of rebuilding and re-sorting it at every step.

Below the threshold the algorithm may return None without certifying
absence. Every returned embedding is checked by the containment validator.
Tie-breaking never arises in the peeling: from a fixed endpoint, distinct
edges have distinct lengths in a line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional, Union

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
def _edge_tables(n: int) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """On canonical edge indices: bit[a][b] of 0-based vertices; the proof's tie
    order (length on the circle, then left endpoint); inv[k], the edge carried
    onto k, per rotation v -> v + r, then per (self-inverse) v -> r - 1 - v."""
    edges = _canonical_edges(n)
    index = [[0] * n for _ in range(n)]
    for k, (a, b) in enumerate(edges):
        index[a - 1][b - 1] = index[b - 1][a - 1] = k
    cyclic = sorted(range(len(edges)),
                    key=lambda k: (min(d := edges[k][1] - edges[k][0], n - d), edges[k][0]))
    inverses = [[index[(a - 1 - r) % n][(b - 1 - r) % n] for a, b in edges] for r in range(n)]
    inverses += [[index[(r - a) % n][(r - b) % n] for a, b in edges] for r in range(n)]
    return [[1 << k for k in row] for row in index], cyclic, inverses


def _placement_masks(n: int, pattern: _Graph) -> list[int]:
    """The distinct placements of the pattern in [n] as canonical bitmasks,
    sorted: each increasing p-tuple carries each rotation of the pattern (on a
    line, the pattern) onto one; isolated vertices can repeat an edge set."""
    p = pattern.n
    bit = _edge_tables(n)[0]
    shapes = {tuple(sorted(((u - 1 + s) % p, (v - 1 + s) % p) for u, v in pattern.edges))
              for s in range(p if pattern.mode == "cg" else 1)}
    return sorted({sum([bit[c[x]][c[y]] for x, y in shape])
                   for c in combinations(range(n), p) for shape in shapes})


def _proof_order(n: int, masks: list[int]) -> list[int]:
    """The proof order as canonical indices: edges in more placements first,
    ties in cyclic-length order."""
    w = len(masks).bit_length()  # edge k's count is the w-bit digit k of packed
    packed = sum(_remap(masks, range(0, w * n * (n - 1) // 2, w)))
    return sorted(_edge_tables(n)[1], key=lambda k: -(packed >> w * k & (1 << w) - 1))


def _remap(masks: list[int], pos: list[int]) -> list[int]:
    """The masks with each bit k moved to bit pos[k], sorted."""
    bit = [1 << j for j in pos]
    out = []
    for m in masks:
        r = 0
        while m:
            low = m & -m
            r |= bit[low.bit_length() - 1]
            m ^= low
        out.append(r)
    return sorted(out)


def _symmetries(n: int, pattern: _Graph) -> list[list[int]]:
    """inv (``_edge_tables``) of each relabelling kept for symmetry breaking."""
    turns = n if pattern.mode == "cg" else 1
    reflective = any(_linear_edges(pattern.n, pattern.edges, r) == pattern.edges
                     for r in range(pattern.n if turns > 1 else 1))
    inverses = _edge_tables(n)[2]
    return inverses[1:turns] + (inverses[n:n + turns] if reflective else [])


class _Found(Exception):
    """Raised at the first leaf of a search asked to stop there."""


def _search(masks: list[int], maps: list[list[int]], total: int, best: int,
            first: bool) -> tuple[int, int, int]:
    """(best count, its edge mask, nodes) of the search over edges 0..total-1,
    counting only graphs above best. masks: the placements, sorted; maps: inv
    of each relabelling to break symmetry by; first: stop at the first leaf."""
    closing: list[list[int]] = [[] for _ in range(total)]
    for m in masks:
        closing[m.bit_length() - 1].append(m ^ 1 << m.bit_length() - 1)
    # tests[i]: (bit of g, inv, lo, hi), positions lo..hi-1 newly known at depth i
    tests: list[list[tuple]] = [[] for _ in range(total + 1)]
    for g, inv in enumerate(maps):
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
        if i == total:
            best, best_mask = count, cur
            if first:
                raise _Found
            return
        # Lex-leader: at the first difference g(cur) ahead prunes, cur retires g.
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
        # Packing, tested here by an include child only (edge i - 1 in cur);
        # the count bound was tested before the call or is the parent's.
        slack = count + total - i - best
        high = -1 << i  # also the exclude child's: its live placements lack bit i
        if count <= best and cur & 1 << i >> 1 and len(live) >= slack:
            used = 0
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
        # The exclude child's bounds, with best as the include subtree left
        # it, in one scan that filters its live list (used = -1: no picks).
        slack = count + total - i - 1 - best
        kept = []
        used = 0 if count <= best else -1
        for m in live if slack > 0 else ():
            if not m & bit:
                kept.append(m)
                if not m & used:
                    used |= m & high
                    slack -= 1
                    if not slack:
                        break
        if slack > 0:
            rec(i + 1, cur, count, kept, alive)
        else:
            nodes += 1

    try:
        rec(0, 0, 0, masks, (1 << len(maps)) - 1)
    except _Found:
        pass
    del rec  # rec reaches itself through its closure cell
    return best, best_mask, nodes


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
    edges = _canonical_edges(n)
    masks = _placement_masks(n, pattern)
    order = _proof_order(n, masks)
    pos = sorted(range(len(order)), key=order.__getitem__)  # the inverse of order
    maps = [[pos[inv[k]] for k in order] for inv in _symmetries(n, pattern)]
    value, _, proof_nodes = _search(_remap(masks, pos), maps, len(edges), -1, False)
    _, chosen, witness_nodes = _search(masks, [], len(edges), value - 1, True)
    witness = type(pattern)._trusted(
        n, tuple(sorted(e for k, e in enumerate(edges) if chosen >> k & 1)))
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


def _linear_steps(dec: ZDecomposition, steps: list) -> tuple:
    """Append to steps those of a valid decomposition, down to one edge, and
    return them all. The z-scan decomposes every tree derived here: the a
    shortest edges of a z-tree are its core, as each fan edge is longer
    than the hub; the mirror of a z-tree with c = 0 is a z-tree, and so is
    a pure chain (b = c = 0) split again."""
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
            continue
        # strip at b < g <= n-a-c+1, then extend at the hub's left endpoint
        steps.append(("right", b + 1, a + c - 1, dec.hub[0]))
        dec = ZDecomposition(dec.hub, dec.core, dec.s_j, dec.s_i[:-1])
    return tuple(steps)


@lru_cache(maxsize=1024)  # more decompositions than the checks and benchmark use
def _plan(dec: Union[ZDecomposition, CgZDecomposition]) -> tuple[_Graph, tuple]:
    """(validated tree, its induction steps) for one decomposition."""
    if isinstance(dec, ZDecomposition):
        return _checked_tree(dec), _linear_steps(dec, [])
    lin = _checked_tree(dec.linear)
    tree = CgGraph._trusted(lin.n, _linear_edges(lin.n, lin.edges, dec.rotation))
    return tree, _linear_steps(dec.linear, [("unroll", dec.rotation), ("mirror",)])


def _run_plan(host: _Graph, steps: tuple) -> Optional[tuple[int, ...]]:
    """Peel the host's edges down the steps, take the first, extend back up.

    The edges live in per-vertex neighbour lists, built once: right[v] and
    left[v] hold v's neighbours above and below it, ascending. A mirror step
    flips an orientation flag and copies nothing: under the flag vertex g
    is n + 1 - g, so a rightward edge of g is a leftward edge of
    h = n + 1 - g and the longest one ends at left[h][0]. A right step pops
    each stripped vertex's longest rightward edge from its own list and
    removes it from the other endpoint's. Unroll peels nothing: a cg host's
    edges, read as a line, are the same edges.

    A right step always re-extends. Its tree, less the top ik-fan edge, has
    b vertices left of the hub ij and a + c - 1 right of i (the core lies in
    [i, j]), so the image g of i lies in the stripped range
    [b + 1, n - (a + c - 1)]. g keeps its edges to the images of j and the
    ik-fan, so g had a rightward edge and its longest one was deleted; the
    rightmost image is one of those kept neighbours, so the deleted edge
    ends beyond every image.
    """
    n = host.n
    right: list[list[int]] = [[] for _ in range(n + 1)]
    left: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in host.edges:  # sorted, so every list comes out ascending
        right[u].append(v)
        left[v].append(u)
    flipped = False
    peeled = []
    for step in steps:
        kind = step[0]
        deleted = None
        if kind == "right":
            deleted = {}
            lo, hi = step[1], n - step[2]
            if flipped:
                for h in range(n + 1 - hi, n + 2 - lo):
                    if left[h]:
                        w = left[h].pop(0)
                        right[w].remove(h)
                        deleted[n + 1 - h] = n + 1 - w
            else:
                for g in range(lo, hi + 1):
                    if right[g]:
                        w = right[g].pop()
                        left[w].remove(g)
                        deleted[g] = w
        elif kind == "mirror":
            flipped = not flipped
        peeled.append(deleted)
    # the first edge (u, v) in the current orientation: least u, then least v
    if flipped:
        v = next((v for v in range(n, 0, -1) if left[v]), 0)
        if not v:
            return None
        images = (n + 1 - v, n + 1 - left[v][-1])
    else:
        u = next((u for u in range(1, n + 1) if right[u]), 0)
        if not u:
            return None
        images = (u, right[u][0])
    for step, deleted in zip(reversed(steps), reversed(peeled)):
        kind = step[0]
        if kind == "right":
            images += (deleted[images[step[3] - 1]],)
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
    images = _run_plan(host, steps)
    if images is None:
        return None
    emb = Embedding(host.order, images, reflected=False)
    validate_embedding(host, tree, emb)
    return emb
