"""Vertex-ordered graphs: linear (on a line) and convex-geometric (on a circle).

Both kinds are purely combinatorial. Vertices are the integers 1..n; in linear
mode that is the left-to-right order, in cyclic mode the clockwise order around
a circle. No coordinates are ever stored: crossing and chromatic structure
depend only on the ordering.

Conventions used throughout the package:

* edges are unordered pairs, normalised to (u, v) with u < v;
* two edges sharing an endpoint never cross;
* linear crossing: (i, j) and (k, l) cross iff i < k < j < l or k < i < l < j;
* cyclic crossing: the chords cross iff each edge separates the other's
  endpoints on the circle, which for labels read clockwise is the same
  interleaving test as in linear mode;
* an *interval split* partitions 1..n into consecutive intervals (linear) or
  consecutive arcs (cyclic) with no edge inside a part. chi_interval /
  chi_cyclic return the minimum number of parts, exactly. Both orders run
  one greedy scan, one mask test per vertex: the linear order is the circle
  cut after vertex n, and chi_cyclic tries the cuts after n, n - 1, ... in
  turn, stopping at the first that reaches the lower bound the first cut
  sets: O(m + n^2) steps at worst for m edges, and O(m + n) when a cut near
  the start is optimal.

A graph is validated once, in its constructor: n, the endpoints and the
colours must be ints, edges in range, loop-free and distinct. The transforms
(mirror, rotate, reflect, relabeled) compute the derived edge list by label
arithmetic (``_relabel``) and build through the unchecked ``_Graph._trusted``,
because a permutation of a valid graph is valid. Code that only compares or
searches relabelled edges takes them from ``_linear_edges`` and builds no
graph, so it scans no split. The neighbour lists, adjacency
masks, tree test and interval splits are computed on first use and kept on
the graph, outside equality and hashing. A transform hands a known tree
test on to its result, and mirror, rotate and reflect also hand on the
split in the graph's own order (interval for ordered graphs, cyclic for cg
graphs): mapped boundary by boundary when the split is unique, that is for
a known tree with two parts, and as χ alone otherwise. ``edge_set`` is
rebuilt on each call: kept, it would cost more memory than time.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import BudgetError, InputError

Edge = tuple[int, int]

#: The most vertices a construction builds or a containment query takes: a
#: bigger construction would be a host that no query accepts.
MAX_HOST = 256

# Sequences of characters or bytes: never read as vertices, although a
# bytes object unpacks into ints.
_TEXT_TYPES = (str, bytes, bytearray, memoryview)

# One shared tuple per edge (u, v), 1 <= u < v <= 64: graphs on up to 64
# vertices, the range the search kernel and the solver work in, then hold
# references to these instead of a copy of every edge each.
_SHARED_MAX = 64
_SHARED_EDGES = [
    [(u, v) if u < v else None for v in range(_SHARED_MAX + 1)]
    for u in range(_SHARED_MAX + 1)
]


def _normalize_edge(e: Sequence[int]) -> Edge:
    if isinstance(e, _TEXT_TYPES):
        raise InputError(f"edge must be a pair of integers, got {e!r}")
    try:
        u, v = e
    except (TypeError, ValueError):
        raise InputError(f"edge must have two endpoints, got {e!r}") from None
    if type(u) is not int or type(v) is not int:
        raise InputError(f"edge endpoints must be integers, got {e!r}")
    if u == v:
        raise InputError(f"loop edge {u}-{v} rejected")
    if u > v:
        u, v = v, u
    return _SHARED_EDGES[u][v] if 0 < u and v <= _SHARED_MAX else (u, v)


def _check_int(what: str, x) -> None:
    """Reject anything but an int; bools, floats and strings are never coerced."""
    if type(x) is not int:
        raise InputError(f"{what} must be an integer, got {x!r}")


def _check_graph(what: str, g) -> None:
    """Reject anything but an ordered or cg graph."""
    if not isinstance(g, GRAPH_CLASSES):
        raise InputError(f"{what} must be an OrderedGraph or CgGraph, got {type(g).__name__}")


def _check_host_size(what: str, n: int) -> None:
    """Refuse a host on more than MAX_HOST vertices, naming the budget."""
    if n > MAX_HOST:
        raise BudgetError(f"{what} has {n} vertices; limit is {MAX_HOST}")


def _check_cg(what: str, g) -> None:
    """Reject anything but a cg graph."""
    if not isinstance(g, CgGraph):
        raise InputError(f"{what} expects a CgGraph, got {type(g).__name__}")


def _check_edges(n: int, edges: Iterable[Sequence[int]]) -> list[Edge]:
    """Normalise and validate, preserving the caller's edge order."""
    _check_int("vertex count", n)
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    if not isinstance(edges, Iterable):
        raise InputError(f"edges must be a sequence of vertex pairs, got {edges!r}")
    out = []
    seen = set()
    for e in edges:
        ne = _normalize_edge(e)
        if not (1 <= ne[0] and ne[1] <= n):
            raise InputError(f"edge {ne} out of range 1..{n}")
        if ne in seen:
            raise InputError(f"duplicate edge {ne}")
        seen.add(ne)
        out.append(ne)
    return out


@dataclass(frozen=True)
class _Graph:
    """Shared implementation of the two ordered-graph flavours."""

    n: int
    edges: tuple[Edge, ...]
    colors: Optional[tuple[int, ...]] = None
    _adj_cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    # the file-format name and the order vocabulary of Embedding and Verdict
    mode = "ordered"
    order = "linear"

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = (), colors=None):
        norm = _check_edges(n, edges)
        if colors is not None:
            if not isinstance(colors, Iterable):
                raise InputError(f"colors must be a sequence of integers, got {colors!r}")
            colors = list(colors)
            if any(type(c) is not int for c in colors):
                raise InputError(f"colors must be integers, got {colors!r}")
            if len(colors) != len(norm):
                raise InputError("colors must parallel the edge list")
            if any(c < 1 for c in colors):
                raise InputError("colors must be positive integers")
            pairs = sorted(zip(norm, colors))
            norm = [e for e, _ in pairs]
            colors = tuple(c for _, c in pairs)
        else:
            norm.sort()
        self._set(n, tuple(norm), colors)

    @classmethod
    def _trusted(cls, n: int, edges: tuple[Edge, ...], colors=None):
        """Build without validation from edges that are already normalised,
        distinct, in range and sorted (colors, if any, parallel to them)."""
        g = object.__new__(cls)
        g._set(n, edges, colors)
        return g

    def _set(self, n, edges, colors):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "_adj_cache", {})

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def _kept(self, key, compute):
        """compute(self), computed on first use and kept under ``key``. An
        exception is not kept: it is raised again on the next call."""
        cache = self._adj_cache
        if key not in cache:
            cache[key] = compute(self)
        return cache[key]

    def _neighbor_lists(self) -> list[list[int]]:
        """_adjacency_lists of this graph, kept; callers must not change them."""
        return self._kept("nbrs", lambda g: _adjacency_lists(g.n, g.edges))

    def _check_vertex(self, v) -> None:
        if type(v) is not int or not 1 <= v <= self.n:
            raise InputError(f"vertex must be an integer in 1..{self.n}, got {v!r}")

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._neighbor_lists()[v])

    def neighbors(self, v: int) -> list[int]:
        self._check_vertex(v)
        return list(self._neighbor_lists()[v])

    def adjacency_masks(self) -> list[int]:
        """adj[v] for v in 0..n-1 (0-based), as bitmasks over 0..n-1."""
        return self._kept("masks", lambda g: _adjacency_masks(g.n, g.edges))

    def is_tree(self) -> bool:
        """Connected and acyclic on the full vertex set 1..n."""
        return self._kept("tree", lambda g: _is_spanning_tree(g.n, g.edges))

    def relabeled(self, perm: dict):
        """Apply a vertex relabelling {old: new}; colors follow their edges.

        ``perm`` must map 1..n one-to-one onto 1..n.
        """
        labels = range(1, self.n + 1)
        if (not isinstance(perm, dict) or len(perm) != self.n
                or any(type(perm.get(v)) is not int for v in labels)
                or set(perm.values()) != set(labels)):
            raise InputError(f"relabelling {perm!r} is not a permutation of 1..{self.n}")
        return self._mapped([0] + [perm[v] for v in labels])

    def _mapped(self, img: list[int], bound=None):
        """The graph with each vertex v renamed img[v]; img must be a
        permutation of 1..n (img[0] is unused), so no check is needed. A
        relabelling keeps a tree a tree, so a known tree test carries over.

        ``bound``, given by mirror, rotate and reflect, maps a boundary of a
        split in this graph's own order to its image; those transforms keep
        that order's χ. The split is computed here, and kept on this graph,
        even if nobody has asked for it yet, so one scan serves the graph and
        all its transforms. A connected graph has at most one split into two
        parts, so a known tree with two parts hands on its mapped split, and
        any other graph its χ alone. ``relabeled`` hands on neither.
        """
        if self.colors is None:
            g = self._trusted(self.n, _relabel(self.edges, img))
        else:
            pairs = sorted(((min(img[u], img[v]), max(img[u], img[v])), c)
                           for (u, v), c in zip(self.edges, self.colors))
            g = self._trusted(self.n, tuple(e for e, _ in pairs), tuple(c for _, c in pairs))
        cache, kept = self._adj_cache, g._adj_cache
        if "tree" in cache:
            kept["tree"] = cache["tree"]
        if bound is not None:
            key = "cyclic" if self.mode == "cg" else "interval"
            split = cyclic_split(self) if self.mode == "cg" else interval_split(self)
            if len(split) == 2 and cache.get("tree"):
                kept[key] = tuple(sorted(map(bound, split)))
            else:
                kept["chi", key] = len(split)
        return g


def _relabel(edges: Iterable[Edge], img: Sequence[int]) -> tuple[Edge, ...]:
    """The sorted edges with each v renamed img[v], one-to-one on them."""
    out = [(img[u], img[v]) for u, v in edges]
    return tuple(sorted([(a, b) if a < b else (b, a) for a, b in out]))


def _linear_edges(n: int, edges: Iterable[Edge], r: int) -> tuple[Edge, ...]:
    """The edges rotated by r, then read in reverse: v -> n - (v-1+r) mod n,
    a reflection and its own inverse; r = 0 is the mirror v -> n+1-v."""
    return _relabel(edges, [0] + [n - (v + r) % n for v in range(n)])


def _adjacency_lists(n: int, edges: Sequence[Edge]) -> list[list[int]]:
    """nbrs[v] for v in 1..n, each list ascending; nbrs[0] is empty.

    The lists come out sorted because the edges are: every (u, v) with
    u < v precedes every (v, w).
    """
    nbrs = [[] for _ in range(n + 1)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def _is_spanning_tree(n: int, edges: Sequence[Edge]) -> bool:
    if len(edges) != n - 1:
        return False
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


class OrderedGraph(_Graph):
    """Graph on 1 < 2 < ... < n (a linear vertex order)."""


class CgGraph(_Graph):
    """Graph on n points in convex position, labelled 1..n clockwise."""

    mode = "cg"
    order = "cyclic"


#: The two graph classes, ordered first.
GRAPH_CLASSES = (OrderedGraph, CgGraph)


def _graph_class(order: str) -> type:
    """The graph class of the vertex order ``order``, "linear" or "cyclic"."""
    for cls in GRAPH_CLASSES:
        if cls.order == order:
            return cls
    raise InputError(f"mode must be 'linear' or 'cyclic', not {order!r}")


def _crosses(e: Edge, f: Edge) -> bool:
    """Do the normalised edges e and f cross, in either mode? Exactly one end
    of f lies strictly inside e and the other strictly outside; a shared
    endpoint is on neither side, so edges that share one never cross."""
    a, b = e
    c, d = f
    return a < c < b < d or c < a < d < b


def crosses(g: _Graph, e: Sequence[int], f: Sequence[int]) -> bool:
    """Do edges e and f of g cross? Shared endpoints never cross."""
    _check_graph("g", g)
    e, f = _normalize_edge(e), _normalize_edge(f)
    if e[0] < 1 or f[0] < 1 or e[1] > g.n or f[1] > g.n:
        raise InputError(f"edges {e} and {f} must lie in 1..{g.n}")
    return _crosses(e, f)


def _adjacency_masks(n: int, edges: Iterable[Edge]) -> list[int]:
    """adj[v] for v in 0..n-1 (0-based), as bitmasks over 0..n-1."""
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return adj


def _split_scan(adj: list[int], cut: int, most: int) -> Optional[tuple[int, ...]]:
    """Boundaries of a fewest-parts split into consecutive intervals with no
    edge inside a part, of the circle read as a line ending at vertex n - cut
    (cut 0 is the linear order 1..n), or None once it needs more than
    ``most`` parts.

    The line is split greedily from its right end: a part grows leftward
    while the next vertex has no edge into it (one mask test per vertex).
    Taking the widest part from the right end is optimal, because the
    fewest parts covering a prefix never decrease as the prefix grows.
    """
    n = len(adj)
    s = n - 1 - cut
    ends = [s + 1]
    part = 0
    # 0-based vertices from s down, wrapping through negative indices
    for x in range(s, s - n, -1):
        if adj[x] & part:
            ends.append(x % n + 1)
            if len(ends) > most:
                return None
            part = 0
        part |= 1 << (x % n)
    ends.sort()
    return tuple(ends)


def chi_interval(g: _Graph) -> int:
    """Minimum number of consecutive intervals of 1..n with no edge inside any
    part (treats the labels linearly regardless of g's mode)."""
    _check_graph("g", g)
    return g._adj_cache.get(("chi", "interval")) or len(g._kept("interval", _interval_scan))


def interval_split(g: _Graph) -> tuple[int, ...]:
    """The last vertex of each part of a fewest-parts interval split, in
    ascending order; the final boundary is n and the parts are
    (prev+1 .. b)."""
    _check_graph("g", g)
    return g._kept("interval", _interval_scan)


def _interval_scan(g: _Graph) -> tuple[int, ...]:
    return _split_scan(_adjacency_masks(g.n, g.edges), 0, g.n)


def chi_cyclic(g: CgGraph) -> int:
    _check_cg("chi_cyclic", g)
    return g._adj_cache.get(("chi", "cyclic")) or len(g._kept("cyclic", _cyclic_scan))


def cyclic_split(g: CgGraph) -> tuple[int, ...]:
    """The last vertex of each part of a fewest-parts split of the circle
    into consecutive arcs with no edge inside a part, in ascending order; the
    part after the last boundary wraps around to the first, and a single
    boundary means one arc covering the whole circle.

    This is the split of the first cut 0, 1, ... with the fewest parts. A
    cut adds at most one part to an optimal split of the circle, so no cut
    beats k0 - 1 parts, k0 those of cut 0, and the first cut that reaches
    max(2, k0 - 1) is the answer; if none does, cut 0 is. A cut is dropped
    as soon as it needs more parts than that.
    """
    _check_cg("cyclic_split", g)
    return g._kept("cyclic", _cyclic_scan)


def _cyclic_scan(g: CgGraph) -> tuple[int, ...]:
    adj = _adjacency_masks(g.n, g.edges)
    bounds = _split_scan(adj, 0, g.n)
    if len(bounds) > 2:
        for cut in range(1, g.n):
            fewer = _split_scan(adj, cut, len(bounds) - 1)
            if fewer is not None:
                return fewer
    return bounds


def mirror(g: _Graph):
    """Reverse the vertex order: v -> n+1-v. Defined for both modes; on the
    circle this is the reflection fixing the gap between n and 1."""
    _check_graph("g", g)
    n = g.n
    # part p+1..b becomes n+1-b..n-p: each boundary p turns into n - p, 0 into n
    return g._mapped(list(range(n + 1, 0, -1)), lambda b: n - b or n)


def rotate(g: CgGraph, r: int) -> CgGraph:
    """Rotate clockwise by r positions: v -> ((v-1+r) mod n)+1. Cyclic only."""
    _check_cg("rotate", g)
    _check_int("rotation", r)
    n = g.n
    return g._mapped([0] + [(v + r) % n + 1 for v in range(n)], lambda b: (b - 1 + r) % n + 1)


def reflect(g: CgGraph) -> CgGraph:
    """Reflect the circle (reverses the clockwise orientation). Cyclic only."""
    _check_cg("reflect", g)
    return mirror(g)
