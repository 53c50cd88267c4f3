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
  endpoints on the circle;
* an *interval split* partitions 1..n into consecutive intervals (linear) or
  consecutive arcs (cyclic) with no edge inside a part. chi_interval /
  chi_cyclic return the minimum number of parts; exact for n <= 64 well under
  a second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import InputError

Edge = tuple[int, int]


def _normalize_edge(e: Sequence[int]) -> Edge:
    if len(e) != 2:
        raise InputError(f"edge must have two endpoints, got {e!r}")
    u, v = e
    if type(u) is not int or type(v) is not int:
        raise InputError(f"edge endpoints must be integers, got {e!r}")
    if u == v:
        raise InputError(f"loop edge {u}-{v} rejected")
    return (u, v) if u < v else (v, u)


def _check_edges(n: int, edges: Iterable[Sequence[int]]) -> list[Edge]:
    """Normalise and validate, preserving the caller's edge order."""
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
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

    mode = "ordered"

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = (), colors=None):
        norm = _check_edges(n, edges)
        if colors is not None:
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
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "_adj_cache", {})

    @classmethod
    def from_color_map(cls, n: int, color_map: dict):
        """Build from an {edge: color} mapping (edge order irrelevant)."""
        edges = [_normalize_edge(e) for e in color_map]
        return cls(n, edges, colors=list(color_map.values()))

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def neighbors(self, v: int) -> list[int]:
        return sorted(w for e in self.edges for w in e if v in e and w != v)

    def adjacency_masks(self) -> list[int]:
        """adj[v] for v in 0..n-1 (0-based), as bitmasks over 0..n-1."""
        if "masks" not in self._adj_cache:
            adj = [0] * self.n
            for u, v in self.edges:
                adj[u - 1] |= 1 << (v - 1)
                adj[v - 1] |= 1 << (u - 1)
            self._adj_cache["masks"] = adj
        return self._adj_cache["masks"]

    def is_tree(self) -> bool:
        """Connected and acyclic on the full vertex set 1..n."""
        if len(self.edges) != self.n - 1:
            return False
        parent = list(range(self.n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    def relabeled(self, perm: dict):
        """Apply a vertex relabelling {old: new}; colors follow their edges."""
        new_edges = [(perm[u], perm[v]) for u, v in self.edges]
        if self.colors is None:
            return type(self)(self.n, new_edges)
        cmap = {_normalize_edge(e): c for e, c in zip(new_edges, self.colors)}
        return type(self).from_color_map(self.n, cmap)

    def __len__(self):
        return len(self.edges)


class OrderedGraph(_Graph):
    """Graph on 1 < 2 < ... < n (a linear vertex order)."""

    mode = "ordered"


class CgGraph(_Graph):
    """Graph on n points in convex position, labelled 1..n clockwise."""

    mode = "cg"


def crosses(g: _Graph, e: Sequence[int], f: Sequence[int]) -> bool:
    """Do edges e and f of g cross? Shared endpoints never cross."""
    a, b = _normalize_edge(e)
    c, d = _normalize_edge(f)
    if len({a, b, c, d}) < 4:
        return False
    if g.mode == "ordered":
        return (a < c < b < d) or (c < a < d < b)
    return _separates(g.n, a, b, c) != _separates(g.n, a, b, d)


def _separates(n: int, a: int, b: int, x: int) -> bool:
    """Is x strictly inside the clockwise arc from a to b?"""
    return 0 < (x - a) % n < (b - a) % n


def arc_side(n: int, chord: Sequence[int], x: int) -> int:
    """+1 if x lies strictly inside the clockwise arc u->v of chord (u,v),
    -1 if strictly inside the arc v->u. Raises if x is an endpoint."""
    u, v = _normalize_edge(chord)
    if x == u or x == v:
        raise InputError(f"vertex {x} lies on chord {chord}")
    return 1 if _separates(n, u, v, x) else -1


@dataclass(frozen=True)
class IntervalSplit:
    """A witness partition into consecutive intervals (or arcs).

    boundaries holds the last vertex of each part in ascending order. In
    linear mode the final boundary is always n and parts are
    (prev+1 .. b). In cyclic mode the part after boundary b_k wraps around to
    b_1; a single boundary means one arc covering the whole circle.
    """

    mode: str
    n: int
    boundaries: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.boundaries)


def _edge_free_starts(g: _Graph) -> list[int]:
    """s[e] = smallest s such that the interval [s..e] contains no edge of g
    (1-based, linear reading of the labels)."""
    s = [0] * (g.n + 1)
    left_nbrs = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        left_nbrs[v].append(u)
    cur = 1
    for e in range(1, g.n + 1):
        for u in left_nbrs[e]:
            if u + 1 > cur:
                cur = u + 1
        s[e] = cur
    return s


def chi_interval(g: _Graph) -> int:
    """Minimum number of consecutive intervals of 1..n with no edge inside any
    part (treats the labels linearly regardless of g's mode)."""
    return interval_split(g).k


def interval_split(g: _Graph) -> IntervalSplit:
    """chi_interval together with a witness partition."""
    s = _edge_free_starts(g)
    # dp[e] = fewest parts covering 1..e; parts end where an edge would close.
    dp = [0] * (g.n + 1)
    back = [0] * (g.n + 1)
    for e in range(1, g.n + 1):
        best = dp[s[e] - 1] + 1  # dp is non-decreasing, so the widest part wins
        dp[e] = best
        back[e] = s[e] - 1
    bounds = []
    e = g.n
    while e > 0:
        bounds.append(e)
        e = back[e]
    return IntervalSplit("ordered", g.n, tuple(reversed(bounds)))


def chi_cyclic(g: CgGraph) -> int:
    return cyclic_split(g).k


def cyclic_split(g: CgGraph) -> IntervalSplit:
    """Minimum partition of the circle into consecutive arcs with no edge
    inside a part, minimised over every possible cut position."""
    if g.mode != "cg":
        raise InputError("cyclic split needs a cg graph")
    if not g.edges:
        return IntervalSplit("cg", g.n, (g.n,))
    best: Optional[tuple[int, int, IntervalSplit]] = None
    for r in range(g.n):
        rotated = rotate(g, r)
        split = interval_split(rotated)
        if best is None or split.k < best[0]:
            # map each rotated boundary b back to the original label
            orig = tuple(sorted(((b - 1 - r) % g.n) + 1 for b in split.boundaries))
            best = (split.k, r, IntervalSplit("cg", g.n, orig))
            if split.k == 2:
                break
    return best[2]


def mirror(g: _Graph):
    """Reverse the vertex order: v -> n+1-v. Defined for both modes; on the
    circle this is the reflection fixing the gap between n and 1."""
    return g.relabeled({v: g.n + 1 - v for v in range(1, g.n + 1)})


def rotate(g: CgGraph, r: int) -> CgGraph:
    """Rotate clockwise by r positions: v -> ((v-1+r) mod n)+1. Cyclic only."""
    if g.mode != "cg":
        raise InputError("rotation is only defined on the circle")
    return g.relabeled({v: ((v - 1 + r) % g.n) + 1 for v in range(1, g.n + 1)})


def reflect(g: CgGraph) -> CgGraph:
    """Reflect the circle (reverses the clockwise orientation). Cyclic only."""
    if g.mode != "cg":
        raise InputError("reflection is only defined on the circle")
    return g.relabeled({v: g.n + 1 - v for v in range(1, g.n + 1)})
