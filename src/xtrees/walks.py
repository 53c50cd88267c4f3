"""Fast/slow walk detection in edge-colored bipartite graphs, and extraction
of large walk-free subgraphs.

A *walk* here is a directed traversal of four edges e1 e2 e3 e4 (vertices
v0..v4, consecutive edges sharing the intermediate vertex and distinct).
With a proper edge coloring c:

* fast:  c(e2) < c(e3) < c(e4) <= c(e1)
* slow:  c(e2) < c(e3) < c(e4)  and  c(e2) < c(e1) <= c(e4), with v0 on a
  designated start side.

Vertices may repeat along a walk; edge distinctness is only required for
consecutive edges, and the color rules already give it: c2 < c3 < c4, and
c1 > c2 in both kinds.

Both kinds read as an ascending path e2 e3 e4 (c2 < c3 < c4) from v1 plus a
first edge e1 at v1 whose color is tested against c2 and c4. That search
from e2 is written once, in ``_walk_from_e2``: the detector
``find_forbidden_walk`` runs it from every edge, and the closure test of
extraction (does one added edge close a walk?) from the edges near the
added one.
``enumerate_all_walks`` and ``Walk4.check`` share none of this code and serve
as the independent reference and validator.

``extract_walk_free`` returns a certified walk-free subgraph of size at least
``ceil(log2(d) / (480 d) * |E|)`` and never smaller than the largest single
color class.  The union of at most two color classes can never host a walk
(three strictly increasing colors are needed), which gives the search a safe
floor; an exhaustive branch-and-bound handles instances with at most 20
edges, a seeded greedy augmentation everything larger.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetError, InputError
from .order import (_TEXT_TYPES, _check_graph, _check_host_size, _check_int, _Graph,
                    _normalize_edge)

EXHAUSTIVE_EDGE_LIMIT = 20
ORACLE_EDGE_LIMIT = 14
LOG_BASE = 2

_KINDS = ("fast", "slow")


def _check_kind_side(kind: str, start_side: Optional[str]) -> Optional[str]:
    if kind not in _KINDS:
        raise InputError(f"walk kind must be 'fast' or 'slow', got {kind!r}")
    if kind == "fast":
        if start_side is not None:
            raise InputError("start_side only applies to slow walks")
        return None
    side = "B" if start_side is None else start_side
    if side not in ("A", "B"):
        raise InputError(f"start_side must be 'A' or 'B', got {start_side!r}")
    return side


def _check_colored(g) -> None:
    if not isinstance(g, ColoredBipartite):
        raise InputError(f"expected a ColoredBipartite, got {type(g).__name__}")


def _vertex_set(vs: Iterable[int]) -> frozenset:
    if not isinstance(vs, Iterable) or isinstance(vs, _TEXT_TYPES):
        raise InputError(f"a side must be a sequence of vertices, got {vs!r}")
    vs = tuple(vs)
    for v in vs:
        _check_int("vertex", v)
    return frozenset(vs)


class ColoredBipartite:
    """A bipartite graph with sides (A, B) and a proper edge coloring.

    ``edges`` is an iterable of ``(u, v, color)`` with ``u`` and ``v`` on
    opposite sides and colors positive integers; ``d`` defaults to the
    largest color used. Vertices, colors and ``d`` must be ints: bools and
    floats are rejected, never coerced. Improper colorings and edges inside
    a side are rejected.
    """

    __slots__ = ("side_a", "side_b", "edges", "d", "_color", "_adj")

    def __init__(
        self,
        side_a: Iterable[int],
        side_b: Iterable[int],
        edges: Iterable[tuple[int, int, int]],
        d: Optional[int] = None,
    ) -> None:
        self.side_a = _vertex_set(side_a)
        self.side_b = _vertex_set(side_b)
        if self.side_a & self.side_b:
            raise InputError("sides A and B must be disjoint")
        if not isinstance(edges, Iterable):
            raise InputError(f"edges must be a sequence of (u, v, color) triples, got {edges!r}")
        norm = []
        for e in edges:
            if isinstance(e, _TEXT_TYPES):
                raise InputError(f"edge must be a (u, v, color) triple, got {e!r}")
            try:
                u, v, color = e
            except (TypeError, ValueError):
                raise InputError(f"edge must be a (u, v, color) triple, got {e!r}") from None
            _check_int("vertex", u)
            _check_int("vertex", v)
            if type(color) is not int or color < 1:
                raise InputError(f"colors must be positive integers, got {color!r}")
            across = (u in self.side_a and v in self.side_b) or (
                u in self.side_b and v in self.side_a
            )
            if not across:
                raise InputError(f"edge ({u}, {v}) does not join A to B")
            norm.append((min(u, v), max(u, v), color))
        norm.sort()
        self.edges = tuple(norm)
        color = {}
        adj: dict[int, list[tuple[int, int]]] = {}
        for u, v, c in norm:
            e = (u, v)
            if e in color:
                raise InputError(f"duplicate edge ({u}, {v})")
            color[e] = c
            adj.setdefault(u, []).append((v, c))
            adj.setdefault(v, []).append((u, c))
        for v, nbrs in adj.items():
            seen = [c for _, c in nbrs]
            if len(seen) != len(set(seen)):
                raise InputError(f"coloring is not proper at vertex {v}")
        self._color = color
        self._adj = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
        maxc = max((c for _, _, c in norm), default=1)
        if d is not None:
            _check_int("d", d)
        self.d = maxc if d is None else d
        if self.d < maxc:
            raise InputError(f"d = {self.d} below largest color {maxc}")

    def color_of(self, u: int, v: int) -> int:
        _check_int("vertex", u)
        _check_int("vertex", v)
        try:
            return self._color[(u, v) if u < v else (v, u)]
        except KeyError:
            raise InputError(f"({u}, {v}) is not an edge") from None

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        """Sorted (neighbor, color) pairs at v."""
        self.side_of(v)  # refuses a non-vertex
        return self._adj.get(v, ())

    def side_of(self, v: int) -> str:
        _check_int("vertex", v)
        return self._side(v)

    def _side(self, v: int) -> str:
        """side_of for an int v; the searches call it on their vertices."""
        if v in self.side_a:
            return "A"
        if v in self.side_b:
            return "B"
        raise InputError(f"vertex {v} is on neither side")

    def color_classes(self) -> dict[int, tuple[tuple[int, int], ...]]:
        out: dict[int, list[tuple[int, int]]] = {}
        for u, v, c in self.edges:
            out.setdefault(c, []).append((u, v))
        return {c: tuple(es) for c, es in sorted(out.items())}

    def subgraph(self, keep: Iterable[tuple[int, int]]) -> "ColoredBipartite":
        """Restriction to the given edges (same sides, same colors, same d)."""
        if not isinstance(keep, Iterable):
            raise InputError(f"keep must be a sequence of vertex pairs, got {keep!r}")
        want = {_normalize_edge(e) for e in keep}
        missing = want - set(self._color)
        if missing:
            raise InputError(f"not edges of this graph: {sorted(missing)}")
        sub = [(u, v, c) for u, v, c in self.edges if (u, v) in want]
        return ColoredBipartite(self.side_a, self.side_b, sub, d=self.d)

    @classmethod
    def from_colored_graph(cls, g: _Graph) -> "ColoredBipartite":
        """Adopt an edge-colored graph, inferring its sides.

        Inference two-colors each connected component and puts the class of
        the component's smallest vertex into A; isolated vertices land in A.
        A caller with sides of its own passes them to the constructor.
        """
        _check_graph("g", g)
        _check_host_size("graph", g.n)
        if g.colors is None:
            raise InputError("graph has no edge colors")
        adj = g._neighbor_lists()
        part = {}
        for start in range(1, g.n + 1):
            if start in part:
                continue
            part[start] = 0
            queue = [start]
            while queue:
                x = queue.pop()
                for y in adj[x]:
                    if y not in part:
                        part[y] = part[x] ^ 1
                        queue.append(y)
                    elif part[y] == part[x]:
                        raise InputError("graph is not bipartite")
        side_a = [v for v, p in part.items() if p == 0]
        side_b = [v for v, p in part.items() if p == 1]
        return cls(side_a, side_b, [(u, v, c) for (u, v), c in zip(g.edges, g.colors)])


@dataclass(frozen=True)
class Walk4:
    """A four-edge walk v0..v4 with its edge colors and kind."""

    vertices: tuple[int, int, int, int, int]
    colors: tuple[int, int, int, int]
    kind: str

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        vs = self.vertices
        return tuple(
            (min(vs[i], vs[i + 1]), max(vs[i], vs[i + 1])) for i in range(4)
        )

    def check(self, g: ColoredBipartite, start_side: Optional[str] = None) -> None:
        """Raise AssertionError unless this walk is valid in g.

        The checks raise explicitly, so they also run under ``python -O``.
        """
        _check_colored(g)
        side = _check_kind_side(self.kind, start_side)
        vs, cs = self.vertices, self.colors
        for i, e in enumerate(self.edges):
            if e not in g._color:
                raise AssertionError(f"{e} not an edge")
            if g.color_of(*e) != cs[i]:
                raise AssertionError(f"color mismatch on {e}")
        for i in range(3):
            if self.edges[i] == self.edges[i + 1]:
                raise AssertionError("consecutive edges equal")
        c1, c2, c3, c4 = cs
        if not c2 < c3 < c4:
            raise AssertionError("need c2 < c3 < c4")
        if self.kind == "fast":
            if not c4 <= c1:
                raise AssertionError("fast needs c4 <= c1")
        else:
            if not c2 < c1 <= c4:
                raise AssertionError("slow needs c2 < c1 <= c4")
            if g.side_of(vs[0]) != side:
                raise AssertionError(f"slow walk must start in {side}")


def _walk_from_e2(nbrs, v1, v2, c2, kind, side_of, side) -> Optional[Walk4]:
    """First walk with second edge e2 = v1 v2 of colour c2, or None: e2 grows
    into an ascending path e2 e3 e4, and e1 = v0 v1 closes it if c4 <= c1
    (fast), or c2 < c1 <= c4 with v0 on the start side (slow). Either way
    c1 > c2, so e1 is never e2."""
    for v3, c3 in nbrs(v2):
        if c3 <= c2:
            continue
        for v4, c4 in nbrs(v3):
            if c4 <= c3:
                continue
            for v0, c1 in nbrs(v1):
                if (c4 <= c1) if kind == "fast" else (c2 < c1 <= c4 and side_of(v0) == side):
                    return Walk4((v0, v1, v2, v3, v4), (c1, c2, c3, c4), kind)
    return None


def find_forbidden_walk(
    g: ColoredBipartite, kind: str, start_side: Optional[str] = None
) -> Optional[Walk4]:
    """First forbidden walk of the requested kind, or None.

    The search is deterministic: vertices and neighbor lists are scanned in
    sorted order, and the walk is grown from its second edge outward (e2,
    then e3, e4, then e1), which keeps the color filters sharpest early.
    """
    _check_colored(g)
    side = _check_kind_side(kind, start_side)
    nbrs = g._adj.__getitem__  # every vertex of a walk is a key
    for v1 in sorted(g._adj):
        for v2, c2 in nbrs(v1):
            walk = _walk_from_e2(nbrs, v1, v2, c2, kind, g._side, side)
            if walk is not None:
                return walk
    return None


def enumerate_all_walks(
    g: ColoredBipartite, kind: str, start_side: Optional[str] = None
) -> list[Walk4]:
    """Brute-force reference: every walk of the kind, via raw edge 4-tuples.

    Deliberately shares no search logic with find_forbidden_walk — it ranges
    over all ordered edge quadruples (e1, e2, e3, e4), in the order of
    ``itertools.product(edges, repeat=4)``, and all ways to chain them. Nested
    loops drop a prefix as soon as it fails: e2 must differ from e1 and share
    an endpoint v1 with it, e3 must differ from e2, hold v2 and have c2 < c3,
    and e4 must differ from e3, hold v3 and have c3 < c4; the kind's test on
    c1 (and the start side) is made on the full quadruple. A quadruple chains
    in at most one way, so the list and its order are those of the product.
    Capped at 14 edges.
    """
    _check_colored(g)
    side = _check_kind_side(kind, start_side)
    if len(g.edges) > ORACLE_EDGE_LIMIT:
        raise BudgetError(
            f"graph has {len(g.edges)} edges; the reference enumeration's limit is "
            f"{ORACLE_EDGE_LIMIT}"
        )
    colored = [((u, v), c) for u, v, c in g.edges]

    def other(e, x):
        return e[0] if e[1] == x else e[1]

    found = []
    for e1, c1 in colored:
        for e2, c2 in colored:
            if e1 == e2:
                continue
            # e2 = {v1, v2}: choosing v1 fixes the whole vertex sequence
            for v1 in e1:
                if v1 in e2:
                    break
            else:
                continue
            v0 = other(e1, v1)
            v2 = other(e2, v1)
            for e3, c3 in colored:
                if e2 == e3 or v2 not in e3 or not c2 < c3:
                    continue
                v3 = other(e3, v2)
                for e4, c4 in colored:
                    if e3 == e4 or v3 not in e4 or not c3 < c4:
                        continue
                    if kind == "fast":
                        if not c4 <= c1:
                            continue
                    else:
                        if not c2 < c1 <= c4:
                            continue
                        if g.side_of(v0) != side:
                            continue
                    walk = (v0, v1, v2, v3, other(e4, v3))
                    found.append(Walk4(walk, (c1, c2, c3, c4), kind))
    return found


def _walk_through(adj, e_new, kind, side_of, side) -> bool:
    """Does e_new, already in adj, close a forbidden walk?

    Precondition: the other edges of adj are walk-free. So a walk uses e_new,
    and its second edge v1 v2 ends at a neighbour v2 of an end x of e_new:
    x = v1 when e_new is e1 or e2, and x = v3 when it is e3 or e4. The
    detector's search runs from each such e2 whose colour c2 is at most
    c(e_new): c2 is the smallest colour of any walk.
    """
    nbrs = adj.__getitem__  # every end of an edge in adj is a key
    u, v = e_new
    c_new = next(c for w, c in nbrs(u) if w == v)
    return any(_walk_from_e2(nbrs, v1, v2, c2, kind, side_of, side)
               for x in e_new for v2, _ in nbrs(x) for v1, c2 in nbrs(v2) if c2 <= c_new)


@dataclass(frozen=True)
class Extraction:
    """A certified walk-free subgraph plus the metadata the bound refers to."""

    subgraph: ColoredBipartite
    kind: str
    start_side: Optional[str]
    seed: int
    bound: int
    largest_class: int
    method: str

    @property
    def size(self) -> int:
        return len(self.subgraph.edges)

    def metadata(self) -> dict:
        return {
            "kind": self.kind,
            "start_side": self.start_side,
            "seed": self.seed,
            "bound": self.bound,
            "achieved": self.size,
            "largest_class": self.largest_class,
            "method": self.method,
            "log_base": LOG_BASE,
        }


def size_bound(num_edges: int, d: int) -> int:
    """ceil(log2(d) / (480 d) * |E|) — the guaranteed extraction size."""
    _check_int("num_edges", num_edges)
    _check_int("d", d)
    if num_edges < 0:
        raise InputError("num_edges must be non-negative")
    if d < 1:
        raise InputError("d must be positive")
    return math.ceil(math.log2(d) / (480 * d) * num_edges)


def extract_walk_free(
    g: ColoredBipartite,
    kind: str,
    start_side: Optional[str] = None,
    seed: int = 0,
) -> Extraction:
    _check_colored(g)
    _check_int("seed", seed)
    side = _check_kind_side(kind, start_side)
    bound = size_bound(len(g.edges), g.d)
    classes = g.color_classes()
    largest = max((len(es) for es in classes.values()), default=0)

    def walk_free_greedy() -> tuple[list[tuple[int, int]], str]:
        by_size = sorted(classes.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        chosen = {e for _, es in by_size[:2] for e in es}
        two = {c for c, _ in by_size[:2]}
        adj = {v: [(w, c) for w, c in nbrs if c in two] for v, nbrs in g._adj.items()}
        rest = [e for _, es in by_size[2:] for e in es]
        random.Random(seed).shuffle(rest)
        for u, v in rest:
            c = g._color[u, v]
            adj[u].append((v, c))
            adj[v].append((u, c))
            if _walk_through(adj, (u, v), kind, g._side, side):
                adj[u].remove((v, c))
                adj[v].remove((u, c))
            else:
                chosen.add((u, v))
        return sorted(chosen), "greedy"

    def walk_free_exhaustive() -> tuple[list[tuple[int, int]], str]:
        edges = g.edges
        best: list[tuple[int, int]] = []
        adj: dict[int, list[tuple[int, int]]] = {}
        chosen: list[tuple[int, int]] = []

        def rec(idx: int) -> None:
            nonlocal best
            if len(chosen) + (len(edges) - idx) <= len(best):
                return
            if idx == len(edges):
                best = list(chosen)
                return
            u, v, c = edges[idx]
            adj.setdefault(u, []).append((v, c))
            adj.setdefault(v, []).append((u, c))
            if not _walk_through(adj, (u, v), kind, g._side, side):
                chosen.append((u, v))
                rec(idx + 1)
                chosen.pop()
            adj[u].remove((v, c))
            adj[v].remove((u, c))
            rec(idx + 1)

        rec(0)
        del rec  # rec reaches itself through its closure cell
        return best, "exhaustive"

    if len(g.edges) <= EXHAUSTIVE_EDGE_LIMIT:
        keep, method = walk_free_exhaustive()
    else:
        keep, method = walk_free_greedy()
    sub = g.subgraph(keep)
    witness = find_forbidden_walk(sub, kind, start_side)
    if witness is not None:
        raise RuntimeError(f"extraction not walk-free: {witness}")
    if len(keep) < max(bound, largest):
        raise RuntimeError(
            f"extraction size {len(keep)} below floor {max(bound, largest)}"
        )
    return Extraction(sub, kind, side, seed, bound, largest, method)
