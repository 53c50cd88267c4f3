"""Recognition and classification machinery for ordered and cg trees.

The objects of study are trees on a linearly ordered vertex set (drawn on a
line) or a cyclically ordered one (drawn on a circle). Some trees have the
property that hosts avoiding them can carry only linearly many edges; this
module recognises them.

Core notions:

* An *increasing tree* is a chain of edges nested by span, each step adding
  exactly one vertex on the left or right end and sharing an endpoint with the
  previous edge. Its edges are totally ordered by length and pairwise
  non-crossing.
* A *z-tree* is an increasing tree ("core") whose longest edge ij (the "hub",
  i < j) additionally carries two fans: edges hj with h < i, and edges ik with
  k > j. Fan edges from opposite fans always cross; no other crossing occurs.
* The obstruction catalog collects the minimal trees with interval chromatic
  number two that are not z-trees; avoidance of the catalog characterises
  z-trees among such trees.
* On the circle, a tree is a cg z-tree when some rotation of it, read in
  reversed label order, is a z-tree; the characterisation is the absence of a
  crossing four-edge path and of a twin-crossing-path configuration.

The classifier reports, for a given tree, whether hosts avoiding it have
linearly many edges (with the exact extremal formula in the ordered case) or
superlinearly many, together with a machine-checkable witness. Both theorems
have the same shape, so one flow checks both orders: compute the chromatic
number (interval or cyclic); then run the decomposition route (z_decompose or
cg_z_decompose) and the forbidden-configuration route (the obstruction
catalog, or a crossing four-edge path and, only without one, twin crossing
paths); a mismatch raises, it is never papered over. Only the chromatic
number, the two routes, the formula and the growth tag depend on the order.
Each decomposition and detector result is kept on the graph it was computed
for, as χ and the tree test are, so the flow never repeats work a caller has
just done on the same graph; an error is not kept. The cg cuts and the
catalog's mirror test read edge lists from order._linear_edges, not graphs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, Optional, Union

from .containment import Embedding, contains, find_embedding
from .errors import BudgetError, InputError, NotApplicableError
from .order import (
    _SHARED_EDGES,
    CgGraph,
    Edge,
    OrderedGraph,
    _adjacency_lists,
    _check_cg,
    _check_graph,
    _check_int,
    _crosses,
    _Graph,
    _graph_class,
    _linear_edges,
    chi_cyclic,
    chi_interval,
    cyclic_split,
)

#: The 3-edge crossing path on [4]: the smallest obstruction, pinned a priori.
CROSSING_P3_EDGES = ((1, 3), (1, 4), (2, 4))


# ---------------------------------------------------------------------------
# increasing trees and z-decomposition


def increasing_chain(edges) -> Optional[tuple]:
    """Order ``edges`` into an increasing chain, or None if impossible.

    A valid chain has edge lengths exactly 1, 2, ..., k with consecutive spans
    nested (each adds one vertex at the left or right end). Returns the edges
    sorted into chain order.
    """
    es = [tuple(e) for e in edges]
    k = len(es)
    if k == 0:
        return None
    chain = sorted(es, key=lambda e: e[1] - e[0])
    if [e[1] - e[0] for e in chain] != list(range(1, k + 1)):
        return None
    for small, big in zip(chain, chain[1:]):
        if not (big[0] <= small[0] and small[1] <= big[1]):
            return None
    return tuple(chain)


@dataclass(frozen=True)
class ZDecomposition:
    """A tree split into increasing core plus the two hub fans.

    ``core`` is stored in chain order, so ``core[-1]`` is the hub ij.
    ``s_j`` holds the edges hj with h < i, ``s_i`` the edges ik with k > j;
    both fans are sorted.
    """

    hub: tuple[int, int]
    core: tuple[tuple[int, int], ...]
    s_j: tuple[tuple[int, int], ...]
    s_i: tuple[tuple[int, int], ...]

    @property
    def a(self) -> int:
        return len(self.core)

    @property
    def b(self) -> int:
        return len(self.s_j)

    @property
    def c(self) -> int:
        return len(self.s_i)

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.core + self.s_j + self.s_i))


@dataclass(frozen=True)
class NotAZTree:
    """Negative (cg_)z_decompose result, naming the violated condition."""

    reason: str

    def __bool__(self) -> bool:
        return False


def _require_tree(t: _Graph) -> None:
    if not t.is_tree():
        raise NotApplicableError(
            "input must be a tree: connected and acyclic on all its vertices"
        )


def _crossing_pairs(g: _Graph):
    """Crossing edge pairs in edge-list order.

    The edges are normalised and sorted, so each pair e = (a, b), f = (c, d)
    has a <= c, and then the chords cross iff a < c < b < d. On the circle
    the test is the same: exactly one of c, d must lie strictly between a
    and b.
    """
    return [
        (e, f) for e, f in combinations(g.edges, 2) if e[0] < f[0] < e[1] < f[1]
    ]


def z_decompose(t: OrderedGraph) -> Union[ZDecomposition, NotAZTree]:
    """Canonical z-decomposition of an ordered tree, or why there is none.

    One scan over the edges sorted by (length, edge): the core grows while
    the next edge is one longer and contains the previous core edge, and
    after each core edge ij the scan stops if every remaining edge is a fan
    edge hj with h < i or ik with k > j. The first such ij is the hub, so
    the core is as small and the fans as large as possible. With a crossing
    both fans are non-empty, so only the true hub works; a single-edge tree
    decomposes with the edge as hub and empty fans. Both fans come out
    sorted.

    Raises NotApplicableError if the input is not a tree or its interval
    chromatic number is not two. The result is kept on t.
    """
    if not isinstance(t, OrderedGraph):
        raise InputError("z_decompose expects an ordered graph")
    _require_tree(t)
    return t._kept("z", _z_decompose)


def _z_decompose(t: OrderedGraph) -> Union[ZDecomposition, NotAZTree]:
    """z_decompose for a graph already known to be an ordered tree."""
    if chi_interval(t) != 2:
        raise NotApplicableError("interval chromatic number must be 2")
    dec = _z_scan(t.edges)
    if isinstance(dec, ZDecomposition):
        return dec
    return NotAZTree(
        f"no edge of the increasing chain {dec} has all other edges in its two fans"
    )


def _z_scan(edges: tuple[Edge, ...]) -> Union[ZDecomposition, tuple[Edge, ...]]:
    """The scan of z_decompose over the sorted edges of an ordered tree with
    interval chromatic number two: the decomposition, validated, or else
    the increasing chain the scan built before it stopped."""
    # by (length, edge): the edges are sorted, and the sort is stable
    by_length = sorted(edges, key=lambda e: e[1] - e[0])
    core = []
    for i, j in by_length:
        # a core edge is one longer than the last and contains it
        if j - i != len(core) + 1 or core and not (i <= core[-1][0] and core[-1][1] <= j):
            break
        core.append((i, j))
        rest = by_length[len(core):]
        for h, k in rest:
            if not (k == j and h < i or h == i and k > j):
                break  # hk is in neither fan of ij
        else:
            s_j = tuple(sorted(e for e in rest if e[1] == j))
            dec = ZDecomposition((i, j), tuple(core), s_j, tuple(e for e in rest if e[0] == i))
            _check_decomposition(edges, dec)
            return dec
    return tuple(core)


def is_z_tree(t: OrderedGraph) -> bool:
    """Whether the ordered tree admits a z-decomposition."""
    return _decomposes(z_decompose, t)


def _decomposes(decompose, t: _Graph) -> bool:
    try:
        return bool(decompose(t))
    except NotApplicableError:
        return False


def validate_decomposition(t: OrderedGraph, dec: ZDecomposition) -> bool:
    """Re-check every z-decomposition invariant against the tree; True or raises.

    The fan forms leave no crossing to check: only opposite fan edges cross.
    """
    return _check_decomposition(t.edges, dec)


def _check_decomposition(edges: tuple[Edge, ...], dec: ZDecomposition) -> bool:
    """validate_decomposition against the tree with edge list ``edges``."""
    parts = list(dec.core) + list(dec.s_j) + list(dec.s_i)
    if len(parts) != len(set(parts)):
        raise InputError("core and fans overlap")
    if set(parts) != set(edges):
        raise InputError("core and fans do not partition the tree's edges")
    if increasing_chain(dec.core) != dec.core:
        raise InputError("core is not an increasing chain in chain order")
    if dec.core[-1] != dec.hub:
        raise InputError("hub is not the longest core edge")
    i, j = dec.hub
    for h, jj in dec.s_j:
        if jj != j or h >= i:
            raise InputError(f"fan edge {(h, jj)} is not of the form hj with h < i")
    for ii, k in dec.s_i:
        if ii != i or k <= j:
            raise InputError(f"fan edge {(ii, k)} is not of the form ik with k > j")
    return True


# ---------------------------------------------------------------------------
# cg z-trees


@dataclass(frozen=True)
class CgZDecomposition:
    """A rotation plus the z-decomposition of the linearized tree.

    ``rotation`` is the smallest r such that rotating the cg tree by r and
    reading labels in reversed order (v becomes n+1-v) yields an ordered
    z-tree; ``linear`` is that tree's decomposition.
    """

    rotation: int
    linear: ZDecomposition


def linearize(t: CgGraph, r: int) -> OrderedGraph:
    """Rotate a cg tree by r and read it as an ordered graph, reversing labels."""
    _check_cg("linearize", t)
    _check_int("rotation", r)
    # colors are dropped
    return OrderedGraph._trusted(t.n, _linear_edges(t.n, t.edges, r))


def cg_z_decompose(t: CgGraph) -> Union[CgZDecomposition, NotAZTree]:
    """Smallest rotation under which the cg tree linearizes to a z-tree.

    Raises NotApplicableError unless the input is a tree with cyclic interval
    chromatic number two. Rotation r cuts the circle after vertex n - r, and
    a z-tree has interval chromatic number two, so the cut must fall on a
    boundary of a split of the circle into two edge-free arcs. A tree is
    connected, so its two colour classes are unique, and so is that split:
    only the rotations r = (n - b) mod n for its two boundaries b can work,
    and they are tried in ascending order.

    Each try runs the z-scan on the linearized edge list alone, without
    building a graph or re-checking its interval chromatic number: a cut at
    a boundary turns the two edge-free arcs into two edge-free intervals, so
    that number is two by construction. The result is kept on t.
    """
    _check_cg("cg_z_decompose", t)
    _require_tree(t)
    return t._kept("cg_z", _cg_z_decompose)


def _cg_z_decompose(t: CgGraph) -> Union[CgZDecomposition, NotAZTree]:
    """cg_z_decompose for a graph already known to be a cg tree."""
    # a χ carried by a transform answers before any scan
    if chi_cyclic(t) != 2:
        raise NotApplicableError("cyclic interval chromatic number must be 2")
    n = t.n
    split = cyclic_split(t)
    for r in sorted((n - b) % n for b in split):
        # every linearization of a tree is a tree
        dec = _z_scan(_linear_edges(n, t.edges, r))
        if isinstance(dec, ZDecomposition):
            return CgZDecomposition(rotation=r, linear=dec)
    return NotAZTree("no rotation linearizes to a z-tree")


def is_cg_z_tree(t: CgGraph) -> bool:
    """Whether the cg tree admits a cg z-decomposition."""
    return _decomposes(cg_z_decompose, t)


# ---------------------------------------------------------------------------
# path utilities and detectors


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _paths_with_edges(t: _Graph, length: int) -> Iterator[tuple[int, ...]]:
    """Every simple path with exactly ``length`` >= 1 edges, lazily and in
    lexicographic order.

    Paths are vertex sequences; each path appears once, oriented so that the
    first vertex is smaller than the last. The depth-first search runs over
    ascending start vertices and ascending neighbour lists, so it meets the
    paths in lexicographic order and a caller can stop at the first it needs.
    """
    # not kept on t: the lists cost more memory than their rebuild costs time
    nbrs = _adjacency_lists(t.n, t.edges)
    for v in range(1, t.n + 1):
        seq = [v]
        stack = [iter(nbrs[v])]
        while stack:
            for w in stack[-1]:
                if w in seq:
                    continue
                if len(seq) < length:
                    seq.append(w)
                    stack.append(iter(nbrs[w]))
                    break
                if v < w:
                    yield (*seq, w)
            else:
                stack.pop()
                seq.pop()


@dataclass(frozen=True)
class CrossingPath4:
    """A four-edge path two of whose edges cross."""

    vertices: tuple[int, int, int, int, int]
    crossing: tuple[tuple[int, int], tuple[int, int]]

    def edges(self) -> tuple[tuple[int, int], ...]:
        v = self.vertices
        return tuple(_norm(v[x], v[x + 1]) for x in range(4))


def detect_crossing_path4(t: CgGraph) -> Optional[CrossingPath4]:
    """First four-edge path of the cg graph containing a crossing, if any;
    the result is kept on t."""
    _check_cg("detect_crossing_path4", t)
    return t._kept("path4", _crossing_path4)


def _crossing_path4(t: CgGraph) -> Optional[CrossingPath4]:
    for path in _paths_with_edges(t, 4):
        edges = [_norm(path[x], path[x + 1]) for x in range(4)]
        # edges next to each other on the path share a vertex and never cross
        for x, y in ((0, 2), (0, 3), (1, 3)):
            if _crosses(edges[x], edges[y]):
                return CrossingPath4(path, (edges[x], edges[y]))
    return None


@dataclass(frozen=True)
class TwinCrossingPaths:
    """Two self-crossing three-edge paths straddling non-crossing centers.

    Each path a-b-c-d has its outer edges ab and cd crossing. The center
    edges bc do not cross each other and share ``shared`` endpoints (0, 1 or
    2 — with 2 they are the same edge); the paths share no other vertices.
    The outer vertices of each path sit on the opposite side of its center
    from the other path's center, which forces the two crossing points into
    disjoint regions.
    """

    shared: int
    path1: tuple[int, int, int, int]
    path2: tuple[int, int, int, int]


_TWIN_SEARCH_CAP = 1500


def _self_crossing_paths3(t: CgGraph) -> list[tuple[int, ...]]:
    return [
        path for path in _paths_with_edges(t, 3)
        if _crosses(_norm(path[0], path[1]), _norm(path[2], path[3]))
    ]


def _twin_pair_ok(p: tuple, q: tuple) -> Optional[int]:
    """Number of shared center endpoints if (p, q) form a twin configuration.

    The outer edge a0a1 of a self-crossing path a0-a1-a2-a3 separates a2
    from a3, so a0 alone tells the side of the center a1a2 both outer
    vertices lie on. A vertex tested against a normalised center (u, v) is
    never u or v, so u < x < v tells its side: inside the clockwise arc from
    u to v, or else inside the arc from v to u.
    """
    e = _norm(p[1], p[2])
    f = _norm(q[1], q[2])
    shared_center = len(set(e) & set(f))
    if len(set(p) & set(q)) != shared_center:
        return None
    if shared_center == 2:
        # same center chord: the two crossings must happen on opposite sides
        return 2 if (e[0] < p[0] < e[1]) != (e[0] < q[0] < e[1]) else None
    # distinct centers: each path's outer vertices must avoid the side of its
    # center that holds the other center's extra endpoints. Crossing centers
    # share no endpoint and put the other center's ends on both sides, so
    # ``sides`` has two elements and they are rejected here.
    for a, b in ((p, q), (q, p)):
        lo, hi = _norm(a[1], a[2])
        sides = {lo < x < hi for x in (b[1], b[2]) if x != lo and x != hi}
        if len(sides) != 1 or (lo < a[0] < hi) in sides:
            return None
    return shared_center


def detect_twin_crossing_paths(t: CgGraph) -> Optional[TwinCrossingPaths]:
    """First pair of self-crossing 3-edge paths in twin position, if any;
    the result is kept on t, a BudgetError is raised again on every call."""
    _check_cg("detect_twin_crossing_paths", t)
    return t._kept("twins", _twin_crossing_paths)


def _twin_crossing_paths(t: CgGraph) -> Optional[TwinCrossingPaths]:
    selfx = _self_crossing_paths3(t)
    if len(selfx) > _TWIN_SEARCH_CAP:
        raise BudgetError(
            f"twin-path search over {len(selfx)} self-crossing paths exceeds "
            f"the cap of {_TWIN_SEARCH_CAP}"
        )
    for p, q in combinations(selfx, 2):
        shared = _twin_pair_ok(p, q)
        if shared is not None:
            return TwinCrossingPaths(shared, p, q)
    return None


def is_zigzag(t: CgGraph) -> bool:
    """Whether a cg path is crossing-free with cyclic chromatic number two."""
    _check_cg("is_zigzag", t)
    if not t.is_tree() or any(t.degree(v) > 2 for v in range(1, t.n + 1)):
        raise InputError("is_zigzag expects a path")
    if _crossing_pairs(t):
        return False
    return chi_cyclic(t) == 2


# ---------------------------------------------------------------------------
# obstruction catalog


@dataclass(frozen=True)
class ObstructionCatalog:
    """Minimal non-z-trees with interval chromatic number two.

    ``provenance`` tags each pattern "pinned" (known a priori) or "derived"
    (found by the enumeration). Patterns are sorted by edge count, then by
    edge list; the catalog is closed under mirror.
    """

    patterns: tuple[OrderedGraph, ...]
    provenance: tuple[str, ...]

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)


def derive_obstructions(max_edges: int) -> ObstructionCatalog:
    """Containment-minimal non-z-trees with chi_i = 2 and <= max_edges edges.

    Enumerates every ordered tree up to the size bound, keeps those with
    interval chromatic number two that fail z_decompose, and filters to the
    ones not containing a smaller kept pattern. Equal-sized trees never
    contain one another (an order-preserving self-injection is the identity),
    so processing by increasing edge count is sound.
    """
    _check_int("max_edges", max_edges)
    if max_edges < 3:
        raise InputError("the obstruction catalog needs max_edges >= 3")
    if max_edges > 6:
        raise BudgetError("tree enumeration is supported up to 6 edges")
    candidates = []
    for k in range(2, max_edges + 1):
        for t in enumerate_trees(k, "linear", "chi2"):
            if isinstance(z_decompose(t), NotAZTree):
                candidates.append(t)
    candidates.sort(key=lambda t: (len(t.edges), t.edges))
    kept: list[OrderedGraph] = []
    prov: list[str] = []
    for t in candidates:
        if any(contains(t, p) for p in kept):
            continue
        kept.append(t)
        prov.append("pinned" if t.edges == CROSSING_P3_EDGES else "derived")
    catalog = ObstructionCatalog(tuple(kept), tuple(prov))
    edge_sets = {t.edges for t in kept}
    for t in kept:
        if _linear_edges(t.n, t.edges, 0) not in edge_sets:
            raise RuntimeError("internal: obstruction catalog is not mirror-closed")
    if CROSSING_P3_EDGES not in edge_sets:
        raise RuntimeError("internal: catalog lost the pinned 3-edge obstruction")
    return catalog


@lru_cache(maxsize=None)
def _catalog4() -> ObstructionCatalog:
    return derive_obstructions(4)


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=6)  # one entry per k; about 2 MB once k = 6 is decoded
def _labelled_trees(k: int) -> tuple[tuple[Edge, ...], ...]:
    """The sorted edge tuples of every labelled tree with k edges on [k+1],
    decoded from Prüfer sequences in lexicographic order."""
    n = k + 1
    return tuple(
        tuple(sorted(_SHARED_EDGES[u][v] for u, v in _prufer_edges(n, seq)))
        for seq in product(range(1, n + 1), repeat=k - 1)
    )


def _prufer_edges(n: int, seq: tuple[int, ...]) -> list[tuple[int, int]]:
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        v = heapq.heappop(leaves)
        edges.append(_norm(v, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append(_norm(u, v))
    return edges


def enumerate_trees(k: int, mode: str, filt: str = "all") -> Iterator[_Graph]:
    """Every labeled tree with k edges on the vertex set [k+1].

    ``mode`` picks ordered ("linear") or cg ("cyclic") graphs; ``filt`` is
    "all" or "chi2" (keep only interval/cyclic chromatic number two). The
    unfiltered stream has (k+1)^(k-1) trees, decoded from Prüfer sequences in
    lexicographic order. The edge tuples are decoded once per k and kept;
    every call builds fresh graphs from them, so nothing computed on the
    graphs of one call (a split, a decomposition) reaches the next. A
    decoding is a tree on 1..k+1 by construction, so the graphs are built
    without validating them again and are marked as trees without a test.
    The arguments are checked at the call, so a bad one raises here.
    """
    _check_int("k", k)
    if k < 1:
        raise InputError(f"tree enumeration needs k >= 1 edges, got {k}")
    if k > 6:
        raise BudgetError(f"tree enumeration is supported up to 6 edges, got {k}")
    cls = _graph_class(mode)
    if filt not in ("all", "chi2"):
        raise InputError(f"filter must be 'all' or 'chi2', not {filt!r}")
    return _trees(k, cls, filt == "chi2")


def _trees(k: int, cls: type, chi2: bool) -> Iterator[_Graph]:
    chi = chi_cyclic if cls is CgGraph else chi_interval
    n = k + 1
    for edges in _labelled_trees(k):
        g = cls._trusted(n, edges)
        g._adj_cache["tree"] = True
        if chi2 and chi(g) != 2:
            continue
        yield g


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class LinearFormula:
    """The exact extremal edge count (k-1)n - C(k,2) for an ordered z-tree.

    Valid for hosts with n >= k+1 vertices.
    """

    k: int

    def value(self, n: int) -> int:
        return (self.k - 1) * n - self.k * (self.k - 1) // 2

    def __str__(self) -> str:
        return f"{self.k - 1}n - {self.k * (self.k - 1) // 2}"


@dataclass(frozen=True)
class ObstructionWitness:
    """A catalog pattern together with its embedding into the classified tree."""

    pattern: OrderedGraph
    embedding: Embedding


@dataclass(frozen=True)
class Verdict:
    """Outcome of classify_tree.

    ``kind`` is "Linear", "NonLinear" or "NotApplicable". Linear ordered
    verdicts carry the exact ``formula``; every verdict carries the growth
    tag of the extremal function and a witness: a (cg) z-decomposition for
    Linear, an embedded obstruction / crossing path / twin-path configuration
    for NonLinear with chromatic number two, and nothing beyond ``chi`` when
    the chromatic number already exceeds two.
    """

    kind: str
    mode: str
    k: Optional[int] = None
    chi: Optional[int] = None
    formula: Optional[LinearFormula] = None
    growth_tag: Optional[str] = None
    witness: object = None
    reason: Optional[str] = None


def classify_tree(t: _Graph) -> Verdict:
    """Classify the extremal growth of hosts avoiding the tree ``t``.

    Linear, with the formula (k-1)n - C(k,2) for ordered trees, exactly when
    t is a (cg) z-tree; otherwise NonLinear: at least n log n (ordered) or
    n log log n (cg) when the chromatic number is two, quadratic beyond. The
    decomposition route and the forbidden-configuration route are both
    evaluated and must agree.
    """
    _check_graph("t", t)
    mode = t.order
    if not t.is_tree():
        return Verdict(
            kind="NotApplicable",
            mode=mode,
            reason="input is not a tree (connected and acyclic on all vertices)",
        )
    k = len(t.edges)
    if k == 0:
        return Verdict(kind="NotApplicable", mode=mode, reason="tree has no edges")
    cyclic = isinstance(t, CgGraph)
    chi = chi_cyclic(t) if cyclic else chi_interval(t)
    if chi > 2:
        return Verdict(kind="NonLinear", mode=mode, k=k, chi=chi, growth_tag="Theta(n^2)")
    if cyclic:
        dec = cg_z_decompose(t)
        # twins are searched only when no crossing path already rules the tree out
        witness = detect_crossing_path4(t) or detect_twin_crossing_paths(t)
    else:
        dec = z_decompose(t)
        witness = _find_obstruction(t)
    if bool(dec) == (witness is not None):
        if not cyclic:
            found = f"obstruction={'none' if witness is None else witness.pattern.edges}"
        elif isinstance(witness, CrossingPath4):
            found = f"crossing path={witness.vertices}, twin paths=not searched"
        else:
            twins = "none" if witness is None else (witness.path1, witness.path2)
            found = f"crossing path=none, twin paths={twins}"
        raise RuntimeError(
            "internal: decomposition and forbidden-configuration routes disagree "
            f"(decomposition={'yes' if dec else 'no: ' + dec.reason}, {found})"
        )
    if dec:
        formula = None if cyclic else LinearFormula(k)
        return Verdict(kind="Linear", mode=mode, k=k, chi=chi, formula=formula,
                       growth_tag="Theta(n)", witness=dec)
    growth = "Omega(n log log n)" if cyclic else "Omega(n log n)"
    return Verdict(kind="NonLinear", mode=mode, k=k, chi=chi, growth_tag=growth,
                   witness=witness)


def _find_obstruction(t: OrderedGraph) -> Optional[ObstructionWitness]:
    for pat in _catalog4():
        if pat.n > t.n:
            continue
        emb = find_embedding(t, pat)
        if emb is not None:
            return ObstructionWitness(pat, emb)
    return None
