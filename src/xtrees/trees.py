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
superlinearly many, together with a machine-checkable witness. Both routes to
each verdict (decomposition vs. forbidden-configuration detectors) are always
computed and compared; a mismatch raises, it is never papered over.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, Optional, Union

from .containment import Embedding, contains, find_embedding
from .errors import BudgetError, InputError, NotApplicableError
from .order import (
    CgGraph,
    OrderedGraph,
    _Graph,
    arc_side,
    chi_cyclic,
    chi_interval,
    crosses,
    mirror,
    rotate,
)

#: The 3-edge crossing path on [4]: the smallest obstruction, pinned a priori.
CROSSING_P3_EDGES = ((1, 3), (1, 4), (2, 4))

_MODE_TO_CLASS = {"linear": OrderedGraph, "cyclic": CgGraph}
_CLASS_TO_MODE = {"ordered": "linear", "cg": "cyclic"}


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
    ``s_j`` holds the edges hj with h < i, ``s_i`` the edges ik with k > j.
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
    """Negative z_decompose result, naming the violated condition."""

    reason: str

    def __bool__(self) -> bool:
        return False


def _require_tree(t: _Graph) -> None:
    if not t.is_tree():
        raise NotApplicableError(
            "input must be a tree: connected and acyclic on all its vertices"
        )


def _crossing_pairs(g: _Graph):
    return [
        (e, f) for e, f in combinations(g.edges, 2) if crosses(g, e, f)
    ]


def z_decompose(t: OrderedGraph) -> Union[ZDecomposition, NotAZTree]:
    """Canonical z-decomposition of an ordered tree, or why there is none.

    When the tree has a crossing, the hub is forced: any crossing pair
    {hj, ik} pins it to ij, which must be an edge. When the tree is
    crossing-free it must be one increasing chain, and the canonical split
    takes the smallest core whose remaining suffix hangs off a single hub
    endpoint (fans as large as possible). Single-edge trees decompose with
    the edge as hub and empty fans.

    Raises NotApplicableError if the input is not a tree or its interval
    chromatic number is not two.
    """
    if not isinstance(t, OrderedGraph):
        raise InputError("z_decompose expects an ordered graph")
    _require_tree(t)
    if chi_interval(t) != 2:
        raise NotApplicableError("interval chromatic number must be 2")

    crossings = _crossing_pairs(t)
    if crossings:
        e, f = crossings[0]
        if e[0] > f[0]:
            e, f = f, e
        # e = (h, j) and f = (i, k) interleaved as h < i < j < k
        i, j = f[0], e[1]
        hub = (i, j)
        if hub not in t.edge_set:
            return NotAZTree(
                f"crossing {e} x {f} forces hub {hub}, which is not an edge"
            )
        core, s_j, s_i = [], [], []
        for ed in t.edges:
            if i <= ed[0] and ed[1] <= j:
                core.append(ed)
            elif ed[1] == j and ed[0] < i:
                s_j.append(ed)
            elif ed[0] == i and ed[1] > j:
                s_i.append(ed)
            else:
                return NotAZTree(
                    f"edge {ed} fits neither the core interval {hub} nor a fan"
                )
        chain = increasing_chain(core)
        if chain is None or chain[-1] != hub:
            return NotAZTree(
                "edges inside the hub span do not form an increasing chain "
                "ending at the hub"
            )
        dec = ZDecomposition(hub, chain, tuple(sorted(s_j)), tuple(sorted(s_i)))
        validate_decomposition(t, dec)
        return dec

    chain = increasing_chain(t.edges)
    if chain is None:
        return NotAZTree("crossing-free but not an increasing chain of nested spans")
    k = len(chain)
    a = k
    for cut in range(1, k):
        common = set(chain[cut])
        for ed in chain[cut + 1:]:
            common &= set(ed)
        if common & set(chain[cut - 1]):
            a = cut
            break
    hub = chain[a - 1]
    i, j = hub
    fans = chain[a:]
    s_j = tuple(ed for ed in fans if ed[1] == j)
    s_i = tuple(ed for ed in fans if ed[0] == i)
    dec = ZDecomposition(hub, chain[:a], s_j, s_i)
    validate_decomposition(t, dec)
    return dec


def is_z_tree(t: OrderedGraph) -> bool:
    """Whether the ordered tree admits a z-decomposition."""
    try:
        return isinstance(z_decompose(t), ZDecomposition)
    except NotApplicableError:
        return False


def validate_decomposition(t: OrderedGraph, dec: ZDecomposition) -> bool:
    """Re-check every z-decomposition invariant against the tree; True or raises."""
    parts = list(dec.core) + list(dec.s_j) + list(dec.s_i)
    if len(parts) != len(set(parts)):
        raise InputError("core and fans overlap")
    if set(parts) != set(t.edge_set):
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
    for e in dec.s_j:
        for f in dec.s_i:
            if not crosses(t, e, f):
                raise InputError(f"opposite fan edges {e}, {f} fail to cross")
    if len(_crossing_pairs(t)) != dec.b * dec.c:
        raise InputError("the tree has crossings outside the two fans")
    return True


def longest_increasing_path_hubs(t: OrderedGraph) -> frozenset:
    """Second-to-last edges over all longest strictly-length-increasing paths.

    A diagnostic for the hub-uniqueness claim: for trees with a crossing the
    canonical hub is the unique choice forced by the crossing, but on
    crossing-free trees (e.g. stars) different longest increasing paths can
    disagree, so this returns the whole candidate set. Paths with a single
    edge contribute that edge.
    """
    best_len = 0
    hubs = set()
    for seq in _paths_up_to(t, len(t.edges)):
        edges = [_norm(seq[x], seq[x + 1]) for x in range(len(seq) - 1)]
        lens = [e[1] - e[0] for e in edges]
        if all(x < y for x, y in zip(lens, lens[1:])):
            inc = edges
        elif all(x > y for x, y in zip(lens, lens[1:])):
            inc = edges[::-1]
        else:
            continue
        if len(inc) > best_len:
            best_len = len(inc)
            hubs = set()
        if len(inc) == best_len:
            hubs.add(inc[-2] if len(inc) >= 2 else inc[-1])
    return frozenset(hubs)


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


@dataclass(frozen=True)
class NotACgZTree:
    reason: str

    def __bool__(self) -> bool:
        return False


def linearize(t: CgGraph, r: int) -> OrderedGraph:
    """Rotate a cg tree by r and read it as an ordered graph, reversing labels."""
    rotated = rotate(t, r)
    n = t.n
    return OrderedGraph(n, [(n + 1 - b, n + 1 - a) for a, b in rotated.edges])


def cg_z_decompose(t: CgGraph) -> Union[CgZDecomposition, NotACgZTree]:
    """Smallest rotation under which the cg tree linearizes to a z-tree.

    Raises NotApplicableError unless the input is a tree with cyclic interval
    chromatic number two. Rotations whose linearization has interval
    chromatic number above two simply fail; only some cut of the circle can
    work, and all n cuts are tried.
    """
    if not isinstance(t, CgGraph):
        raise InputError("cg_z_decompose expects a cg graph")
    _require_tree(t)
    if chi_cyclic(t) != 2:
        raise NotApplicableError("cyclic interval chromatic number must be 2")
    for r in range(t.n):
        lin = linearize(t, r)
        try:
            dec = z_decompose(lin)
        except NotApplicableError:
            continue
        if isinstance(dec, ZDecomposition):
            return CgZDecomposition(rotation=r, linear=dec)
    return NotACgZTree("no rotation linearizes to a z-tree")


def is_cg_z_tree(t: CgGraph) -> bool:
    try:
        return isinstance(cg_z_decompose(t), CgZDecomposition)
    except NotApplicableError:
        return False


# ---------------------------------------------------------------------------
# path utilities and detectors


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _paths_with_edges(t: _Graph, length: int) -> list[tuple[int, ...]]:
    """All simple paths with exactly ``length`` edges, canonical and sorted.

    Paths are vertex sequences; each path appears once, oriented so that the
    first vertex is smaller than the last.
    """
    found = []

    def grow(seq: list[int], used: set[int]) -> None:
        if len(seq) == length + 1:
            if seq[0] < seq[-1]:
                found.append(tuple(seq))
            return
        for w in t.neighbors(seq[-1]):
            if w not in used:
                seq.append(w)
                used.add(w)
                grow(seq, used)
                used.remove(w)
                seq.pop()

    for v in range(1, t.n + 1):
        grow([v], {v})
    return sorted(found)


def _paths_up_to(t: _Graph, max_edges: int) -> Iterator[tuple[int, ...]]:
    for length in range(1, max_edges + 1):
        yield from _paths_with_edges(t, length)


@dataclass(frozen=True)
class CrossingPath4:
    """A four-edge path two of whose edges cross."""

    vertices: tuple[int, int, int, int, int]
    crossing: tuple[tuple[int, int], tuple[int, int]]

    def edges(self) -> tuple[tuple[int, int], ...]:
        v = self.vertices
        return tuple(_norm(v[x], v[x + 1]) for x in range(4))


def detect_crossing_path4(t: CgGraph) -> Optional[CrossingPath4]:
    """First four-edge path of the cg graph containing a crossing, if any."""
    for path in _paths_with_edges(t, 4):
        edges = [_norm(path[x], path[x + 1]) for x in range(4)]
        for e, f in combinations(edges, 2):
            if crosses(t, e, f):
                return CrossingPath4(path, (e, f))
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
    out = []
    for path in _paths_with_edges(t, 3):
        if crosses(t, _norm(path[0], path[1]), _norm(path[2], path[3])):
            out.append(path)
    return out


def _twin_pair_ok(t: CgGraph, p: tuple, q: tuple) -> Optional[int]:
    """Number of shared center endpoints if (p, q) form a twin configuration."""
    e = _norm(p[1], p[2])
    f = _norm(q[1], q[2])
    shared_center = len(set(e) & set(f))
    if len(set(p) & set(q)) != shared_center:
        return None
    if e != f and crosses(t, e, f):
        return None
    n = t.n
    if shared_center == 2:
        # same center chord: the two crossings must happen on opposite sides
        sp = arc_side(n, e, p[0])
        if sp != arc_side(n, e, p[3]):
            return None
        sq = arc_side(n, e, q[0])
        if sq != arc_side(n, e, q[3]):
            return None
        return 2 if sp != sq else None
    # distinct, non-crossing centers: each path's outer vertices must avoid
    # the side of its center that holds the other center's extra endpoints
    for a, b in ((p, q), (q, p)):
        ce = _norm(a[1], a[2])
        other = [x for x in (b[1], b[2]) if x not in ce]
        sides = {arc_side(n, ce, x) for x in other}
        if len(sides) != 1:
            return None
        banned = sides.pop()
        if arc_side(n, ce, a[0]) == banned or arc_side(n, ce, a[3]) == banned:
            return None
    return shared_center


def detect_twin_crossing_paths(t: CgGraph) -> Optional[TwinCrossingPaths]:
    """First pair of self-crossing 3-edge paths in twin position, if any."""
    selfx = _self_crossing_paths3(t)
    if len(selfx) > _TWIN_SEARCH_CAP:
        raise BudgetError(
            f"twin-path search over {len(selfx)} self-crossing paths exceeds "
            f"the cap of {_TWIN_SEARCH_CAP}"
        )
    for p, q in combinations(selfx, 2):
        shared = _twin_pair_ok(t, p, q)
        if shared is not None:
            return TwinCrossingPaths(shared, p, q)
    return None


def is_zigzag(t: CgGraph) -> bool:
    """Whether a cg path is crossing-free with cyclic chromatic number two."""
    if not isinstance(t, CgGraph):
        raise InputError("is_zigzag expects a cg graph")
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
        if mirror(t).edges not in edge_sets:
            raise RuntimeError("internal: obstruction catalog is not mirror-closed")
    if CROSSING_P3_EDGES not in edge_sets:
        raise RuntimeError("internal: catalog lost the pinned 3-edge obstruction")
    return catalog


@lru_cache(maxsize=None)
def _catalog4() -> ObstructionCatalog:
    return derive_obstructions(4)


# ---------------------------------------------------------------------------
# enumeration


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
    lexicographic order.
    """
    if not 1 <= k <= 6:
        raise InputError("tree enumeration supports 1 <= k <= 6 edges")
    if mode not in _MODE_TO_CLASS:
        raise InputError(f"mode must be 'linear' or 'cyclic', not {mode!r}")
    if filt not in ("all", "chi2"):
        raise InputError(f"filter must be 'all' or 'chi2', not {filt!r}")
    cls = _MODE_TO_CLASS[mode]
    chi = chi_interval if mode == "linear" else chi_cyclic
    n = k + 1
    for seq in product(range(1, n + 1), repeat=k - 1):
        g = cls(n, _prufer_edges(n, seq))
        if filt == "chi2" and chi(g) != 2:
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


def classify_tree(t: _Graph, mode: Optional[str] = None) -> Verdict:
    """Classify the extremal growth of hosts avoiding the tree ``t``.

    Ordered trees: Linear with formula (k-1)n - C(k,2) exactly when t is a
    z-tree; otherwise NonLinear (growth at least n log n when the interval
    chromatic number is two, quadratic beyond). Cg trees: Linear exactly when
    t is a cg z-tree; otherwise NonLinear (n log log n / quadratic). The
    decomposition route and the forbidden-configuration route are both
    evaluated and must agree.
    """
    actual = _CLASS_TO_MODE.get(t.mode)
    if mode is not None and mode != actual:
        raise InputError(f"requested mode {mode!r} but the graph is {actual!r}")
    mode = actual
    if not t.is_tree():
        return Verdict(
            kind="NotApplicable",
            mode=mode,
            reason="input is not a tree (connected and acyclic on all vertices)",
        )
    k = len(t.edges)
    if k == 0:
        return Verdict(kind="NotApplicable", mode=mode, reason="tree has no edges")

    if mode == "linear":
        chi = chi_interval(t)
        if chi > 2:
            return Verdict(
                kind="NonLinear", mode=mode, k=k, chi=chi, growth_tag="Theta(n^2)"
            )
        dec = z_decompose(t)
        obstruction = _find_obstruction(t)
        if isinstance(dec, ZDecomposition) and obstruction is not None:
            raise RuntimeError(
                "internal: z-decomposition succeeded but an obstruction embeds: "
                f"{obstruction.pattern.edges}"
            )
        if isinstance(dec, NotAZTree) and obstruction is None:
            raise RuntimeError(
                f"internal: no z-decomposition ({dec.reason}) yet no obstruction embeds"
            )
        if isinstance(dec, ZDecomposition):
            return Verdict(
                kind="Linear",
                mode=mode,
                k=k,
                chi=chi,
                formula=LinearFormula(k),
                growth_tag="Theta(n)",
                witness=dec,
            )
        return Verdict(
            kind="NonLinear",
            mode=mode,
            k=k,
            chi=chi,
            growth_tag="Omega(n log n)",
            witness=obstruction,
        )

    chi = chi_cyclic(t)
    if chi > 2:
        return Verdict(
            kind="NonLinear", mode=mode, k=k, chi=chi, growth_tag="Theta(n^2)"
        )
    dec = cg_z_decompose(t)
    x4 = detect_crossing_path4(t)
    twins = detect_twin_crossing_paths(t)
    clear = x4 is None and twins is None
    if isinstance(dec, CgZDecomposition) != clear:
        raise RuntimeError(
            "internal: cg decomposition and configuration detectors disagree "
            f"(decomposition={'yes' if isinstance(dec, CgZDecomposition) else 'no'}, "
            f"crossing path={'none' if x4 is None else x4.vertices}, "
            f"twin paths={'none' if twins is None else (twins.path1, twins.path2)})"
        )
    if isinstance(dec, CgZDecomposition):
        return Verdict(
            kind="Linear", mode=mode, k=k, chi=chi, growth_tag="Theta(n)", witness=dec
        )
    return Verdict(
        kind="NonLinear",
        mode=mode,
        k=k,
        chi=chi,
        growth_tag="Omega(n log log n)",
        witness=x4 if x4 is not None else twins,
    )


def _find_obstruction(t: OrderedGraph) -> Optional[ObstructionWitness]:
    for pat in _catalog4():
        if pat.n > t.n:
            continue
        emb = find_embedding(t, pat)
        if emb is not None:
            return ObstructionWitness(pat, emb)
    return None
