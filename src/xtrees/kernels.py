"""The search kernel: order-preserving subgraph embedding search.

This is the hot loop shared by containment queries and the acceptance checks,
in pure Python.

One backtracking search serves both orders. It maps pattern vertices 0..p-1
(0-based here) to increasing positions of a window of host positions, over
bitmask candidate sets, placing the vertices one per level in a static order
seq fixed when the search is built (the index order 0..p-1, or another; see
the end of this docstring for which query runs which):

* candidates for v = the positions between the images of v's nearest placed
  lower-index vertex lo and nearest placed higher-index vertex hi, with room:
  at least x_lo + (v - lo) and at most x_hi - (hi - v), so the vertices
  between fit (with no lo, at least v; with no hi, at most end - (p - v),
  which leaves room for v+1..p-1), intersected with the host adjacency masks
  of v's placed neighbours. Both lo and hi are known when the search is
  built. In the index order lo is always v - 1 and there is no hi.
* forward checking (Haralick & Elliott 1980): v may take position x only if
  every unplaced neighbour w of v keeps a candidate: a position y in adj[x],
  in the adjacency of every placed neighbour of w, and in w's window now that
  v is placed. v bounds that window only if it is w's nearest placed lower-
  (or higher-) index vertex, by y >= x + gap (or y <= x - gap) with gap the
  distance of w and v; the rest of the window comes from vertices placed
  before v. This prunes only branches that cannot complete, so it changes
  no result and no order.
* the forward checks of v come in two kinds, sorted when the search is
  built. Bulk: w has a placed neighbour, so its candidate set c (without
  v's side) is small and one check serves all of v's candidates m: x passes
  iff some y in c lies in adj[x] on v's side of x, iff x lies in s = the
  union over y in c of adj[y] cut to the positions that leave y on that
  side (up to y - gap, from y + gap, or all of adj[y] when v bounds nothing),
  so m becomes m & s. Free: w has no placed neighbour, c is its window, and
  each candidate x is tested as c & adj[x] on v's side of x, e.g.
  (c & adj[x]) >> (x + gap).
* a bulk set s is computed at the outermost node where its inputs are
  fixed: the node of the last placed vertex it reads. When that vertex was
  placed at the level just before v, the bulk check builds s from the y
  nearest v's side outwards and stops once m is covered. When it sits
  higher, s does not change while the vertices in between move, so the
  whole union is built once, at that node, and v's level only does m & s.
  The early stop ends when m lies in the partial union, which lies in the
  whole union, so m comes out the same either way.
* the candidates of the next vertex u are hoisted: the part h that comes
  from vertices placed before v does not depend on v's position x, so it
  is computed by the same rule, at the node of the last of them, and u's
  candidates at x are h, and adj[x] if v is a neighbour of u, and v's side
  of x if v bounds u's window. If v is not a neighbour of u but bounds u's
  window, and u has a placed neighbour, every x too close to the far end
  of h leaves u nothing, so those x are cut from v's candidates before the
  loop. They complete nothing, so the cut prunes only branches that cannot
  complete and changes no other decision. h is not empty when the last
  vertex it reads is a neighbour of u, whose forward check kept its image
  only with a candidate of u inside h, or when h reads no neighbour of u,
  as a window always leaves room; otherwise h is tested where it is
  computed, and an empty h abandons that node. So after the cut, and by the
  forward check when v is a neighbour of u, u always has a candidate.
* interchangeable positions (Freuder, "Eliminating interchangeable values in
  constraint satisfaction problems", AAAI 1991): within one placement loop
  for v, let x be the last position that completed nothing (a forward check
  rejected it or the search below added no embedding). A later candidate x'
  whose mask agrees with adj[x] above x' is skipped, and, if v has an
  unplaced lower-index neighbour, also below x_{v-1}. The skip is written
  only at a level where v = 0 or v - 1 is already placed. Then any
  completion with v at x' places the unplaced vertices above v above x',
  and those below v below x_{v-1} < x; placed vertices sit outside v's
  window. x is a candidate, so it is adjacent to the images of v's placed
  neighbours, and where the masks agree it sees every unplaced neighbour's
  image as x' does. The same completion with v at x would therefore be an
  embedding, and there was none. So the skip, too, prunes only branches
  that cannot complete. Where v - 1 is unplaced, a vertex below v may land
  between x and x', and the swap breaks the order, so the level has no
  skip. On hosts made of twins, such as the complete bipartite graph
  between two arcs, the skip turns a refutation that retries every vertex
  of an arc into one that tries one per arc.

Linear order searches the window [0, n). Cyclic order searches a doubled
host, positions 0..2n-1 where position i stands for host vertex i mod n: for
each anchor t, pattern vertex 0 is pinned at t and the same search runs over
the window [t, t + n), whose positions are the host vertices in increasing
offset from t. Every embedding is found exactly once, under the anchor that
is its image of vertex 0, and images are reported mod n. Vertex 0 comes first
in every cyclic order seq.

The search runs as one generated function per pattern and order, not as a
recursion: one nested loop per pattern vertex (the anchor loop is vertex 0's
in cyclic order), with v's image, its adjacency mask, its candidates and
its last dead mask in locals x{v}, a{v}, m{v}, d{v}, and every neighbour
list, window bound and forward check of the pattern written out as code, so
a search node makes no call. CPython compiles at most 20 statically nested
blocks, so patterns with more than 20 vertices are refused with a
BudgetError; the source is built from the ints in range(p) alone, never
from caller values.

The search in the index order serves enumeration (limit 0) and every hit,
in the order order_embeddings documents. First-hit queries (limit >= 1)
refute an absence in another form of the pattern when that may be cheaper,
and take their hits from the index-order search as given. Each orientation
below has an embedding iff the pattern as given does:

* mirror (both orders): pattern v -> p-1-v and host x -> n-1-x. Reversing
  both orders maps an order-preserving embedding f to v -> n-1-f(p-1-v),
  which again preserves the linear or the cyclic order, and back again.
* rotation (cyclic only): pattern v -> (v - r) mod p, host unchanged. A
  rotation keeps the cyclic order of the pattern, so f composed with the
  inverse rotation embeds the rotated pattern in the same host.

The index-order search fails first (Haralick & Elliott 1980) when a
pattern's edges close early: an edge (u, v) prunes candidates once v is
placed, so each orientation is scored by the sum of the right endpoints v of
its normalised edges, and the lowest score is taken; a tie keeps the pattern
as given. In linear order the orientation is then searched in its
connectivity-first order, as subgraph matchers such as VF2 (Cordella et al.,
IEEE TPAMI 2004) and RI (Bonnici et al., BMC Bioinformatics 2013) order
theirs: first a vertex of highest degree, then each time the unplaced vertex
with the most placed neighbours, ties to the higher degree, then the lower
index. Each vertex after the first of a tree then has a placed neighbour, so
no vertex is tried at every host position only for its later neighbours to
reject it. In cyclic order the orientation is searched in the index order:
the anchor loop already pins vertex 0 first, and on the twin arcs of f_n0
the index order's skip applies at every level. First-hit queries of the 24
cyclic 4-edge path types against f_n0(32) and f_n0(64) took 12 ms in the
index order and 24 ms in a connectivity-first order after vertex 0 (in
process, Python 3.11, 2 shared vCPUs). No vertex order changes whether an
embedding exists.

The choice depends on the pattern alone and is cached per (p, edges, mode)
with the pattern's search. If the refuting search is not the index-order
search of the pattern as given, it first runs with limit 1; finding nothing,
the query returns []; else the index-order search runs on the input as given
with the caller's limit. So the list returned, and its order, are those of
the search as given. Enumeration (limit 0) searches only as given.
Containment's yes/no question (_exists) needs no list: it runs the refuting
search alone.

The generated searches and the choice are built once per pattern and cached,
so a tiny query pays the searches and little else; generating a 5- to
7-vertex search costs about a millisecond, once, and the refuting one is
generated at its first refutation.

The masks a search reads depend on the host and the orientation alone: the
host's adjacency masks, mirrored for a mirrored orientation and doubled in
cyclic order (_search_masks). order_embeddings takes bare masks and builds
them per call. Containment passes a function of the orientation that keeps
them on the host, beside its adjacency masks, so a host that answers many
queries is mirrored at most once and doubled at most once per orientation.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import BudgetError, InputError

# CPython refuses more than 20 statically nested blocks; the generated search
# nests one loop per pattern vertex.
_MAX_P = 20

# _REV8[b]: the byte b with its 8 bits in reverse order
_REV8 = bytes(sum((b >> i & 1) << (7 - i) for i in range(8)) for b in range(256))


def order_embeddings(n, adj, p, pat_edges, cyclic, limit=0):
    """Order-preserving embeddings of a p-vertex pattern into an n-vertex host.

    n: host size; adj: length-n list of neighbour bitmasks (0-based);
    p: pattern size; pat_edges: normalised 0-based pattern edges;
    cyclic: preserve cyclic rather than linear order;
    limit: stop after this many embeddings (0 = enumerate all).

    Returns a list of p-tuples of 0-based host positions, in lexicographic
    order (cyclic: ordered by anchor, then lexicographic). Raises BudgetError
    for a pattern of more than 20 vertices that fits in the host, and
    InputError for an edge that is not a pair u < v of range(p).
    """
    return _run(n, lambda flip: _search_masks(n, adj, cyclic, flip), p, pat_edges, cyclic, limit)


def _run(n, masks, p, pat_edges, cyclic, limit):
    """order_embeddings on a host given as masks(flip): the masks a search
    reads, as _search_masks gives them, which a caller may keep."""
    if p > n or p < 1:
        return []
    search, turn, _ = _compile(p, tuple(pat_edges), cyclic)
    if limit and turn is not None and not _exists(n, masks, p, pat_edges, cyclic):
        return []
    return _search(search, n, masks, False, limit)


def _exists(n, masks, p, pat_edges, cyclic):
    """Whether _run(n, masks, p, pat_edges, cyclic, 1) is not empty,
    from one search in the form first-hit queries refute in. Its callers
    hold 1 <= p <= n."""
    search, turn, seq = _compile(p, tuple(pat_edges), cyclic)
    flip = False
    if turn is not None:
        edges, flip = turn
        search = _compile(p, edges, cyclic, seq)[0]
    return bool(_search(search, n, masks, flip, 1))


def _search(search, n, masks, flip, limit):
    """Run a generated search on the host, mirrored if flip."""
    return search(masks(flip), n, limit)


def _search_masks(n, adj, cyclic, flip):
    """The masks a search reads: the host's adjacency masks adj, mirrored if
    flip, and in cyclic order doubled."""
    if flip:
        adj = _mirrored(n, adj)
    return _doubled(n, adj) if cyclic else adj


def _doubled(n, adj):
    """The 2n masks of the doubled host: position i stands for vertex i mod n."""
    return [a | a << n for a in adj] * 2


def _mirrored(n, adj):
    """The masks of the host mirrored, x -> n-1-x: the list reversed and the
    n bits of each mask too (bytes reversed, then the bits of each byte)."""
    k = (n + 7) >> 3
    shift = 8 * k - n
    return [
        int.from_bytes(a.to_bytes(k, "little").translate(_REV8), "big") >> shift
        for a in reversed(adj)
    ]


@lru_cache(maxsize=1024)
def _compile(p, pat_edges, cyclic, seq=None):
    """(search, turn, order) for a pattern: its generated search, placing
    vertices in index order or, if given, in the order seq. For the index
    order, also: turn = None if first-hit queries refute in that search,
    else (the sorted edges of the orientation they refute, whether the host
    is mirrored too); and order = the vertex order they search it in, None
    for the index order. The refuting search is looked up when it runs, so
    an evicted one is compiled again rather than kept twice."""
    if p > _MAX_P:
        raise BudgetError(
            f"pattern has {p} vertices; the search kernel nests one loop per "
            f"vertex and its limit is {_MAX_P}"
        )
    if not set(pat_edges) <= set(combinations(range(p), 2)):
        raise InputError(f"pattern edges {pat_edges!r} are not normalised 0-based pairs")
    turn = order = None
    if seq is None:
        seq = tuple(range(p))
        turn = _oriented(p, pat_edges, cyclic)
        if not cyclic:
            order = _connected(p, pat_edges if turn is None else turn[0])
            if turn is None and order is not None:
                turn = (tuple(sorted(pat_edges)), False)
    namespace = {}
    exec(compile(_source(p, set(pat_edges), cyclic, seq), "<search kernel>", "exec"), namespace)
    return namespace["search"], turn, order


def _oriented(p, pat_edges, cyclic):
    """None if no orientation of the pattern scores lower than the pattern
    as given, else (the sorted edges of the lowest, whether it is the
    mirror). An edge (u, v) prunes candidates once v is placed, so an
    orientation scores the sum of the right endpoints of its normalised
    edges."""
    best, turn = sum(v for _, v in pat_edges), None
    for flip in (False, True):
        for r in range(p if cyclic else 1):
            if not (flip or r):
                continue
            edges = []
            for u, v in pat_edges:
                if flip:
                    u, v = p - 1 - u, p - 1 - v
                u, v = (u - r) % p, (v - r) % p
                edges.append((u, v) if u < v else (v, u))
            s = sum(v for _, v in edges)
            if s < best:
                best, turn = s, (edges, flip)
    return None if turn is None else (tuple(sorted(turn[0])), turn[1])


def _connected(p, pat_edges):
    """The pattern's connectivity-first order, or None if it is the index
    order: first a vertex of highest degree, then each time the unplaced
    vertex with the most placed neighbours, ties to the higher degree, then
    to the lower index."""
    nbrs = [set() for _ in range(p)]
    for u, v in pat_edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    seq = []
    while len(seq) < p:
        seq.append(max((v for v in range(p) if v not in seq),
                       key=lambda v: (len(nbrs[v].intersection(seq)), len(nbrs[v]), -v)))
    return None if seq == sorted(seq) else tuple(seq)


def _source(p, edges, cyclic, seq):
    """The source of search(adj, n, limit) for one pattern: the search of the
    module docstring as one loop nest, placing the pattern's vertices in the
    order seq (cyclic order: seq[0] == 0), from the ints in range(p) alone."""
    pos = {v: i for i, v in enumerate(seq)}
    nbrs = [[u for u in range(p) if (min(u, v), max(u, v)) in edges] for v in range(p)]

    def plus(x, k):
        return f"{x} + {k}" if k else x

    def minus(x, k):
        return f"{x} - {k}" if k else x

    def rest(w, i):
        """(terms, inputs, side): w's candidates once seq[:i + 1] is placed,
        without what v = seq[i] adds. terms are the masks they AND, inputs
        the vertices whose images the terms read, and side = (kind, gap)
        says how v bounds w: "lo" when v is w's nearest placed lower-index
        vertex (w sits at x{v} + gap or above), "hi" when it is the nearest
        higher-index one (at x{v} - gap or below), None when neither."""
        v = seq[i] if i >= 0 else None
        placed = seq[:i + 1]
        lo = max((u for u in placed if u < w), default=None)
        hi = min((u for u in placed if u > w), default=None)
        terms, inputs = [], []
        if hi is None:
            terms.append(f"T{w}")
        elif hi != v:
            terms.append(f"(1 << {minus(f'x{hi}', hi - w - 1)}) - 1")
            inputs.append(hi)
        if lo is None:
            if w:
                terms.append(f"-1 << {w}")
        elif lo != v:
            terms.append(f"-2 << {plus(f'x{lo}', w - lo - 1)}")
            inputs.append(lo)
        near = [u for u in nbrs[w] if u in placed and u != v]
        terms += [f"a{u}" for u in near]
        side = (("lo", w - v) if v is not None and lo == v else
                ("hi", v - w) if v is not None and hi == v else (None, 0))
        return terms, inputs + near, side

    # skips[i]: whether the level places seq[i] with the skip of
    # interchangeable positions, sound when its index predecessor is placed
    skips = [not (cyclic and i == 0) and (v == 0 or pos[v - 1] < i) for i, v in enumerate(seq)]
    # at[i]: the lines run at each node of seq[i - 1], before seq[i]'s loop.
    # A set computed from the masks of placed vertices goes to the level
    # right after the last of them, the outermost node where all are fixed.
    at = [[] for _ in range(p)]
    # bulk[i]: the lines of seq[i]'s bulk forward checks, which narrow its m
    bulk = [[] for _ in range(p)]
    # h{u}: the candidates of u = seq[i + 1] from the vertices placed before
    # seq[i]. It can be empty only if u has a placed neighbour and the last
    # vertex it reads is no neighbour of u (no forward check saw the set),
    # so there it is tested where it is computed
    for i in range(p - 1):
        u = seq[i + 1]
        terms, inputs, _ = rest(u, i)
        if inputs:
            z = max(inputs, key=pos.get)
            at[pos[z] + 1].append(f"h{u} = " + " & ".join(terms))
            if z not in nbrs[u] and set(inputs) & set(nbrs[u]):
                at[pos[z] + 1] += ([f"if not h{u}:"] + [f"    d{z} = a{z}"] * skips[pos[z]]
                                   + ["    continue"])
    for w in seq:
        for v in sorted((u for u in nbrs[w] if pos[u] < pos[w]), key=pos.get):
            i = pos[v]
            terms, inputs, (kind, gap) = rest(w, i)
            if not set(inputs) & set(nbrs[w]):
                continue
            # keep the x of m{v} adjacent to some y of c that v's side lets
            # w take: s = the union over those y of adj[y], cut to the x
            # that leave y on the right side of x
            c = f"h{w}" if pos[w] == i + 1 else " & ".join(terms)
            if kind == "lo":
                more, y = f"c >> {gap}", "c.bit_length() - 1"
                part = f"adj[y] & (1 << {minus('y', gap - 1)}) - 1"
            elif kind == "hi":
                more, y, part = "c", "(c & -c).bit_length() - 1", f"adj[y] & -1 << y + {gap}"
            else:
                more, y, part = "c", "c.bit_length() - 1", "adj[y]"
            latest = max(pos[u] for u in inputs)
            if latest + 1 == i:
                # y runs from the side nearest v's until m{v} is covered
                bulk[i] += [f"c = {c}", "s = 0", f"while {more} and m{v} & ~s:",
                            f"    y = {y}", "    c ^= 1 << y", f"    s |= {part}", f"m{v} &= s"]
                continue
            s = f"S{w}_{v}"
            at[latest + 1] += [f"c = {c}", f"{s} = 0", f"while {more}:",
                               f"    y = {y}", "    c ^= 1 << y", f"    {s} |= {part}"]
            bulk[i].insert(0, f"m{v} &= {s}")
    lines = ["def search(adj, n, limit):", "    out = []", "    add = out.append",
             f"    r = n - {p - 1}" if p > 1 else "    r = n"]
    depth = 1
    closing = []  # (depth, lines) to write once the loops inside are closed

    def put(*text):
        lines.extend("    " * depth + t for t in text)

    # T{w}: w's window, the positions up to the last one that leaves room
    # for w+1..p-1; in cyclic order it moves with the anchor x0
    if cyclic:
        put("for x0 in range(n):")
        depth += 1
        put(*(f"T{w} = (1 << x0 + r + {w}) - 1" for w in range(1, p)))
    else:
        put(*(f"T{w} = (1 << r + {w}) - 1" if w else "T0 = (1 << r) - 1" for w in range(p)),
            f"m{seq[0]} = " + " & ".join(rest(seq[0], -1)[0]))
    for i, v in enumerate(seq):
        # m{v} holds v's candidates; a{u} and x{u} for u in seq[:i] are placed
        m, x, a = f"m{v}", f"x{v}", f"a{v}"
        if i == p - 1:
            last = ("x0" if cyclic and v == 0 else
                    "(b.bit_length() - 1) % n" if cyclic else "b.bit_length() - 1")
            img = ", ".join(last if u == v else f"x{u} % n" if cyclic and u else f"x{u}"
                            for u in range(p))
            if not (cyclic and v == 0):
                put(f"while {m}:")
                depth += 1
                put(f"b = {m} & -{m}", f"{m} ^= b")
            put(f"add(({img}{',' if p == 1 else ''}))", "limit -= 1", "if not limit:", "    return out")
            break
        put(*at[i])
        u = seq[i + 1]
        terms, inputs, (kind, gap) = rest(u, i)
        h = [f"h{u}"] if inputs else terms
        if kind and v not in nbrs[u] and set(inputs) & set(nbrs[u]):
            # cut the x that leave u nothing in h{u} on v's side
            put(f"{m} &= (1 << h{u}.bit_length() - 1) - 1" + (f" >> {gap - 1}" if gap > 1 else "")
                if kind == "lo" else
                f"{m} &= -1 << {plus(f'(h{u} & -h{u}).bit_length()', gap - 1)}")
        put(*bulk[i])
        free = []
        for w in seq[i + 1:]:
            wterms, winputs, (wkind, wgap) = rest(w, i)
            if w not in nbrs[v] or set(winputs) & set(nbrs[w]):
                continue
            if winputs and pos[w] == i + 1:
                wterms = [f"h{w}"]
            both = " & ".join(wterms + [a])
            free.append(f"not ({both}) >> {x} + {wgap}" if wkind == "lo" else
                        f"not {both} & (1 << {minus(x, wgap - 1)}) - 1" if wkind == "hi" else
                        f"not {both}")
        if cyclic and i == 0:
            put("a0 = adj[x0]")
            if free:
                put(f"if {' or '.join(free)}:", "    continue")
        elif skips[i]:
            # d{v}: adjacency mask of the last position that completed
            # nothing; -1 (none yet) matches no mask, as (a ^ -1) >> k < 0
            below = [u for u in nbrs[v] if u < v and pos[u] > i]
            put(f"d{v} = -1", f"while {m}:")
            depth += 1
            put(f"b = {m} & -{m}", f"{m} ^= b", f"{x} = b.bit_length() - 1", f"{a} = adj[{x}]",
                f"if not ({a} ^ d{v}) >> {x} + 1"
                + (f" and not ({a} ^ d{v}) & (1 << x{v - 1}) - 1" if below else "") + ":",
                "    continue")
            if free:
                put(f"if {' or '.join(free)}:", f"    d{v} = {a}", "    continue")
        else:
            put(f"while {m}:")
            depth += 1
            put(f"b = {m} & -{m}", f"{m} ^= b", f"{x} = b.bit_length() - 1", f"{a} = adj[{x}]")
            if free:
                put(f"if {' or '.join(free)}:", "    continue")
        side = ([f"-2 << {plus(x, gap - 1)}"] if kind == "lo" else
                [f"(1 << {minus(x, gap - 1)}) - 1"] if kind == "hi" else [])
        put(f"m{u} = " + " & ".join(h + [a] * (v in nbrs[u]) + side))
        # u's candidates are never empty, so only a search below u can
        # complete nothing
        if i + 2 < p and skips[i]:
            put(f"k{v} = limit")
            closing.append((depth, [f"if limit == k{v}:", f"    d{v} = {a}"]))
    for depth, text in reversed(closing):
        put(*text)
    lines.append("    return out")
    return "\n".join(lines) + "\n"


# Kept only because the benchmark (perfbench/run.py, perfbench/workloads.py)
# imports these two names; the package itself never reads them.
ACTIVE_KERNEL = "pure"


def available_kernels():
    """Every kernel implementation, keyed by name."""
    return {"pure": order_embeddings}
