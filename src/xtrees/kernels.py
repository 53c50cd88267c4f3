"""The search kernel: order-preserving subgraph embedding search.

This is the hot loop shared by containment queries and the acceptance checks,
in pure Python.

One backtracking search serves both orders. It assigns pattern vertices
0..p-1 (0-based here) to increasing positions of a window of host positions,
over bitmask candidate sets:

* candidates for pattern vertex v = positions after the previous image,
  capped so enough room remains for the rest of the pattern, intersected with
  the host adjacency masks of all already-placed pattern neighbours of v;
* forward checking (Haralick & Elliott 1980): v may take position x only if
  every later pattern neighbour w of v keeps a candidate, i.e. a position in
  adj[x], in the adjacency of every placed neighbour of w, and in the window
  [x + (w - v), end - (p - w)] that leaves room for the vertices between and
  after. This prunes only branches that cannot complete, so it changes no
  result and no order.
* the forward checks of v come in two kinds, sorted when the search is
  built. Bulk: w has a placed neighbour, so its candidate set c is small and
  one check serves all of v's candidates m: x passes iff some y in c has
  y >= x + gap and y in adj[x], iff x lies in s = the union over y in c of
  adj[y] up to position y - gap, so m becomes m & s. Free: w has no placed
  neighbour, c is its window top[w], and each candidate x is tested as
  (top[w] & adj[x]) >> (x + gap). Neither kind tests c for emptiness: when
  w's last placed neighbour was placed, its image was kept only if some y of
  c remained.
* a bulk set s is computed at the outermost node where its inputs are
  fixed: the node of the last placed neighbour it reads. When that
  neighbour is v - 1, the bulk check builds s from the top of c down and
  stops once m is covered. When it sits higher, s does not change while
  the vertices in between move, so the whole union is built once, at that
  node, and v's level only does m & s. The early stop ends when m lies in
  the partial union, which lies in the whole union, so m comes out the
  same either way.
* v + 1's candidates are hoisted: the part h that comes from neighbours of
  v + 1 placed before v does not depend on v's position x, so it is computed
  by the same rule, at the node of the last of those neighbours, and v + 1's
  candidates at x are h above x (and in adj[x] when v is a neighbour of
  v + 1). If v is not a neighbour of v + 1 but v + 1 has an earlier one,
  every x at or above the last position of h leaves v + 1 nothing, so those
  x are cut from v's candidates before the loop. They are v's last
  candidates and complete nothing, so the cut prunes only branches that
  cannot complete and changes no other decision. After the cut, and by the
  forward check when v is a neighbour of v + 1, v + 1 always has a
  candidate: h is not empty for the reason above.
* interchangeable positions (Freuder, "Eliminating interchangeable values in
  constraint satisfaction problems", AAAI 1991): within one placement loop
  for v, let x be the last position that completed nothing (a forward check
  rejected it or the search below added no embedding). A later candidate x'
  with (adj[x'] ^ adj[x]) >> (x' + 1) == 0 is skipped. Any completion with v
  at x' places v + 1..p-1 above x', where x sees every position as x' does;
  x is a candidate, so it is adjacent to the images of v's placed
  neighbours. The same completion with v at x would therefore be an
  embedding, and there was none. So the skip, too, prunes only branches
  that cannot complete. On hosts made of twins, such as the complete
  bipartite graph between two arcs, it turns a refutation that retries
  every vertex of an arc into one that tries one per arc.

Linear order searches the window [0, n). Cyclic order searches a doubled
host, positions 0..2n-1 where position i stands for host vertex i mod n: for
each anchor t, pattern vertex 0 is pinned at t and the same search runs over
the window [t, t + n), whose positions are the host vertices in increasing
offset from t. Every embedding is found exactly once, under the anchor that
is its image of vertex 0, and images are reported mod n.

The search runs as one generated function per pattern and order, not as a
recursion: one nested loop per pattern vertex (the anchor loop is vertex 0's
in cyclic order), with v's image, its adjacency mask, its candidates and
its last dead mask in locals x{v}, a{v}, m{v}, d{v}, and every neighbour
list and forward check of the pattern written out as code, so a search node
makes no call. CPython compiles at most 20 statically nested blocks, so
patterns with more than 20 vertices are refused with a BudgetError; the
source is built from the ints in range(p) alone, never from caller values.

First-hit queries (limit >= 1) refute an absence in the cheapest of the
pattern's equivalent orientations, and take their hits from the search as
given. Each orientation below has an embedding iff the pattern as given does:

* mirror (both orders): pattern v -> p-1-v and host x -> n-1-x. Reversing
  both orders maps an order-preserving embedding f to v -> n-1-f(p-1-v),
  which again preserves the linear or the cyclic order, and back again.
* rotation (cyclic only): pattern v -> (v - r) mod p, host unchanged. A
  rotation keeps the cyclic order of the pattern, so f composed with the
  inverse rotation embeds the rotated pattern in the same host.

The search fails first (Haralick & Elliott 1980) when a pattern's edges
close early: an edge (u, v) prunes candidates once v is placed, so each
orientation is scored by the sum of the right endpoints v of its normalised
edges, and the lowest score is taken; a tie keeps the pattern as given. The
choice depends on the pattern alone and is cached per (p, edges, mode). If
the chosen orientation is not the pattern as given, the search first runs
on it with limit 1; finding nothing, the query returns []; else the search
runs on the input as given with the caller's limit. So the list returned, and
its order, are those of the search as given. Enumeration (limit 0) searches
only as given. Containment's yes/no question (_exists) needs no list: it
runs the one search in the chosen orientation.

The generated search and the choice are built once per pattern and cached
together, so a tiny query pays the searches and little else; generating a
5- to 7-vertex search costs about a millisecond, once.

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
    search, turn = _compile(p, tuple(pat_edges), cyclic)
    if limit and turn is not None and not _exists(n, masks, p, pat_edges, cyclic):
        return []
    return _search(search, n, masks, False, limit)


def _exists(n, masks, p, pat_edges, cyclic):
    """Whether _run(n, masks, p, pat_edges, cyclic, 1) is not empty,
    from one search in the orientation first-hit queries refute in. Its
    callers hold 1 <= p <= n."""
    search, turn = _compile(p, tuple(pat_edges), cyclic)
    flip = False
    if turn is not None:
        edges, flip = turn
        search = _compile(p, edges, cyclic)[0]
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
def _compile(p, pat_edges, cyclic):
    """(search, turn) for a pattern: the generated search of the pattern as
    given, and turn = None if first-hit queries refute in it, else (the
    sorted edges of the orientation they refute in, whether the host is
    mirrored too). The orientation's search is looked up when it runs, so
    an evicted orientation is compiled again rather than kept twice."""
    if p > _MAX_P:
        raise BudgetError(
            f"pattern has {p} vertices; the search kernel nests one loop per "
            f"vertex and its limit is {_MAX_P}"
        )
    if not set(pat_edges) <= set(combinations(range(p), 2)):
        raise InputError(f"pattern edges {pat_edges!r} are not normalised 0-based pairs")
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
    if turn is not None:
        turn = (tuple(sorted(turn[0])), turn[1])
    namespace = {}
    exec(compile(_source(p, set(pat_edges), cyclic), "<search kernel>", "exec"), namespace)
    return namespace["search"], turn


def _source(p, edges, cyclic):
    """The source of search(adj, n, limit) for one pattern: the search of the
    module docstring as one loop nest, from the ints in range(p) alone."""
    prev = [[u for u in range(v) if (u, v) in edges] for v in range(p)]
    # at[v]: the lines run at each node of v - 1, before v's loop. A set
    # computed from the masks of placed vertices goes to the level right
    # after the last of them, the outermost node where all are fixed.
    at = [[] for _ in range(p)]
    # bulk[v]: the lines of v's bulk forward checks, which narrow m{v}
    bulk = [[] for _ in range(p)]
    # h{v+1}: v+1's candidates from its neighbours placed before v
    for v in range(p - 1):
        early = [u for u in prev[v + 1] if u < v]
        if early:
            at[early[-1] + 1].append(f"h{v + 1} = T{v + 1} & " + " & ".join(f"a{u}" for u in early))
    for w in range(p):
        for v in prev[w]:
            placed = [u for u in prev[w] if u < v]
            if not placed:
                continue
            # keep the x of m{v} adjacent to some y of c with y >= x + gap:
            # s = the union over those y of adj[y] up to position y - gap
            c = f"h{w}" if w == v + 1 else " & ".join([f"T{w}"] + [f"a{u}" for u in placed])
            below = "y" if w - v == 1 else f"y - {w - v - 1}"
            if placed[-1] + 1 == v:
                # y runs from the top down until m{v} is covered
                bulk[v] += [f"c = {c}", "s = 0", f"while c >> {w - v} and m{v} & ~s:",
                            "    y = c.bit_length() - 1", "    c ^= 1 << y",
                            f"    s |= adj[y] & (1 << {below}) - 1", f"m{v} &= s"]
                continue
            s = f"S{w}_{v}"
            at[placed[-1] + 1] += [f"c = {c}", f"{s} = 0", f"while c >> {w - v}:",
                                   "    y = c.bit_length() - 1", "    c ^= 1 << y",
                                   f"    {s} |= adj[y] & (1 << {below}) - 1"]
            bulk[v].insert(0, f"m{v} &= {s}")
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
            "m0 = T0")
    for v in range(p):
        # m{v} holds v's candidates; a{u} and x{u} for u < v are placed
        m, x, a = f"m{v}", f"x{v}", f"a{v}"
        if v == p - 1:
            img = ", ".join([f"x{u} % n" if cyclic and u else f"x{u}" for u in range(v)]
                            + ["x0" if cyclic and v == 0 else
                               "(b.bit_length() - 1) % n" if cyclic else "b.bit_length() - 1"])
            if not (cyclic and v == 0):
                put(f"while {m}:")
                depth += 1
                put(f"b = {m} & -{m}", f"{m} ^= b")
            put(f"add(({img}{',' if p == 1 else ''}))", "limit -= 1", "if not limit:", "    return out")
            break
        put(*at[v])
        early = any(u < v for u in prev[v + 1])
        h = f"h{v + 1}" if early else f"T{v + 1}"
        if early and v not in prev[v + 1]:
            put(f"{m} &= (1 << {h}.bit_length() - 1) - 1")
        put(*bulk[v])
        free = [f"not (T{w} & {a}) >> {x} + {w - v}"
                for w in range(v + 1, p) if v in prev[w] and not any(u < v for u in prev[w])]
        if cyclic and v == 0:
            put("a0 = adj[x0]")
            if free:
                put(f"if {' or '.join(free)}:", "    continue")
        else:
            # d{v}: adjacency mask of the last position that completed
            # nothing; -1 (none yet) matches no mask, as (a ^ -1) >> k < 0
            put(f"d{v} = -1", f"while {m}:")
            depth += 1
            put(f"b = {m} & -{m}", f"{m} ^= b", f"{x} = b.bit_length() - 1", f"{a} = adj[{x}]",
                f"if not ({a} ^ d{v}) >> {x} + 1:", "    continue")
            if free:
                put(f"if {' or '.join(free)}:", f"    d{v} = {a}", "    continue")
        put(f"m{v + 1} = {h}" + (f" & {a}" if v in prev[v + 1] else "") + f" & -2 << {x}")
        # v+1's candidates are never empty, so only a search below v+1 can
        # complete nothing
        if v + 2 < p and not (cyclic and v == 0):
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
