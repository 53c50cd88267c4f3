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
* the plan sorts v's forward checks by kind once per pattern. bulk[v]: w
  has a placed neighbour, so its candidate set c is small and one check
  serves all of v's candidates m: x passes iff some y in c has y >= x + gap
  and y in adj[x], iff x lies in s = the union over y in c of adj[y] up to
  position y - gap, so m becomes m & s. free[v]: w has no placed neighbour,
  c is its window top[w], and each candidate x is tested as (top[w] & adj[x])
  >> (x + gap). Neither kind tests c for emptiness: when w's last placed
  neighbour was placed, its image was kept only if some y of c remained.
* interchangeable positions (Freuder, "Eliminating interchangeable values in
  constraint satisfaction problems", AAAI 1991): within one placement loop
  for v, let x be the last position that completed nothing (a forward check
  rejected it, v + 1 had no candidate, or the search below added no
  embedding). A later candidate x' with (adj[x'] ^ adj[x]) >> (x' + 1) == 0
  is skipped. Any completion with v at x' places v + 1..p-1 above x', where
  x sees every position as x' does; x is a candidate, so it is adjacent to
  the images of v's placed neighbours. The same completion with v at x
  would therefore be an embedding, and there was none. So the skip, too,
  prunes only branches that cannot complete. On hosts made of twins, such
  as the complete bipartite graph between two arcs, it turns a refutation
  that retries every vertex of an arc into one that tries one per arc.

Linear order searches the window [0, n). Cyclic order searches a doubled
host, positions 0..2n-1 where position i stands for host vertex i mod n: for
each anchor t, pattern vertex 0 is pinned at t and the same search runs over
the window [t, t + n), whose positions are the host vertices in increasing
offset from t. Every embedding is found exactly once, under the anchor that
is its image of vertex 0, and images are reported mod n.

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
only as given.

The pattern's share of the set-up (each vertex's earlier neighbours and its
two lists of forward checks) is built once per pattern and cached with the
choice, so a tiny query pays the second search and little else.
"""

from __future__ import annotations

from functools import lru_cache

# _REV8[b]: the byte b with its 8 bits in reverse order
_REV8 = bytes(sum((b >> i & 1) << (7 - i) for i in range(8)) for b in range(256))


def order_embeddings(n, adj, p, pat_edges, cyclic, limit=0):
    """Order-preserving embeddings of a p-vertex pattern into an n-vertex host.

    n: host size; adj: length-n list of neighbour bitmasks (0-based);
    p: pattern size; pat_edges: normalised 0-based pattern edges;
    cyclic: preserve cyclic rather than linear order;
    limit: stop after this many embeddings (0 = enumerate all).

    Returns a list of p-tuples of 0-based host positions, in lexicographic
    order (cyclic: ordered by anchor, then lexicographic).
    """
    if p > n or p < 1:
        return []
    plan, turn = _compile(p, tuple(pat_edges), cyclic)
    if limit and turn is not None:
        turned, flip = turn
        if not _search(n, _mirrored(n, adj) if flip else adj, p, turned, cyclic, 1):
            return []
    return _search(n, adj, p, plan, cyclic, limit)


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
    """(plan, turn) for a pattern: the search plan of the pattern as given,
    and turn = None if first-hit queries refute in it, else (the plan of the
    orientation they refute in, whether the host is mirrored too)."""
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
        turn = (_plan(p, sorted(turn[0])), turn[1])
    return _plan(p, pat_edges), turn


def _plan(p, pat_edges):
    """(prev, bulk, free): prev[v], the earlier neighbours of v; bulk[v] and
    free[v], the forward checks after placing v, one per later neighbour w
    of v: (w, its neighbours placed before v, w - v) if it has any, else
    (w, w - v). Tuples, as the plan is kept in the cache (an empty tuple
    takes no memory of its own)."""
    prev = tuple(tuple(u for u, w in pat_edges if w == v) for v in range(p))
    later = [[(w, tuple(u for u in prev[w] if u < v), w - v) for x, w in pat_edges if x == v]
             for v in range(p)]
    bulk = tuple(tuple(c for c in cs if c[1]) for cs in later)
    free = tuple(tuple((w, gap) for w, placed, gap in cs if not placed) for cs in later)
    return prev, bulk, free


def _search(n, adj, p, plan, cyclic, limit):
    """The backtracking search of the module docstring on the input as given."""
    prev, bulk, free = plan
    if cyclic:
        adj = [a | a << n for a in adj] * 2
    out = []
    img = [0] * p

    def extend(v, m):
        """Place v at each position of m in turn; True once limit is reached."""
        for w, placed, gap in bulk[v]:
            c = top[w]
            for u in placed:
                c &= adj[img[u]]
            # bulk forward check: keep the x of m adjacent to some y of c
            # with y >= x + gap; y runs from the top down until m is covered
            s = 0
            while c >> gap and m & ~s:
                y = c.bit_length() - 1
                c ^= 1 << y
                s |= adj[y] & ((1 << (y - gap + 1)) - 1)
            m &= s
            if not m:
                return False
        nxt = v + 1
        # adjacency mask of the last position that completed nothing; -1 (none
        # yet) matches no mask, as (a ^ -1) >> k is negative
        dead = -1
        while m:
            b = m & -m
            m ^= b
            x = b.bit_length() - 1
            a = adj[x]
            if not (a ^ dead) >> (x + 1):
                continue
            for w, gap in free[v]:
                if not (top[w] & a) >> (x + gap):
                    dead = a
                    break
            else:
                img[v] = x
                if nxt == p:
                    out.append(tuple([i % n for i in img]) if cyclic else tuple(img))
                    if limit and len(out) >= limit:
                        return True
                    continue
                mn = top[nxt] >> (x + 1) << (x + 1)
                for u in prev[nxt]:
                    mn &= adj[img[u]]
                if not mn:
                    dead = a
                    continue
                found = len(out)
                if extend(nxt, mn):
                    return True
                if len(out) == found:
                    dead = a
        return False

    for t in range(n if cyclic else 1):
        end = t + n if cyclic else n  # the window is [t, end)
        # top[v]: the positions up to the last one that leaves room for v+1..p-1
        top = [(1 << (end - p + v + 1)) - 1 for v in range(p)]
        if extend(0, 1 << t if cyclic else top[0]):
            break
    del extend  # extend reaches itself through its closure cell
    return out


# Kept only because the benchmark (perfbench/run.py, perfbench/workloads.py)
# imports these two names; the package itself uses order_embeddings alone.
ACTIVE_KERNEL = "pure"


def available_kernels():
    """Every kernel implementation, keyed by name."""
    return {"pure": order_embeddings}
