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

Linear order searches the window [0, n). Cyclic order searches a doubled
host, positions 0..2n-1 where position i stands for host vertex i mod n: for
each anchor t, pattern vertex 0 is pinned at t and the same search runs over
the window [t, t + n), whose positions are the host vertices in increasing
offset from t. Every embedding is found exactly once, under the anchor that
is its image of vertex 0, and images are reported mod n.

Only backward pattern edges (u, v) with u < v are consulted, which is all of
them since edges are normalised.
"""

from __future__ import annotations


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
    prev = [[] for _ in range(p)]
    for u, v in pat_edges:
        prev[v].append(u)
    # forward checks after placing v: each later neighbour w of v, with the
    # neighbours of w placed before v and the least gap w - v to v's image
    later = [[] for _ in range(p)]
    for v, w in pat_edges:
        later[v].append((w, [u for u in prev[w] if u < v], w - v))
    if cyclic:
        adj = [a | a << n for a in adj] * 2
    out = []
    img = [0] * p

    def extend(v, m):
        """Place v at each position of m in turn; True once limit is reached."""
        checks = []
        for w, placed, gap in later[v]:
            c = top[w]
            for u in placed:
                c &= adj[img[u]]
            if not c:
                return False
            checks.append((c, gap))
        nxt = v + 1
        while m:
            b = m & -m
            m ^= b
            x = b.bit_length() - 1
            a = adj[x]
            for c, gap in checks:
                if not (c & a) >> (x + gap):
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
                if mn and extend(nxt, mn):
                    return True
        return False

    for t in range(n if cyclic else 1):
        end = t + n if cyclic else n  # the window is [t, end)
        # top[v]: the positions up to the last one that leaves room for v+1..p-1
        top = [(1 << (end - p + v + 1)) - 1 for v in range(p)]
        if extend(0, 1 << t if cyclic else top[0]):
            break
    return out


# Kept only because the benchmark (perfbench/run.py, perfbench/workloads.py)
# imports these two names; the package itself uses order_embeddings alone.
ACTIVE_KERNEL = "pure"


def available_kernels():
    """Every kernel implementation, keyed by name."""
    return {"pure": order_embeddings}
