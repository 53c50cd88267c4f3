# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled kernel for order-preserving subgraph embedding search.

Keeps the anchored search (no doubled host, no forward checking) and returns
the same lists as xtrees._match_py.order_embeddings, in the same order.
Host positions are tracked in fixed 256-bit bitsets (4 x uint64), so hosts are
capped at 256 vertices and patterns at 16 — both far above the budgets that
the public API enforces.
"""

from libc.stdint cimport uint64_t

cdef extern from *:
    """
    #define XT_CTZLL(x) __builtin_ctzll(x)
    """
    int XT_CTZLL(unsigned long long x) nogil

cdef enum:
    NW = 4          # 256-bit bitsets
    MAXN = 256
    MAXP = 16


cdef inline void _clear(uint64_t *m) noexcept nogil:
    cdef int w
    for w in range(NW):
        m[w] = 0


cdef inline void _range_mask(uint64_t *m, int a, int b) noexcept nogil:
    """Set bits a..b inclusive (requires 0 <= a, b < MAXN); empty if a > b."""
    cdef int w, lo, hi
    _clear(m)
    if a > b:
        return
    for w in range(NW):
        lo = w << 6
        hi = lo + 63
        if b < lo or a > hi:
            continue
        m[w] = ~(<uint64_t>0)
        if a > lo:
            m[w] &= ~(<uint64_t>0) << (a - lo)
        if b < hi:
            m[w] &= ~(<uint64_t>0) >> (hi - b)


cdef inline void _and_into(uint64_t *m, uint64_t *other) noexcept nogil:
    cdef int w
    for w in range(NW):
        m[w] &= other[w]


cdef inline int _pop_lowest(uint64_t *m, int start_word) noexcept nogil:
    """Clear and return the lowest set bit index at or above start_word*64."""
    cdef int w
    cdef uint64_t x
    for w in range(start_word, NW):
        x = m[w]
        if x:
            m[w] = x & (x - 1)
            return (w << 6) + XT_CTZLL(x)
    return -1


cdef inline int _pop_anchored(uint64_t *m, int t) noexcept nogil:
    """Pop the set bit with the smallest offset from t (offsets mod MAXN-ish).

    Bits at positions >= t come first in increasing order, then bits < t.
    Callers guarantee all set bits are < n <= MAXN.
    """
    cdef int w = t >> 6
    cdef int r = t & 63
    cdef uint64_t x = m[w] & (~(<uint64_t>0) << r)
    cdef int q
    if x:
        m[w] = m[w] & ~(x & (~x + 1))
        return (w << 6) + XT_CTZLL(x)
    q = _pop_lowest(m, w + 1)
    if q >= 0:
        return q
    return _pop_lowest(m, 0)


def order_embeddings(int n, object adj, int p, object pat_edges, bint cyclic,
                     int limit=0):
    """Compiled twin of xtrees._match_py.order_embeddings."""
    if p > n or p < 1:
        return []
    if n > MAXN:
        raise ValueError("compiled kernel supports hosts up to 256 vertices")
    if p > MAXP:
        raise ValueError("compiled kernel supports patterns up to 16 vertices")

    cdef uint64_t adjw[MAXN][NW]
    cdef uint64_t cand[MAXP][NW]
    cdef uint64_t base[NW]
    cdef int img[MAXP]
    cdef int prev_cnt[MAXP]
    cdef int prev_idx[MAXP * MAXP]
    cdef int i, w, u, v, q, t, off
    cdef object big
    cdef uint64_t mask64 = ~(<uint64_t>0)

    for i in range(n):
        big = adj[i]
        for w in range(NW):
            adjw[i][w] = <uint64_t>((big >> (w << 6)) & <object>mask64)

    for v in range(p):
        prev_cnt[v] = 0
    for e in pat_edges:
        u = e[0]
        v = e[1]
        prev_idx[v * MAXP + prev_cnt[v]] = u
        prev_cnt[v] += 1

    out = []
    cdef int depth

    if not cyclic:
        depth = 0
        _range_mask(cand[0], 0, n - p)
        while depth >= 0:
            q = _pop_lowest(cand[depth], 0)
            if q < 0:
                depth -= 1
                continue
            img[depth] = q
            if depth + 1 == p:
                out.append(tuple([img[i] for i in range(p)]))
                if limit and len(out) >= limit:
                    return out
                continue
            depth += 1
            _range_mask(cand[depth], q + 1, n - (p - depth))
            for i in range(prev_cnt[depth]):
                _and_into(cand[depth], adjw[img[prev_idx[depth * MAXP + i]]])
        return out

    # cyclic: anchor pattern vertex 0 on each host vertex in turn
    for t in range(n):
        img[0] = t
        if p == 1:
            out.append((t,))
            if limit and len(out) >= limit:
                return out
            continue
        depth = 1
        _cyc_base(base, t, 1, n - (p - 1), n)
        for w in range(NW):
            cand[1][w] = base[w]
        for i in range(prev_cnt[1]):
            _and_into(cand[1], adjw[img[prev_idx[1 * MAXP + i]]])
        while depth >= 1:
            q = _pop_anchored(cand[depth], t)
            if q < 0:
                depth -= 1
                continue
            img[depth] = q
            if depth + 1 == p:
                out.append(tuple([img[i] for i in range(p)]))
                if limit and len(out) >= limit:
                    return out
                continue
            off = q - t
            if off < 0:
                off += n
            depth += 1
            _cyc_base(base, t, off + 1, n - (p - depth), n)
            for w in range(NW):
                cand[depth][w] = base[w]
            for i in range(prev_cnt[depth]):
                _and_into(cand[depth], adjw[img[prev_idx[depth * MAXP + i]]])
    return out


cdef inline void _cyc_base(uint64_t *m, int t, int lo, int hi, int n) noexcept nogil:
    """Positions whose offset from t lies in [lo, hi] (offsets mod n)."""
    cdef uint64_t tmp[NW]
    cdef int a, b, w
    _clear(m)
    if lo > hi:
        return
    a = t + lo
    b = t + hi
    if a >= n:
        a -= n
    if b >= n:
        b -= n
    if a <= b:
        _range_mask(m, a, b)
    else:
        _range_mask(m, a, n - 1)
        _range_mask(tmp, 0, b)
        for w in range(NW):
            m[w] |= tmp[w]
