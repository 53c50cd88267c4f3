"""Extremal constructions, built bit-exactly with edge-count self-checks.

Ordered hosts:

* ``pow2(n)`` — all edges whose length is a power of two (including 1).
* ``fh_q(s)`` / ``fh_r(s)`` — recursive graphs on 2s vertices (s a power of
  two) made of two half-size copies plus a perfect matching between two of
  the four quarter intervals; the two variants differ in which quarters the
  copies and the matching connect. Edge counts satisfy f(1) = 1,
  f(2s) = 2 f(s) + s, i.e. f(s) = (s/2) log2 s + s.
* ``gstar(n, a, b, c)`` — short edges (length < a) plus all edges leaving the
  first b or entering the last c vertices; (k-1)n - C(k,2) edges for
  k = a+b+c.

Cg hosts:

* ``f_n(n)`` — an edge-colored union of matchings M_j (color j) joining odd
  vertices to evens at distance almost 2^j, for n a power of two >= 8.
* ``f_n0(n)`` — the complete bipartite cg graph between the two half arcs.

Every constructor refuses a graph on more than ``MAX_HOST`` vertices with a
BudgetError before it builds an edge, and validates its edge count against
the closed form before returning.
"""

from __future__ import annotations

from .errors import InputError
from .order import CgGraph, OrderedGraph, _check_host_size, _check_int


def _is_power_of_two(x: int) -> bool:
    return x >= 1 and x & (x - 1) == 0


def pow2(n: int) -> OrderedGraph:
    """All edges ij on [n] with j - i a power of two (2^h, h >= 0)."""
    _check_int("n", n)
    if n < 2:
        raise InputError("pow2 needs n >= 2")
    _check_host_size("pow2", n)
    edges = []
    length = 1
    while length < n:
        edges.extend((i, i + length) for i in range(1, n - length + 1))
        length *= 2
    g = OrderedGraph(n, edges)
    want = sum(n - 2**h for h in range(n.bit_length()) if 2**h < n)
    if len(g.edges) != want:
        raise AssertionError("pow2 edge-count self-check failed")
    return g


def _fh_edges(s: int, variant: str) -> list[tuple[int, int]]:
    if s == 1:
        return [(1, 2)]
    half = s // 2
    sub = _fh_edges(half, variant)
    quarters = (
        list(range(1, half + 1)),              # I
        list(range(half + 1, s + 1)),          # I'
        list(range(s + 1, s + half + 1)),      # J
        list(range(s + half + 1, 2 * s + 1)),  # J'
    )
    i_blk, ip_blk, j_blk, jp_blk = quarters
    if variant == "q":
        copies = ((i_blk, j_blk), (ip_blk, jp_blk))
        matching = list(zip(ip_blk, j_blk))
    else:
        copies = ((i_blk, jp_blk), (ip_blk, j_blk))
        matching = list(zip(i_blk, j_blk))
    edges = []
    for left, right in copies:
        verts = left + right
        edges.extend((verts[u - 1], verts[v - 1]) for u, v in sub)
    edges.extend(matching)
    return edges


def _fh(s: int, variant: str) -> OrderedGraph:
    _check_int("stage", s)
    if not _is_power_of_two(s):
        raise InputError("stage must be a power of two")
    _check_host_size(f"fh_{variant} stage {s}", 2 * s)
    g = OrderedGraph(2 * s, _fh_edges(s, variant))
    want = (s * s.bit_length() - s) // 2 + s  # (s/2) log2 s + s
    if len(g.edges) != want:
        raise AssertionError("fh edge-count self-check failed")
    return g


def fh_q(s: int) -> OrderedGraph:
    """Stage-s recursive host on 2s vertices: copies on (I, J) and (I', J'),
    matched I' to J vertex by vertex."""
    return _fh(s, "q")


def fh_r(s: int) -> OrderedGraph:
    """Stage-s recursive host on 2s vertices: copies on (I, J') and (I', J),
    matched I to J vertex by vertex."""
    return _fh(s, "r")


def gstar(n: int, a: int, b: int, c: int) -> OrderedGraph:
    """Short edges (< a) plus all edges touching the first b / last c vertices.

    Avoids every z-tree whose decomposition has core size a and fan sizes
    (b, c); its (k-1)n - C(k,2) edges make it extremal for those trees.
    """
    for what, x in (("n", n), ("a", a), ("b", b), ("c", c)):
        _check_int(what, x)
    if a < 1 or b < 0 or c < 0:
        raise InputError("gstar needs a >= 1 and b, c >= 0")
    k = a + b + c
    if n < k + 1:
        raise InputError(f"gstar needs n >= a+b+c+1 = {k + 1}")
    _check_host_size("gstar", n)
    edges = set()
    for x in range(1, n + 1):
        for y in range(x + 1, n + 1):
            if y - x < a or x <= b or y > n - c:
                edges.add((x, y))
    g = OrderedGraph(n, sorted(edges))
    want = (k - 1) * n - k * (k - 1) // 2
    if len(g.edges) != want:
        raise AssertionError("gstar edge-count self-check failed")
    return g


def f_n(n: int) -> CgGraph:
    """Edge-colored cg host: matchings M_j = {(2i-1, 2i-2+2^j)} with color j.

    Requires n = 2^kappa with kappa >= 3; colors run over 1..kappa-1 and each
    M_j matches the odd vertices 1, 3, ..., n/2 - 1 into even vertices, so
    the coloring is proper and all edges go from odd to even labels.
    """
    _check_int("n", n)
    if not _is_power_of_two(n) or n < 8:
        raise InputError("f_n needs n a power of two with n >= 8")
    _check_host_size("f_n", n)
    kappa = n.bit_length() - 1
    edges = []
    colors = []
    for j in range(1, kappa):
        for i in range(1, n // 4 + 1):
            edges.append((2 * i - 1, 2 * i - 2 + 2**j))
            colors.append(j)
    g = CgGraph(n, edges, colors=colors)
    if len(g.edges) != (kappa - 1) * n // 4:
        raise AssertionError("f_n edge-count self-check failed")
    return g


def f_n0(n: int) -> CgGraph:
    """Complete bipartite cg graph between the arcs [1, n/2] and [n/2+1, n]."""
    _check_int("n", n)
    if n < 2 or n % 2:
        raise InputError("f_n0 needs an even n >= 2")
    _check_host_size("f_n0", n)
    half = n // 2
    edges = [(x, y) for x in range(1, half + 1) for y in range(half + 1, n + 1)]
    g = CgGraph(n, edges)
    if len(g.edges) != half * half:
        raise AssertionError("f_n0 edge-count self-check failed")
    return g
