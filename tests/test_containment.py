"""Embedding search against the brute-force oracle, plus budget handling.

Containment must return exactly the embeddings the permutation oracle finds,
on both orders, including under reflection. The search kernel is also checked
directly: same set as the oracle, in the documented order, with ``limit``
taking a prefix. Random cases are seeded or drawn by hypothesis; a few pinned
cases document the semantics directly.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from xtrees.containment import (
    MAX_HOST,
    MAX_PATTERN,
    Embedding,
    contains,
    find_embedding,
    iter_embeddings,
    validate_embedding,
)
from xtrees.errors import BudgetError, InputError
from xtrees.kernels import order_embeddings
from xtrees.order import CgGraph, OrderedGraph, mirror, reflect, rotate
from xtrees.oracles import oracle_contains, oracle_iter_embeddings


def _random_graph(rng, n, cyclic, p=0.4):
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return CgGraph(n, edges) if cyclic else OrderedGraph(n, edges)


class TestPinned:
    def test_identity_embedding(self):
        g = OrderedGraph(3, [(1, 2), (2, 3)])
        emb = find_embedding(g, g)
        assert emb is not None and emb.map == (1, 2, 3)

    def test_order_must_be_preserved(self):
        host = OrderedGraph(3, [(1, 2), (2, 3)])
        assert contains(host, OrderedGraph(2, [(1, 2)]))
        # host has no edge spanning positions 1..3 with a free middle slot
        assert not contains(host, OrderedGraph(3, [(1, 3)]))

    def test_cyclic_containment_wraps(self):
        host = CgGraph(4, [(1, 4)])
        pattern = CgGraph(2, [(1, 2)])
        assert contains(host, pattern)

    def test_crossing_pattern_in_crossing_host(self):
        host = CgGraph(5, [(1, 3), (2, 5)])
        pattern = CgGraph(4, [(1, 3), (2, 4)])
        assert contains(host, pattern)
        assert not contains(CgGraph(5, [(1, 2), (3, 5)]), pattern)

    def test_reflection_flag(self):
        host = CgGraph(5, [(1, 2), (1, 3), (1, 4)])  # leaves at distances 1,2,3
        pattern = CgGraph(5, [(1, 5), (1, 4), (1, 3)])
        assert contains(host, pattern, allow_reflection=True)
        assert not contains(host, pattern)

    def test_reflected_embeddings_are_flagged(self):
        host = CgGraph(4, [(1, 2), (1, 3)])
        pattern = CgGraph(4, [(1, 4), (1, 3)])
        embs = list(iter_embeddings(host, pattern, allow_reflection=True))
        assert embs and all(e.reflected for e in embs)

    def test_mode_mismatch_rejected(self):
        with pytest.raises(InputError):
            contains(OrderedGraph(3, [(1, 2)]), CgGraph(2, [(1, 2)]))


class TestOracleAgreement:
    @pytest.mark.parametrize("cyclic", [False, True])
    def test_embedding_sets_match(self, cyclic):
        rng = random.Random(20240 + cyclic)
        for trial in range(60):
            host = _random_graph(rng, rng.randint(4, 8), cyclic)
            pattern = _random_graph(rng, rng.randint(1, 4), cyclic, p=0.5)
            got = {e.map for e in iter_embeddings(host, pattern)}
            want = {e.map for e in oracle_iter_embeddings(host, pattern)}
            assert got == want, (host.edges, pattern.edges)

    def test_reflection_agreement(self):
        rng = random.Random(77)
        for trial in range(40):
            host = _random_graph(rng, rng.randint(5, 8), True)
            pattern = _random_graph(rng, rng.randint(3, 5), True, p=0.5)
            assert contains(host, pattern, allow_reflection=True) == oracle_contains(
                host, pattern, allow_reflection=True
            )

    def test_reflection_is_cg_only(self):
        host = OrderedGraph(4, [(1, 2)])
        pattern = OrderedGraph(2, [(1, 2)])
        with pytest.raises(InputError):
            contains(host, pattern, allow_reflection=True)

    def test_limit_truncates(self):
        host = OrderedGraph(6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)])
        pattern = OrderedGraph(2, [(1, 2)])
        embs = list(iter_embeddings(host, pattern, limit=4))
        assert len(embs) == 4


class TestMetamorphic:
    def test_mirror_invariance(self):
        rng = random.Random(5)
        for _ in range(40):
            host = _random_graph(rng, rng.randint(4, 7), False)
            pattern = _random_graph(rng, rng.randint(1, 4), False, p=0.5)
            assert contains(host, pattern) == contains(mirror(host), mirror(pattern))

    def test_rotation_invariance(self):
        rng = random.Random(6)
        for _ in range(40):
            host = _random_graph(rng, rng.randint(4, 7), True)
            pattern = _random_graph(rng, rng.randint(1, 4), True, p=0.5)
            r = rng.randrange(host.n)
            assert contains(host, pattern) == contains(rotate(host, r), pattern)

    def test_reflection_conjugation(self):
        rng = random.Random(7)
        for _ in range(40):
            host = _random_graph(rng, rng.randint(4, 7), True)
            pattern = _random_graph(rng, rng.randint(1, 4), True, p=0.5)
            assert contains(host, pattern) == contains(reflect(host), reflect(pattern))


class TestValidationAndBudget:
    def test_validate_accepts_kernel_output(self):
        host = CgGraph(6, [(1, 2), (2, 4), (4, 6)])
        pattern = CgGraph(3, [(1, 2), (2, 3)])
        for emb in iter_embeddings(host, pattern):
            assert validate_embedding(host, pattern, emb)

    def test_validate_rejects_wrong_image(self):
        host = OrderedGraph(4, [(1, 2)])
        pattern = OrderedGraph(2, [(1, 2)])
        bad = Embedding("linear", (2, 3))
        with pytest.raises(InputError):
            validate_embedding(host, pattern, bad)

    def test_host_budget(self):
        big = OrderedGraph(MAX_HOST + 1, [])
        with pytest.raises(BudgetError):
            contains(big, OrderedGraph(2, [(1, 2)]))

    def test_pattern_budget(self):
        pattern = OrderedGraph(MAX_PATTERN + 2, [])
        with pytest.raises(BudgetError):
            contains(OrderedGraph(10, []), pattern)


def _pairs(n):
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


@st.composite
def _kernel_cases(draw):
    """(host, pattern) of one mode: hosts with n <= 10, patterns with p <= 5."""
    cls = draw(st.sampled_from((OrderedGraph, CgGraph)))
    n = draw(st.integers(min_value=1, max_value=10))
    p = draw(st.integers(min_value=1, max_value=5))
    host = cls(n, draw(st.lists(st.sampled_from(_pairs(n)), unique=True)) if n > 1 else [])
    pattern = cls(p, draw(st.lists(st.sampled_from(_pairs(p)), unique=True)) if p > 1 else [])
    return host, pattern


@st.composite
def _twin_cases(draw):
    """(host, pattern) of one mode on hosts whose vertices come in twins.

    Either a blow-up of a 2-4 vertex graph (each base vertex, possibly with a
    loop, becomes a class of consecutive or interleaved host vertices, and
    classes are joined wherever the base has an edge) with up to three pairs
    toggled, or the complete bipartite graph between two arcs with up to
    three edges removed. The toggles make near-twins, whose masks differ in
    one position.
    """
    cls = draw(st.sampled_from((OrderedGraph, CgGraph)))
    if draw(st.booleans()):
        k = draw(st.integers(min_value=2, max_value=4))
        base = set(draw(st.lists(st.sampled_from(_pairs(k) + [(i, i) for i in range(1, k + 1)]),
                                 unique=True)))
        n = draw(st.integers(min_value=k, max_value=10))
        if draw(st.booleans()):
            part = [1 + i * k // n for i in range(n)]
        else:
            part = [1 + i % k for i in range(n)]
        pool = _pairs(n)
        edges = {(u, v) for u, v in pool
                 if (min(part[u - 1], part[v - 1]), max(part[u - 1], part[v - 1])) in base}
    else:
        a = draw(st.integers(min_value=1, max_value=5))
        n = a + draw(st.integers(min_value=1, max_value=5))
        pool = [(u, v) for u in range(1, a + 1) for v in range(a + 1, n + 1)]
        edges = set(pool)
    edges ^= set(draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)))
    p = draw(st.integers(min_value=1, max_value=min(n, 5)))
    pattern = cls(p, draw(st.lists(st.sampled_from(_pairs(p)), unique=True)) if p > 1 else [])
    return cls(n, sorted(edges)), pattern


class _CountingMasks(list):
    """Adjacency masks that count how often the kernel reads them."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return list.__getitem__(self, i)


def _run(host, pattern, limit=0):
    pat = [(u - 1, v - 1) for u, v in pattern.edges]
    return order_embeddings(
        host.n, host.adjacency_masks(), pattern.n, pat, host.mode == "cg", limit
    )


class TestKernels:
    """The search kernel, called directly, against the oracle and its own contract."""

    @staticmethod
    def _check_oracle(host, pattern, limits):
        full = _run(host, pattern)
        if pattern.n > host.n:
            assert full == [] and all(_run(host, pattern, k) == [] for k in limits)
            return
        want = {tuple(x - 1 for x in e.map) for e in oracle_iter_embeddings(host, pattern)}
        assert len(full) == len(set(full)) and set(full) == want
        # linear: lexicographic; cyclic: by anchor (image of vertex 0), then
        # by offset from the anchor, which is lexicographic in the linear case
        n = host.n
        assert full == sorted(full, key=lambda m: (m[0], [(x - m[0]) % n for x in m]))
        for k in limits:
            assert _run(host, pattern, k) == full[:k]

    @settings(max_examples=150, deadline=None)
    @given(_kernel_cases(), st.integers(min_value=1, max_value=4))
    def test_oracle_set_order_and_limit(self, case, k):
        self._check_oracle(*case, [k])

    @settings(max_examples=300, deadline=None)
    @given(_twin_cases())
    # each of these failed a wrong variant of the rules: the twin test
    # shifted by x + 2, a bulk mask one position short, a skip after success
    @example((OrderedGraph(4, [(3, 4)]), OrderedGraph(2, [(1, 2)])))
    @example((OrderedGraph(3, [(1, 3), (2, 3)]), OrderedGraph(3, [(1, 3), (2, 3)])))
    @example((OrderedGraph(4, [(1, 2), (1, 3), (1, 4)]), OrderedGraph(2, [])))
    def test_twin_rich_hosts_match_oracle(self, case):
        """Hosts full of twins exercise the skip of interchangeable positions
        and the bulk forward check; every limit prefix must agree."""
        self._check_oracle(*case, range(1, 42))

    def test_interchangeable_positions_are_skipped(self):
        """A negative query on the complete bipartite graph between positions
        [0, 32) and [32, 64) reads a few hundred adjacency masks, not the
        hundreds of thousands a search that retries every twin reads."""
        low, high = (1 << 32) - 1, ((1 << 32) - 1) << 32
        adj = _CountingMasks([high] * 32 + [low] * 32)
        assert order_embeddings(64, adj, 5, [(0, 3), (1, 2), (1, 4), (3, 4)], False) == []
        assert adj.reads < 2000

    def test_forward_check_is_bulk(self):
        """Host edges (i, i + 2): no position has two earlier neighbours.
        Once vertex 0 is placed, vertex 2 has one candidate, and the
        candidates of vertex 1 are checked against it at once instead of
        reading each one's mask (about 2,000 reads in all)."""
        adj = _CountingMasks([sum(1 << j for j in (i - 2, i + 2) if 0 <= j < 64)
                              for i in range(64)])
        assert order_embeddings(64, adj, 3, [(0, 2), (1, 2)], False) == []
        assert adj.reads < 600

    @pytest.mark.parametrize("cls", [OrderedGraph, CgGraph])
    def test_single_vertex_pattern_hits_every_vertex(self, cls):
        host = cls(5, [(1, 3)])
        assert _run(host, cls(1, [])) == [(x,) for x in range(5)]
        assert _run(host, cls(1, []), 2) == [(0,), (1,)]

    @pytest.mark.parametrize("cls", [OrderedGraph, CgGraph])
    def test_pattern_larger_than_host_has_no_embedding(self, cls):
        assert _run(cls(3, [(1, 2), (2, 3)]), cls(4, [])) == []
