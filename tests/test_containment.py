"""Embedding search against the brute-force oracle, plus budget handling.

Containment must return exactly the embeddings the permutation oracle finds,
on both orders, including under reflection. The search kernel is also checked
directly: same set as the oracle, in the documented order, with ``limit``
taking a prefix. Random cases are seeded or drawn by hypothesis; a few pinned
cases document the semantics directly.
"""

import importlib.util
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from xtrees.containment import (
    MAX_PATTERN,
    Embedding,
    contains,
    find_embedding,
    iter_embeddings,
    validate_embedding,
)
from xtrees import kernels
from xtrees.constructions import f_n0, fh_q, gstar, pow2
from xtrees.errors import BudgetError, InputError
from xtrees.kernels import order_embeddings
from xtrees.order import CgGraph, OrderedGraph, mirror, reflect, rotate
from xtrees.oracles import ORACLE_MAX_HOST, oracle_contains, oracle_iter_embeddings
from xtrees.trees import enumerate_trees


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

    @pytest.mark.parametrize("limit", [2.5, -1, -5, True, "1", None])
    def test_malformed_limit_rejected(self, limit):
        host = OrderedGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        with pytest.raises(InputError):
            list(iter_embeddings(host, OrderedGraph(2, [(1, 2)]), limit=limit))

    @pytest.mark.parametrize("limit", [-1, True])
    def test_bad_query_raises_at_the_call(self, limit):
        host = OrderedGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        with pytest.raises(InputError):
            iter_embeddings(host, OrderedGraph(2, [(1, 2)]), limit=limit)
        with pytest.raises(InputError):
            iter_embeddings(host, CgGraph(2, [(1, 2)]))

    @pytest.mark.parametrize("image", [(True, 2), (1, 2.0), (0, 2), (2, 4)])
    def test_validate_rejects_non_vertices(self, image):
        host = OrderedGraph(3, [(1, 2), (2, 3)])
        with pytest.raises(InputError):
            validate_embedding(host, OrderedGraph(2, [(1, 2)]), Embedding("linear", image))

    @pytest.mark.parametrize("bad", [None, [(1, 2)], "graph"])
    def test_non_graphs_rejected(self, bad):
        g = OrderedGraph(3, [(1, 2), (2, 3)])
        for host, pattern in ((bad, g), (g, bad)):
            for call in (contains, find_embedding, iter_embeddings):
                with pytest.raises(InputError):
                    call(host, pattern)
            with pytest.raises(InputError):
                validate_embedding(host, pattern, Embedding("linear", (1, 2, 3)))

    @pytest.mark.parametrize("emb", [None, (1, 2), {"mode": "linear", "map": (1, 2)}])
    def test_validate_rejects_non_embeddings(self, emb):
        g = OrderedGraph(2, [(1, 2)])
        with pytest.raises(InputError):
            validate_embedding(g, g, emb)

    @pytest.mark.parametrize(
        "host, pattern, reflected, error, message",
        [
            (OrderedGraph(3), CgGraph(2), False, InputError, "mode mismatch"),
            (OrderedGraph(ORACLE_MAX_HOST + 1), OrderedGraph(2), False, BudgetError,
             f"<= {ORACLE_MAX_HOST} vertices"),
            (OrderedGraph(3), OrderedGraph(2), True, InputError, "cyclic containment only"),
            (OrderedGraph(2), OrderedGraph(3), False, InputError, "pattern larger than host"),
        ],
        ids=["modes", "host-budget", "reflected-linear", "pattern-larger"],
    )
    def test_oracle_refuses_what_it_cannot_enumerate(
            self, host, pattern, reflected, error, message):
        """The query is checked at the call, before the first embedding."""
        with pytest.raises(error, match=message):
            oracle_iter_embeddings(host, pattern, allow_reflection=reflected)

    def test_reflected_limit_counts_both_passes(self):
        host = CgGraph(6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)])
        pattern = CgGraph(3, [(1, 2), (2, 3)])
        every = list(iter_embeddings(host, pattern, allow_reflection=True))
        for limit in range(1, len(every) + 2):
            got = list(iter_embeddings(host, pattern, allow_reflection=True, limit=limit))
            assert got == every[:limit]


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
    # v + 1 is no neighbour of v but has an earlier one: the search cuts v's
    # candidates at or above the last position that earlier neighbour allows
    @example((OrderedGraph(6, [(1, 3), (2, 6)]), OrderedGraph(3, [(1, 3)])))
    @example((OrderedGraph(7, [(1, 4), (2, 3), (2, 5), (3, 7)]), OrderedGraph(4, [(1, 3), (2, 4)])))
    @example((CgGraph(6, [(1, 3), (2, 4), (4, 6)]), CgGraph(4, [(1, 3), (2, 4)])))
    @example((CgGraph(7, [(1, 4), (2, 6), (3, 5), (5, 7)]), CgGraph(5, [(1, 3), (1, 4), (2, 5)])))
    # w's placed neighbours all sit two or more levels above v, so the bulk
    # set of w on v is computed once, at the node of the last of them; each
    # of these failed a variant whose hoisted set stopped one position short
    @example((OrderedGraph(4, [(1, 4), (2, 3), (3, 4)]), OrderedGraph(4, [(1, 4), (2, 3), (3, 4)])))
    @example((OrderedGraph(5, [(1, 2), (1, 4), (1, 5), (2, 3), (3, 5)]),
              OrderedGraph(5, [(1, 4), (1, 5), (2, 3), (3, 5)])))
    @example((CgGraph(4, [(1, 2), (1, 4)]), CgGraph(4, [(1, 4), (3, 4)])))
    @example((CgGraph(5, [(1, 3), (1, 5), (2, 4), (3, 4)]),
              CgGraph(5, [(1, 4), (1, 5), (2, 3), (3, 5)])))
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

    def test_invariant_bulk_sets_are_hoisted(self):
        """In (1,4),(1,5),(2,3),(3,5) the bulk set of vertex 5 on vertex 3
        depends on vertex 1's image alone. Computed once per image of
        vertex 1, the refutation on pow2(64) reads 3,920 adjacency masks;
        rebuilt at every image of vertex 2 it read 15,295."""
        adj = _CountingMasks(pow2(64).adjacency_masks())
        assert order_embeddings(64, adj, 5, [(0, 3), (0, 4), (1, 2), (2, 4)], False) == []
        assert adj.reads < 6000

    @pytest.mark.parametrize("cls", [OrderedGraph, CgGraph])
    def test_single_vertex_pattern_hits_every_vertex(self, cls):
        host = cls(5, [(1, 3)])
        assert _run(host, cls(1, [])) == [(x,) for x in range(5)]
        assert _run(host, cls(1, []), 2) == [(0,), (1,)]

    @pytest.mark.parametrize("cls", [OrderedGraph, CgGraph])
    def test_pattern_larger_than_host_has_no_embedding(self, cls):
        assert _run(cls(3, [(1, 2), (2, 3)]), cls(4, [])) == []


ROOT = Path(__file__).resolve().parents[1]


def test_kernel_digest_is_pinned():
    """One sha256 over a fixed seeded set of order_embeddings calls (both
    orders, limits 0, 1 and 3, hosts on up to 12 vertices, patterns on up to
    6) equals the digest in tests/data/kernel_digest.json, so a change to the
    kernel returns the same lists in the same order.
    ``scripts/pin_kernel_digest.py`` computes it and rewrites the file."""
    spec = importlib.util.spec_from_file_location(
        "pin_kernel_digest", ROOT / "scripts" / "pin_kernel_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    pinned = json.loads((ROOT / "tests" / "data" / "kernel_digest.json").read_text())
    digest, calls = script.kernel_digest()
    assert {"calls": calls, "sha256": digest} == pinned


# ---------------------------------------------------------------------------
# first-hit queries refuted in another orientation


def ref_order_embeddings(n, adj, p, pat_edges, cyclic, limit=0):
    """The search kernel as it was before first-hit queries could refute in
    another orientation: the same backtracking search, always on the input
    as given. Kept as the reference for the list and order returned."""
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
            if not placed:
                checks.append((c, gap))
                continue
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
            for c, gap in checks:
                if not (c & a) >> (x + gap):
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
    return out


def _edges0(pattern):
    return [(u - 1, v - 1) for u, v in pattern.edges]


def _ref_run(host, pattern, limit=0):
    return ref_order_embeddings(
        host.n, host.adjacency_masks(), pattern.n, _edges0(pattern), host.mode == "cg", limit
    )


def _oracle_list(host, pattern):
    """The oracle's embeddings, 0-based, in the kernel's documented order."""
    if pattern.n > host.n:
        return []
    n = host.n
    maps = {tuple(x - 1 for x in e.map) for e in oracle_iter_embeddings(host, pattern)}
    return sorted(maps, key=lambda m: (m[0], [(x - m[0]) % n for x in m]))


def _turn(pattern):
    """The kernel's choice for first-hit queries: None (as given), else
    (the sorted 0-based edges it searches, whether the host is mirrored too)."""
    return kernels._compile(pattern.n, tuple(_edges0(pattern)), pattern.mode == "cg")[1]


def _orientations(pattern):
    """Every orientation the rule scores: (pattern, host transform) pairs."""
    if pattern.mode == "ordered":
        return [(pattern, None), (mirror(pattern), mirror)]
    turns = [rotate(pattern, r) for r in range(pattern.n)]
    return [(q, None) for q in turns] + [(reflect(q), reflect) for q in turns]


class TestOrientedRefutation:
    """First-hit queries may refute in the mirror or a rotation of the
    pattern; the list returned must still be the forward search's."""

    @staticmethod
    def _check(host, pattern, k):
        want = _oracle_list(host, pattern)
        for limit in range(1, k + 1):
            got = _run(host, pattern, limit)
            assert got == _ref_run(host, pattern, limit) == want[:limit], limit

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_kernel_cases(), _twin_cases()), st.integers(min_value=1, max_value=8))
    def test_same_list_as_the_forward_search(self, case, k):
        self._check(*case, k)

    @pytest.mark.parametrize("cls", [OrderedGraph, CgGraph])
    def test_turned_patterns_present_and_absent(self, cls):
        """Patterns whose chosen orientation is not the identity, on random
        hosts (mostly absent) and on hosts with the pattern planted at random
        positions, in cyclic order from a random start (present)."""
        rng = random.Random(f"turned-{cls.__name__}")
        seen = {True: 0, False: 0}
        while min(seen.values()) < 60:
            p = rng.randint(3, 5)
            pattern = cls(p, [e for e in _pairs(p) if rng.random() < 0.5])
            if _turn(pattern) is None:
                continue
            n = rng.randint(p, 10)
            host_edges = {e for e in _pairs(n) if rng.random() < rng.choice((0.2, 0.5))}
            if rng.random() < 0.5:
                pos = sorted(rng.sample(range(1, n + 1), p))
                s = rng.randrange(p) if cls is CgGraph else 0
                img = [pos[(v + s) % p] for v in range(p)]
                host_edges |= {tuple(sorted((img[u - 1], img[v - 1]))) for u, v in pattern.edges}
            host = cls(n, sorted(host_edges))
            self._check(host, pattern, 6)
            seen[bool(_run(host, pattern, 1))] += 1

    @pytest.mark.parametrize("cls", [OrderedGraph, CgGraph])
    def test_every_orientation_is_sound(self, cls):
        """For every tree with <= 4 edges, each orientation the rule scores
        embeds in the correspondingly transformed host exactly when the tree
        embeds in the host, and the kernel's choice is one of them."""
        mode = "cyclic" if cls is CgGraph else "linear"
        rng = random.Random(f"orientations-{mode}")
        outcomes = set()
        for k in range(1, 5):
            for t in enumerate_trees(k, mode, "all"):
                cands = _orientations(t)
                turn = _turn(t)
                if turn is not None:
                    assert turn in [(tuple(sorted(_edges0(q))), f is not None) for q, f in cands]
                for _ in range(3):
                    n = rng.randint(t.n, 7)
                    host = cls(n, [e for e in _pairs(n) if rng.random() < 0.4])
                    want = oracle_contains(host, t)
                    outcomes.add(want)
                    for q, f in cands:
                        assert oracle_contains(f(host) if f else host, q) == want, (t.edges, q.edges)
        assert outcomes == {True, False}

    def test_evicted_orientation_is_compiled_once(self, monkeypatch):
        """Past the cache's size a pattern and its refuting search still
        share one search: the pattern's entry names the orientation and its
        connectivity-first order, and the search that runs is the
        orientation's own, cached under that order."""
        pattern = OrderedGraph(5, [(1, 4), (2, 4), (3, 5), (4, 5)])
        key = (pattern.n, tuple(_edges0(pattern)), False)
        assert _turn(pattern)[1]  # refuted in the mirror
        edges = tuple(sorted(_edges0(mirror(pattern))))
        order = kernels._compile(*key)[2]
        assert order == (1, 0, 2, 3, 4)  # the mirror's degree-3 vertex first
        host = fh_q(32)
        adj = host.adjacency_masks()
        masks = lambda flip: kernels._search_masks(host.n, adj, False, flip)
        ran = []
        search = kernels._search
        monkeypatch.setattr(kernels, "_search", lambda s, *a: ran.append(s) or search(s, *a))

        def refute():
            assert not kernels._exists(host.n, masks, *key)
            assert ran[-1] is kernels._compile(5, edges, False, order)[0]

        refute()
        # more cyclic 6-vertex patterns than the cache holds, each followed by
        # the pattern, so that the orientation's entry alone is evicted
        pairs = list(itertools.combinations(range(6), 2))
        subsets = (c for r in range(1, len(pairs)) for c in itertools.combinations(pairs, r))
        for filler in itertools.islice(subsets, kernels._compile.cache_info().maxsize):
            kernels._compile(6, filler, True)
            kernels._compile(*key)
        refute()
        assert ran[0] is not ran[-1]  # the orientation was compiled again
        kernels._compile.cache_clear()

    def test_mirrored_masks(self):
        rng = random.Random(11)
        for n in list(range(1, 20)) + [31, 32, 33, 63, 64, 65, 255, 256]:
            edges = (rng.sample(_pairs(n), 3 * n) if n >= 40
                     else [e for e in _pairs(n) if rng.random() < 0.3])
            host = OrderedGraph(n, edges)
            assert kernels._mirrored(n, host.adjacency_masks()) == mirror(host).adjacency_masks()

    def test_absence_is_refuted_in_the_mirror(self):
        """fh_q(32) avoids (1,4),(2,4),(3,5),(4,5). As given, a first-hit
        refutation reads 21,015 adjacency masks; the mirror (1,2),(1,3),
        (2,4),(2,5) closes its edges earlier and reads 199 in the index
        order. The query must refute there, in the mirror's connectivity-
        first order 2, 1, 3, 4, 5 (60 reads), and never enter the search as
        given."""
        host = fh_q(32)
        pattern = OrderedGraph(5, [(1, 4), (2, 4), (3, 5), (4, 5)])
        forward = _CountingMasks(host.adjacency_masks())
        assert ref_order_embeddings(host.n, forward, 5, _edges0(pattern), False, 1) == []
        assert forward.reads == 21015
        index = _CountingMasks(mirror(host).adjacency_masks())
        assert ref_order_embeddings(host.n, index, 5, _edges0(mirror(pattern)), False, 1) == []
        assert index.reads == 199
        adj = _CountingMasks(host.adjacency_masks())
        assert order_embeddings(host.n, adj, 5, _edges0(pattern), False, 1) == []
        assert adj.reads == 0
        # the mirrored query refutes in the same search, on the mirrored host
        flipped = _CountingMasks(mirror(host).adjacency_masks())
        assert order_embeddings(host.n, flipped, 5, _edges0(mirror(pattern)), False, 1) == []
        assert flipped.reads == 60

    def test_enumeration_searches_only_as_given(self, monkeypatch):
        """limit=0 never runs the refutation first, even where a first-hit
        query would refute in the mirror."""
        host = fh_q(32)
        pattern = OrderedGraph(5, [(1, 4), (2, 4), (3, 5), (4, 5)])
        present = OrderedGraph(3, [(1, 3), (2, 3)])
        assert _turn(pattern)[1] and _turn(present)[1]
        monkeypatch.setattr(kernels, "_mirrored", None)  # a call would raise
        assert _run(host, pattern) == []
        assert _run(host, present) == _ref_run(host, present) != []


class TestGeneratedSearch:
    """The search as one generated loop nest per pattern: every supported
    pattern size, the nesting limit, and containment's single search."""

    @pytest.mark.parametrize("cls", [OrderedGraph, CgGraph])
    @pytest.mark.parametrize("p", range(1, MAX_PATTERN + 1))
    def test_every_pattern_size_matches_reference_and_oracle(self, p, cls):
        rng = random.Random(f"size-{p}-{cls.__name__}")
        for _ in range(12):
            n = rng.randint(p, min(p + 3, 10))
            host = cls(n, [e for e in _pairs(n) if rng.random() < rng.choice((0.5, 0.8))])
            pattern = cls(p, [e for e in _pairs(p) if rng.random() < 0.4])
            want = _oracle_list(host, pattern)
            for limit in (0, 1, 3):
                got = _run(host, pattern, limit)
                assert got == _ref_run(host, pattern, limit) == want[:limit or None], limit

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_pattern_size_limit(self, cyclic):
        """CPython nests at most 20 blocks: a 20-vertex pattern still runs, a
        21-vertex one is refused with a BudgetError naming the limit."""
        n = 21
        adj = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
        path = [(i, i + 1) for i in range(n - 1)]
        assert order_embeddings(n, adj, 20, path[:19], cyclic, 1) == [tuple(range(20))]
        with pytest.raises(BudgetError, match="limit is 20"):
            order_embeddings(n, adj, 21, path, cyclic, 1)

    @pytest.mark.parametrize("edges", [[(1, 0)], [(0, 3)], [(0, 0)], [("0", "1")], [(0, 1, 2)]])
    def test_malformed_pattern_edges_refused(self, edges):
        """The generated source is written from range(p); an edge that is
        not a normalised pair of it is refused, not dropped."""
        with pytest.raises(InputError, match="normalised"):
            order_embeddings(4, [0b1110, 0b1101, 0b1011, 0b0111], 3, edges, False)

    def test_contains_runs_one_search_per_orientation(self, monkeypatch):
        """contains answers from the one search first-hit queries refute in:
        in linear order, the chosen orientation in its connectivity-first
        order. find_embedding runs it and then the search as given. With
        reflection, the reflected pattern is searched only after a miss."""
        calls = []
        search = kernels._search
        monkeypatch.setattr(kernels, "_search", lambda *a: calls.append(a[0]) or search(*a))

        def count(fn, *args, **kw):
            calls.clear()
            return fn(*args, **kw), len(calls)

        def refuting(pattern):
            _, (edges, _), order = kernels._compile(pattern.n, tuple(_edges0(pattern)), False)
            return kernels._compile(pattern.n, edges, False, order)[0]

        host = fh_q(32)
        absent = OrderedGraph(5, [(1, 4), (2, 4), (3, 5), (4, 5)])
        present = OrderedGraph(3, [(1, 3), (2, 3)])
        # (1,3),(2,3) is refuted in its mirror (1,2),(1,3), whose
        # connectivity-first order is the index order
        assert _turn(absent)[1] and _turn(present)[1]
        assert count(contains, host, absent) == (False, 1)
        assert calls == [refuting(absent)]
        assert count(contains, host, present) == (True, 1)
        assert calls == [refuting(present)]
        assert count(find_embedding, host, absent) == (None, 1)
        assert calls == [refuting(absent)]
        emb, searches = count(find_embedding, host, present)
        assert emb is not None and searches == 2
        assert calls == [refuting(present), kernels._compile(3, ((0, 2), (1, 2)), False)[0]]
        # no mirror, but a connectivity-first order 1, 3, 2, 4: one search too
        connected = OrderedGraph(4, [(1, 3), (1, 4), (2, 3)])
        assert _turn(connected) == (((0, 2), (0, 3), (1, 2)), False)
        assert count(contains, host, connected) == (True, 1)
        as_given = kernels._compile(4, ((0, 2), (0, 3), (1, 2)), False)[0]
        assert calls == [refuting(connected)] != [as_given]
        emb, searches = count(find_embedding, host, connected)
        assert emb is not None and calls == [refuting(connected), as_given]
        cg = CgGraph(5, [(1, 2), (1, 3), (1, 4)])
        star = CgGraph(5, [(1, 5), (1, 4), (1, 3)])
        assert count(contains, cg, star) == (False, 1)
        assert count(contains, cg, star, allow_reflection=True) == (True, 2)
        assert count(contains, cg, reflect(star), allow_reflection=True) == (True, 1)

    @pytest.mark.parametrize("host", [pow2(16), f_n0(16)], ids=["ordered", "cg"])
    def test_search_masks_are_kept_on_the_host(self, host, monkeypatch):
        """Containment keeps the masks a search reads on the host: repeated
        queries mirror it once and, in cyclic order, double it once per
        orientation. A refutation that only reorders the vertices (linear)
        or rotates the pattern (cyclic) reads the masks as given, so it
        builds nothing more. order_embeddings, given bare masks, builds them
        per call."""
        built = []
        for name in ("_mirrored", "_doubled"):
            fn = getattr(kernels, name)
            monkeypatch.setattr(kernels, name,
                                lambda *a, fn=fn, name=name: built.append(name) or fn(*a))
        cls = type(host)
        mirrored = cls(3, [(1, 3), (2, 3)]) if cls is OrderedGraph else cls(4, [(1, 2), (2, 4), (3, 4)])
        as_given = cls(3, [(1, 2), (1, 3)])
        unflipped = (cls(4, [(1, 2), (1, 3), (3, 4)]) if cls is OrderedGraph
                     else cls(4, [(2, 3), (2, 4)]))
        assert _turn(mirrored)[1] and _turn(as_given) is None and _turn(unflipped)[1] is False
        for _ in range(3):
            for pattern in (mirrored, as_given, unflipped):
                contains(host, pattern)
                find_embedding(host, pattern)
        doubled = 2 if cls is CgGraph else 0
        assert sorted(built) == ["_doubled"] * doubled + ["_mirrored"]
        built.clear()
        for _ in range(2):
            _run(host, mirrored, 1)
        assert built.count("_mirrored") == 2


class TestVertexOrders:
    """The search generated for any static vertex order: in every order it
    finds the embeddings the oracle finds (cyclic orders place the anchor,
    vertex 0, first), and the connectivity-first refutation gives the
    verdict of the search as given."""

    @staticmethod
    def _orders(pattern):
        p = pattern.n
        return [seq for seq in itertools.permutations(range(p))
                if pattern.mode == "ordered" or seq[0] == 0]

    @staticmethod
    def _searches(pattern):
        edges = tuple(_edges0(pattern))
        return [(seq, kernels._compile(pattern.n, edges, pattern.mode == "cg", seq)[0])
                for seq in TestVertexOrders._orders(pattern)]

    @staticmethod
    def _check(host, searches, want):
        """Each search finds exactly the maps want, and a first hit iff there
        is one."""
        n = host.n
        masks = host.adjacency_masks()
        if host.mode == "cg":
            masks = kernels._doubled(n, masks)
        for seq, search in searches:
            full = search(masks, n, 0)
            assert len(full) == len(set(full)) and set(full) == want, seq
            assert bool(search(masks, n, 1)) == bool(want), seq

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(_kernel_cases(), _twin_cases()))
    # each of these failed a variant that skipped interchangeable positions
    # at a level whose index predecessor is not yet placed, or that compared
    # their masks above x' alone while a lower-index neighbour was unplaced
    @example((OrderedGraph(6, [(1, 2), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6),
                               (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]),
              OrderedGraph(5, [(1, 3), (1, 5), (2, 3), (2, 4), (2, 5)])))
    @example((OrderedGraph(7, [(1, 2), (1, 4), (1, 5), (1, 7), (2, 3), (2, 4), (2, 5), (2, 6),
                               (3, 4), (3, 5), (3, 7), (4, 5), (4, 6), (4, 7), (6, 7)]),
              OrderedGraph(4, [(1, 4), (2, 3)])))
    def test_every_order_matches_the_oracle(self, case):
        host, pattern = case
        if pattern.n > host.n:
            return
        want = {tuple(x - 1 for x in e.map) for e in oracle_iter_embeddings(host, pattern)}
        self._check(host, self._searches(pattern), want)

    @pytest.mark.parametrize("cls", [OrderedGraph, CgGraph])
    def test_every_order_of_every_small_tree(self, cls):
        """Every tree with <= 4 edges, in every vertex order, on seeded hosts
        that hold it and hosts that mostly do not."""
        mode = "cyclic" if cls is CgGraph else "linear"
        rng = random.Random(f"vertex-orders-{mode}")
        outcomes = set()
        for k in range(1, 5):
            for t in enumerate_trees(k, mode, "all"):
                searches = self._searches(t)
                for density in (0.3, 0.6):
                    n = rng.randint(t.n, 7)
                    host = cls(n, [e for e in _pairs(n) if rng.random() < density])
                    want = {tuple(x - 1 for x in e.map) for e in oracle_iter_embeddings(host, t)}
                    assert bool(want) == oracle_contains(host, t)
                    outcomes.add(bool(want))
                    self._check(host, searches, want)
        assert outcomes == {True, False}

    def test_refutation_agrees_with_the_search_as_given(self):
        """On pow2(32), fh_q(16) and gstar(32,2,1,1), every ordered tree with
        <= 5 edges gets the same verdict from the refuting search (the
        chosen orientation in its connectivity-first order) as from the
        index-order search of the tree as given."""
        hosts = [pow2(32), fh_q(16), gstar(32, 2, 1, 1)]
        masks = [lambda flip, h=h: kernels._search_masks(h.n, h.adjacency_masks(), False, flip)
                 for h in hosts]
        outcomes = set()
        for k in range(1, 6):
            for t in enumerate_trees(k, "linear", "all"):
                edges = tuple(_edges0(t))
                search = kernels._compile(t.n, edges, False)[0]
                for host, m in zip(hosts, masks):
                    want = bool(kernels._search(search, host.n, m, False, 1))
                    assert kernels._exists(host.n, m, t.n, edges, False) == want, t.edges
                    outcomes.add(want)
        assert outcomes == {True, False}
