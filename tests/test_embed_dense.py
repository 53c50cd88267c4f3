"""Constructive embedding into dense hosts: the guarantee above the edge
threshold, graceful None below it, and strict validation of inputs."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from xtrees.constructions import gstar
from xtrees.containment import Embedding, validate_embedding
from xtrees.errors import InputError
from xtrees.order import CgGraph, OrderedGraph
from xtrees.solver import _strip_longest_right, _strip_two_shortest, embed_dense
from xtrees.trees import (
    cg_z_decompose,
    enumerate_trees,
    is_cg_z_tree,
    is_z_tree,
    z_decompose,
)
from xtrees.verify import canonical_z_tree


def _complete(n: int, cyclic: bool = False):
    edges = list(itertools.combinations(range(1, n + 1), 2))
    return CgGraph(n, edges) if cyclic else OrderedGraph(n, edges)


Z3 = OrderedGraph(4, [(1, 3), (2, 3), (2, 4)])


@st.composite
def _hosts(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return n, draw(st.lists(st.sampled_from(pairs), unique=True))


class TestStripping:
    """The edge strips read adjacency lists; the references scan the edges."""

    @given(_hosts(), st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10))
    def test_longest_right(self, host, lo, hi):
        n, edges = host
        deleted = {}
        for g in range(lo, min(hi, n) + 1):
            rights = [w for u, v in edges for w in (u, v) if g in (u, v) and w > g]
            if rights:
                deleted[g] = max(rights)
        keep = [e for e in edges if e not in set(deleted.items())]
        stripped, got = _strip_longest_right(OrderedGraph(n, edges), lo, hi)
        assert got == deleted
        assert stripped == OrderedGraph(n, keep)

    @given(_hosts())
    def test_two_shortest(self, host):
        n, edges = host
        deleted, gone = {}, set()
        for v in range(1, n + 1):
            nbrs = [w for e in edges for w in e if v in e and w != v]
            if nbrs:
                cw = min(nbrs, key=lambda w: (w - v) % n)
                ccw = min(nbrs, key=lambda w: (v - w) % n)
                deleted[(v, +1)], deleted[(v, -1)] = cw, ccw
                gone |= {(min(v, cw), max(v, cw)), (min(v, ccw), max(v, ccw))}
        stripped, got = _strip_two_shortest(CgGraph(n, edges))
        assert got == deleted
        assert stripped == CgGraph(n, [e for e in edges if e not in gone])


class TestLinear:
    def test_complete_host_embeds(self):
        emb = embed_dense(_complete(5), z_decompose(Z3))
        assert emb is not None
        assert validate_embedding(_complete(5), Z3, emb)

    def test_gstar_returns_none(self):
        """gstar(6,1,1,1) has exactly the threshold edge count, so no
        guarantee applies — and the tree genuinely is not there."""
        host = gstar(6, 1, 1, 1)
        assert embed_dense(host, z_decompose(Z3)) is None

    def test_all_three_edge_z_trees_on_random_dense_hosts(self):
        rng = random.Random(42)
        trees = [(t, z_decompose(t)) for t in enumerate_trees(3, "linear", "chi2") if is_z_tree(t)]
        pool = list(itertools.combinations(range(1, 8), 2))
        for trial in range(200):
            m = rng.randint(2 * 7 - 3 + 1, len(pool))
            host = OrderedGraph(7, rng.sample(pool, m))
            tree, dec = trees[trial % len(trees)]
            emb = embed_dense(host, dec)
            assert emb is not None
            assert validate_embedding(host, tree, emb)

    def test_canonical_fan_trees_against_their_gstar(self):
        for a, b, c in ((1, 1, 1), (2, 1, 0), (1, 0, 2), (2, 1, 1)):
            tree, dec = canonical_z_tree(a, b, c)
            k = a + b + c
            for n in range(k + 1, 10):
                assert embed_dense(gstar(n, a, b, c), dec) is None

    def test_mode_mismatch(self):
        with pytest.raises(InputError):
            embed_dense(_complete(5, cyclic=True), z_decompose(Z3))

    def test_host_too_small(self):
        with pytest.raises(InputError):
            embed_dense(_complete(3), z_decompose(Z3))


class TestCyclic:
    def test_complete_cg_host_embeds_double_star(self):
        host = _complete(6, cyclic=True)
        tree = CgGraph(3, [(1, 2), (1, 3)])
        dec = cg_z_decompose(tree)
        emb = embed_dense(host, dec)
        assert emb is not None
        assert validate_embedding(host, tree, emb)

    def test_random_dense_cg_hosts(self):
        rng = random.Random(7)
        trees = [
            (t, cg_z_decompose(t))
            for t in enumerate_trees(3, "cyclic", "chi2")
            if is_cg_z_tree(t)
        ]
        pool = list(itertools.combinations(range(1, 11), 2))
        threshold = 2 * 2 * 10  # 2(k-1)n with k = 3, n = 10
        for trial in range(150):
            m = rng.randint(threshold + 1, len(pool))
            host = CgGraph(10, rng.sample(pool, m))
            tree, dec = trees[trial % len(trees)]
            emb = embed_dense(host, dec)
            assert emb is not None
            assert validate_embedding(host, tree, emb)

    def test_embedding_mode_is_cyclic(self):
        host = _complete(6, cyclic=True)
        dec = cg_z_decompose(CgGraph(3, [(1, 2), (2, 3)]))
        emb = embed_dense(host, dec)
        assert emb is not None and emb.mode == "cyclic"

    def test_cg_host_required(self):
        dec = cg_z_decompose(CgGraph(3, [(1, 2), (2, 3)]))
        with pytest.raises(InputError):
            embed_dense(_complete(6), dec)


class TestInputChecks:
    def test_decomposition_type_required(self):
        with pytest.raises(InputError):
            embed_dense(_complete(5), "not a decomposition")

    def test_non_spanning_decomposition_rejected(self):
        from xtrees.trees import ZDecomposition

        dec = ZDecomposition(hub=(1, 3), core=((1, 3),), s_j=(), s_i=())
        with pytest.raises(InputError):
            embed_dense(_complete(5), dec)
