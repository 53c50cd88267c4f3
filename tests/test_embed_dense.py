"""Constructive embedding into dense hosts: the guarantee above the edge
threshold (tight hosts included), graceful None below it, agreement with
the recursive reference embedders, and strict validation of inputs."""

import importlib.util
import itertools
import json
import random
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from xtrees import solver
from xtrees.constructions import gstar
from xtrees.containment import validate_embedding
from xtrees.errors import InputError, NotApplicableError
from xtrees.order import CgGraph, OrderedGraph, mirror
from xtrees.solver import embed_dense
from xtrees.trees import (
    CgZDecomposition,
    ZDecomposition,
    _z_decompose,
    cg_z_decompose,
    enumerate_trees,
    increasing_chain,
    is_cg_z_tree,
    is_z_tree,
    linearize,
    validate_decomposition,
    z_decompose,
)
from xtrees.verify import canonical_z_tree


def _complete(n: int, cyclic: bool = False):
    edges = list(itertools.combinations(range(1, n + 1), 2))
    return CgGraph(n, edges) if cyclic else OrderedGraph(n, edges)


Z3 = OrderedGraph(4, [(1, 3), (2, 3), (2, 4)])


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
        threshold = 2 * 10 - 3  # (k-1)n - C(k,2) with k = 3, n = 10
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
    def test_non_spanning_decomposition_rejected(self):
        dec = ZDecomposition(hub=(1, 3), core=((1, 3),), s_j=(), s_i=())
        with pytest.raises(InputError):
            embed_dense(_complete(5), dec)


# -- reference: the recursive embedders, which re-derive every smaller tree
# and its decomposition for each host. embed_dense runs a plan compiled once
# per decomposition and must return exactly the same images, or None.


def _ref_pattern_of(dec):
    edges = dec.edges()
    return OrderedGraph(len(edges) + 1, edges)


def ref_strip_longest_right(edges, lo, hi):
    """(the kept edges, {g: far end of g's deleted edge}) once each g in
    lo..hi loses its longest rightward edge, by one scan of the edges."""
    deleted = {}
    for u, v in edges:
        if lo <= u <= hi and v > deleted.get(u, 0):
            deleted[u] = v
    return [e for e in edges if deleted.get(e[0]) != e[1]], deleted


def ref_embed_linear(host, dec) -> Optional[tuple]:
    a, b, c = dec.counts
    k = a + b + c
    if k == 1:
        return min(host.edges) if host.edges else None
    if c == 0 and b == 0:
        redec = _z_decompose(_ref_pattern_of(dec))
        return ref_embed_linear(host, redec) if redec else None
    if c == 0:
        flipped = _z_decompose(mirror(_ref_pattern_of(dec)))
        if not flipped:
            return None
        sub = ref_embed_linear(mirror(host), flipped)
        if sub is None:
            return None
        return tuple(host.n + 1 - sub[k + 1 - v] for v in range(1, k + 2))
    i = dec.hub[0]
    keep, deleted = ref_strip_longest_right(host.edges, b + 1, host.n - a - c + 1)
    sub = ref_embed_linear(OrderedGraph(host.n, keep), ZDecomposition(dec.hub, dec.core, dec.s_j, dec.s_i[:-1]))
    if sub is None:
        return None
    w = deleted.get(sub[i - 1])
    if w is None or w <= max(sub):
        return None
    return sub + (w,)


def ref_embed_cyclic(host, tree, dec) -> Optional[tuple]:
    """Read the host as a line, mirror it, embed dec.linear, map the images
    back: mirrored, they embed tree rotated by dec.rotation in the line."""
    p, n, r = tree.n, host.n, dec.rotation
    sub = ref_embed_linear(mirror(OrderedGraph(n, host.edges)), dec.linear)
    if sub is None:
        return None
    line = tuple(n + 1 - sub[p - v] for v in range(1, p + 1))
    return tuple(line[(v - 1 + r) % p] for v in range(1, p + 1))


def ref_images(host, dec) -> Optional[tuple]:
    if isinstance(dec, ZDecomposition):
        return ref_embed_linear(host, dec)
    p = len(dec.linear.edges()) + 1
    tree = CgGraph(p, [(((p - u - dec.rotation) % p) + 1, ((p - v - dec.rotation) % p) + 1)
                       for u, v in dec.linear.edges()])
    return ref_embed_cyclic(host, tree, dec)


def _valid_decompositions(max_edges: int) -> list:
    """Every (cg) z-tree with <= max_edges edges: its canonical
    decomposition, the all-core split of a chain that the canonical one
    gives fans, and for cg trees every rotation that linearises to a z-tree."""
    decs = []
    for k in range(1, max_edges + 1):
        for t in enumerate_trees(k, "linear", "chi2"):
            dec = z_decompose(t)
            if dec:
                decs.append(dec)
                chain = increasing_chain(t.edges)
                if chain and (dec.b or dec.c):
                    decs.append(ZDecomposition(chain[-1], chain, (), ()))
        for t in enumerate_trees(k, "cyclic", "chi2"):
            if is_cg_z_tree(t):
                for r in range(t.n):
                    try:
                        dec = z_decompose(linearize(t, r))
                    except NotApplicableError:
                        continue
                    if dec:
                        decs.append(CgZDecomposition(r, dec))
    return decs


SMALL_DECS = _valid_decompositions(5)


def _size(dec) -> int:
    return len((dec.linear if isinstance(dec, CgZDecomposition) else dec).edges()) + 1


def _random_host(rng, dec, n):
    pool = list(itertools.combinations(range(1, n + 1), 2))
    cls = CgGraph if isinstance(dec, CgZDecomposition) else OrderedGraph
    return cls(n, rng.sample(pool, rng.randint(0, len(pool))))


def _agree(host, dec):
    emb = embed_dense(host, dec)
    assert (None if emb is None else emb.map) == ref_images(host, dec)


class TestAgainstReference:
    def test_every_small_tree(self):
        rng = random.Random(5)
        assert len(SMALL_DECS) > 300
        for dec in SMALL_DECS:
            p = _size(dec)
            _agree(_complete(p + 2, cyclic=isinstance(dec, CgZDecomposition)), dec)
            for n in (p, p + 3, p + 6):
                _agree(_random_host(rng, dec, n), dec)

    def test_canonical_trees_on_gstar_and_one_edge_more(self):
        """Each canonical tree with <= 6 edges is valid for its decomposition,
        which canonical_z_tree does not check; those with <= 5 edges agree
        with the reference on their gstar and on it plus one edge."""
        for a, b, c in itertools.product(range(1, 7), range(6), range(6)):
            if a + b + c <= 6:
                assert validate_decomposition(*canonical_z_tree(a, b, c)), (a, b, c)
        rng = random.Random(6)
        for a, b, c in itertools.product(range(1, 6), range(5), range(5)):
            if a + b + c > 5:
                continue
            _, dec = canonical_z_tree(a, b, c)
            for n in (a + b + c + 1, 8):
                host = gstar(n, a, b, c)
                missing = [e for e in itertools.combinations(range(1, n + 1), 2)
                           if e not in host.edges]
                _agree(host, dec)
                if missing:
                    _agree(OrderedGraph(n, host.edges + (rng.choice(missing),)), dec)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SMALL_DECS), st.integers(0, 7), st.randoms(use_true_random=False))
    def test_drawn_hosts(self, dec, extra, rng):
        _agree(_random_host(rng, dec, _size(dec) + extra), dec)


@st.composite
def _drawn_hosts(draw):
    """(host, dec): a decomposition of either order with <= 5 edges and a
    host of its order on up to 10 vertices, each pair an edge or not."""
    dec = draw(st.sampled_from([d for d in SMALL_DECS if isinstance(d, ZDecomposition)])
               | st.sampled_from([d for d in SMALL_DECS if isinstance(d, CgZDecomposition)]))
    n = draw(st.integers(_size(dec), 10))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    cls = CgGraph if isinstance(dec, CgZDecomposition) else OrderedGraph
    return cls(n, [e for e, k in zip(pairs, keep) if k]), dec


class TestStripping:
    """embed_dense peels per-vertex neighbour lists; the reference strips
    by scanning the edge list (``ref_strip_longest_right``)."""

    @settings(max_examples=300, deadline=None)
    @given(_drawn_hosts())
    def test_longest_right(self, case):
        _agree(*case)


class TestTightHosts:
    @staticmethod
    def _embed_every_tree(order: str) -> int:
        """Each gstar(n, a, b, c) with k = a + b + c <= 4 and n <= 8 has
        exactly (k-1)n - C(k,2) edges; with one edge more, read in the given
        order, every k-edge (cg) z-tree must embed. Returns the pair count."""
        cls, decompose = (CgGraph, cg_z_decompose) if order == "cyclic" else (OrderedGraph, z_decompose)
        pairs = 0
        for k in range(1, 5):
            trees = [(t, dec) for t in enumerate_trees(k, order, "chi2") if (dec := decompose(t))]
            for a in range(1, k + 1):
                for b in range(k - a + 1):
                    for n in range(k + 1, 9):
                        base = gstar(n, a, b, k - a - b)
                        for e in itertools.combinations(range(1, n + 1), 2):
                            if e in base.edges:
                                continue
                            host = cls(n, base.edges + (e,))
                            for tree, dec in trees:
                                pairs += 1
                                emb = embed_dense(host, dec)
                                assert emb is not None, (host.edges, tree.edges)
                                assert validate_embedding(host, tree, emb)
        return pairs

    def test_gstar_plus_one_edge_embeds_every_z_tree(self):
        assert self._embed_every_tree("linear") == 3870

    def test_gstar_plus_one_edge_embeds_every_cg_z_tree(self):
        """The cg threshold is the ordered one: the hosts read on the circle."""
        assert self._embed_every_tree("cyclic") == 11108


class TestPlan:
    def test_every_small_z_tree_compiles(self):
        """Each tree a plan derives from a (cg) z-tree is a z-tree, so every
        decomposition of every (cg) z-tree with up to 5 edges compiles."""
        for dec in SMALL_DECS:
            tree, steps = solver._plan(dec)
            assert tree.n == _size(dec) and type(steps) is tuple

    def test_one_plan_build_serves_every_host(self, monkeypatch):
        """Derived decompositions are built once per decomposition, not per call."""
        calls = []
        for name in ("_z_scan", "validate_decomposition"):
            real = getattr(solver, name)
            monkeypatch.setattr(
                solver, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a)
            )
        mirrored = next(d for d in SMALL_DECS if isinstance(d, ZDecomposition) and d.b > d.c == 0)
        cyclic = next(d for d in SMALL_DECS if isinstance(d, CgZDecomposition) and d.linear.a > 2)
        for dec in (mirrored, cyclic):
            host = _complete(9, cyclic=isinstance(dec, CgZDecomposition))
            solver._plan.cache_clear()
            embed_dense(host, dec)
            one_build = len(calls)
            assert one_build > 1
            del calls[:]
            solver._plan.cache_clear()
            for _ in range(50):
                assert embed_dense(host, dec) is not None
            assert len(calls) <= one_build
            del calls[:]


class TestDecompositionChecks:
    def test_list_fields_rejected(self):
        dec = ZDecomposition(hub=[1, 3], core=[(1, 2), (1, 3)], s_j=[], s_i=[])
        with pytest.raises(InputError):
            embed_dense(_complete(5), dec)
        with pytest.raises(InputError):
            embed_dense(_complete(5, cyclic=True), CgZDecomposition(0, dec))

    @pytest.mark.parametrize("rotation", [1.0, "1", None, True])
    def test_rotation_must_be_int(self, rotation):
        dec = cg_z_decompose(CgGraph(3, [(1, 2), (2, 3)]))
        with pytest.raises(InputError):
            embed_dense(_complete(6, cyclic=True), CgZDecomposition(rotation, dec.linear))

    def test_cyclic_linear_part_is_validated(self):
        """Every split of each cg z-tree with 3-4 edges into core and fans,
        at its canonical rotation, on complete K_12: the invalid ones raise
        and the valid ones embed."""
        host = _complete(12, cyclic=True)
        dec = CgZDecomposition(1, ZDecomposition(
            hub=(1, 4), core=((3, 4), (2, 4), (1, 4), (2, 5)), s_j=(), s_i=()))
        with pytest.raises(InputError):
            embed_dense(host, dec)
        valid = invalid = 0
        for k in (3, 4):
            for t in enumerate_trees(k, "cyclic", "chi2"):
                if not is_cg_z_tree(t):
                    continue
                r = cg_z_decompose(t).rotation
                lin = linearize(t, r)
                for parts in itertools.product(range(3), repeat=k):
                    core, s_j, s_i = (
                        tuple(e for e, q in zip(lin.edges, parts) if q == part) for part in range(3)
                    )
                    if not core:
                        continue
                    core = tuple(sorted(core, key=lambda e: (e[1] - e[0], e)))
                    split = CgZDecomposition(r, ZDecomposition(core[-1], core, s_j, s_i))
                    try:
                        validate_decomposition(lin, split.linear)
                    except InputError:
                        invalid += 1
                        with pytest.raises(InputError):
                            embed_dense(host, split)
                    else:
                        valid += 1
                        emb = embed_dense(host, split)
                        assert emb is not None and validate_embedding(host, t, emb)
        assert (valid, invalid) == (99, 2729)

    def test_coerced_copy_of_a_cached_decomposition_rejected(self):
        """True == 1.0 == 1, so these equal the cached decomposition, but
        their labels are not ints."""
        host = _complete(6)
        dec = z_decompose(OrderedGraph(3, [(1, 2), (1, 3)]))
        assert embed_dense(host, dec) is not None
        for one in (True, 1.0):
            coerced = ZDecomposition((one, 2), ((one, 2),), (), ((one, 3),))
            assert coerced == dec
            with pytest.raises(InputError):
                embed_dense(host, coerced)
        cdec = cg_z_decompose(CgGraph(3, [(1, 2), (2, 3)]))
        assert embed_dense(_complete(6, cyclic=True), cdec) is not None
        with pytest.raises(InputError):
            embed_dense(_complete(6, cyclic=True), CgZDecomposition(float(cdec.rotation), cdec.linear))


ROOT = Path(__file__).resolve().parents[1]


def test_embed_digest_is_pinned():
    """One sha256 over a fixed seeded set of embed_dense calls (both orders,
    every (cg) z-tree with <= 4 edges, hosts on up to 12 vertices near the
    threshold) equals the digest in tests/data/embed_digest.json, so a
    change to the embedder returns the same images, or None, on each host.
    ``scripts/pin_embed_digest.py`` computes it and rewrites the file."""
    spec = importlib.util.spec_from_file_location(
        "pin_embed_digest", ROOT / "scripts" / "pin_embed_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    pinned = json.loads((ROOT / "tests" / "data" / "embed_digest.json").read_text())
    digest, calls = script.embed_digest()
    assert {"calls": calls, "sha256": digest} == pinned
