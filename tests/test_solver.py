"""Exact extremal numbers: pinned values, golden data, oracle agreement,
symmetry breaking against the unpruned search, bounds and refusal behavior."""

import dataclasses
import gc
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from xtrees import order
from xtrees.constructions import f_n
from xtrees.containment import contains, iter_embeddings
from xtrees.errors import BudgetError, InputError
from xtrees.io import graph_to_dict
from xtrees.kernels import order_embeddings
from xtrees.oracles import oracle_extremal_number
from xtrees.order import CgGraph, OrderedGraph, mirror, reflect, rotate
from xtrees.solver import (
    SOLVER_MAX_N,
    _canonical_edges,
    _check_result,
    _cyclic_length_edges,
    _masks,
    _placements,
    _plan,
    _proof_edges,
    _relabellings,
    _search,
    embed_dense,
    extremal_number,
)
from xtrees.trees import (
    CROSSING_P3_EDGES,
    CgZDecomposition,
    LinearFormula,
    enumerate_trees,
    is_cg_z_tree,
    is_z_tree,
    z_decompose,
)
from xtrees.walks import ColoredBipartite, extract_walk_free

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "extremal.json"
SOLVER_NODES = Path(__file__).resolve().parent / "data" / "solver_nodes.json"

Z3 = OrderedGraph(4, [(1, 3), (2, 3), (2, 4)])
P = OrderedGraph(4, CROSSING_P3_EDGES)


class TestPinnedValues:
    def test_three_edge_z_tree(self):
        assert extremal_number(5, Z3).value == 7  # 2n - 3
        assert extremal_number(4, Z3).value == 5  # boundary n = k + 1

    def test_single_edge(self):
        assert extremal_number(3, OrderedGraph(2, [(1, 2)])).value == 0

    def test_crossing_pattern_beats_the_tree_formula(self):
        """The non-decomposable 3-edge pattern is strictly harder to force:
        at n = 6 eleven edges avoid it, two more than 2n - 3."""
        r = extremal_number(6, P)
        assert r.value == 11
        assert len(r.witness.edges) == 11
        assert not contains(r.witness, P)

    def test_witness_is_always_pattern_free(self):
        for n in (4, 5, 6):
            r = extremal_number(n, Z3)
            assert len(r.witness.edges) == r.value
            assert not contains(r.witness, Z3)


class TestGolden:
    def test_frozen_values_reproduce(self):
        doc = json.loads(GOLDEN.read_text())
        for entry in doc["entries"]:
            cls = OrderedGraph if entry["mode"] == "ordered" else CgGraph
            pattern = cls(entry["pattern_n"], [tuple(e) for e in entry["pattern"]])
            r = extremal_number(entry["n"], pattern)
            assert r.value == entry["value"], entry
            assert graph_to_dict(r.witness) == entry["witness"], entry


class TestPinnedSearch:
    """The search itself, not only its answer: value, witness and node count
    of every tree with <= 3 edges in both orders at n = max(2, p)..7, as the
    search recorded them. A change that keeps the values but visits other
    nodes fails here; ``scripts/pin_solver_nodes.py`` rewrites the file."""

    def test_every_tree_solves_as_recorded(self):
        entries = json.loads(SOLVER_NODES.read_text())
        keys = {(e["mode"], tuple(map(tuple, e["edges"])), e["n"]) for e in entries}
        trees = [t for k in (1, 2, 3) for mode in ("linear", "cyclic") for t in enumerate_trees(k, mode)]
        assert keys == {(t.mode, t.edges, n) for t in trees for n in range(max(2, t.n), 8)}
        assert len(entries) == 170
        for e in entries:
            cls = OrderedGraph if e["mode"] == "ordered" else CgGraph
            r = extremal_number(e["n"], cls(len(e["edges"]) + 1, [tuple(x) for x in e["edges"]]))
            got = (r.value, [list(x) for x in r.witness.edges], r.nodes)
            assert got == (e["value"], e["witness"], e["nodes"]), e

    def test_searches_leave_no_cyclic_garbage(self):
        """The recursive closures of the solver, the kernel and the exhaustive
        walk-free extraction would keep their tables alive until a
        collection; they break their own cycles."""
        host = ColoredBipartite.from_colored_graph(f_n(16))
        assert len(host.edges) <= 20
        gc.disable()
        try:
            gc.collect()
            extremal_number(7, CgGraph(4, [(1, 2), (1, 3), (3, 4)]))
            contains(OrderedGraph(5, [(1, 3), (2, 4), (3, 5)]), OrderedGraph(3, [(1, 2), (2, 3)]))
            assert extract_walk_free(host, "fast").method == "exhaustive"
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_linear_patterns(self, n):
        for t in enumerate_trees(2, "linear", "all"):
            if not is_z_tree(t) or t.n > n:
                continue
            assert extremal_number(n, t).value == oracle_extremal_number(n, t)[0]

    def test_crossing_pattern(self):
        assert extremal_number(5, P).value == oracle_extremal_number(5, P)[0]

    def test_cyclic_pattern(self):
        star = CgGraph(3, [(1, 2), (1, 3)])
        assert extremal_number(5, star).value == oracle_extremal_number(5, star)[0]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_arbitrary_patterns(self, data):
        """Any edge set, not only trees: the bounds must stay admissible."""
        cls = data.draw(st.sampled_from([OrderedGraph, CgGraph]))
        p = data.draw(st.integers(min_value=2, max_value=4))
        pairs = list(itertools.combinations(range(1, p + 1), 2))
        chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        pattern = cls(p, chosen)
        n = data.draw(st.integers(min_value=p, max_value=5))
        r = extremal_number(n, pattern)
        assert r.value == oracle_extremal_number(n, pattern)[0]
        assert len(r.witness.edges) == r.value
        assert not contains(r.witness, pattern)

    def test_naive_refuses_above_five(self):
        with pytest.raises(BudgetError):
            oracle_extremal_number(6, Z3)


def _kernel_masks(n, pattern, index):
    """Placement masks from a full kernel enumeration on the complete host."""
    full = [((1 << n) - 1) & ~(1 << i) for i in range(n)]
    pat = [(u - 1, v - 1) for u, v in pattern.edges]
    masks = set()
    for m in order_embeddings(n, full, pattern.n, pat, pattern.mode == "cg", 0):
        mask = 0
        for u, v in pattern.edges:
            a, b = m[u - 1] + 1, m[v - 1] + 1
            mask |= 1 << index[(min(a, b), max(a, b))]
        masks.add(mask)
    return sorted(masks)


class TestSearch:
    @pytest.mark.parametrize("mode", ["linear", "cyclic"])
    def test_counted_placements_match_the_kernel(self, mode):
        for k in (1, 2, 3):
            for t in enumerate_trees(k, mode):
                for n in range(t.n, 8):
                    placements = _placements(n, t)
                    for edges in (_canonical_edges(n), _cyclic_length_edges(n),
                                  _proof_edges(n, placements)):
                        index = {e: i for i, e in enumerate(edges)}
                        assert _masks(placements, edges) == _kernel_masks(n, t, index)

    def test_crossing_path_node_ceiling(self):
        """The packing bound keeps n = 8 to a few thousand nodes; the
        undecided-edges bound alone needs over a million."""
        r = extremal_number(8, P)
        assert r.value == 17
        assert r.nodes <= 10_000

    @pytest.mark.parametrize("pattern, value, ceiling", [
        (CgGraph(4, [(1, 2), (1, 3), (3, 4)]), 8, 20_000),
        (OrderedGraph(4, [(1, 3), (1, 4), (2, 3)]), 13, 80_000),
    ])
    def test_n8_node_ceilings(self, pattern, value, ceiling):
        """Proving with the busiest edges first and finding the witness with
        the value known: 16,399 and 35,178 nodes, against 90,295 and 129,249
        when one search in canonical order did both."""
        r = extremal_number(8, pattern)
        assert r.value == value
        assert r.nodes <= ceiling

    def test_proof_order_decides_the_busiest_edges_first(self):
        """The proof order is the cyclic-length order stably sorted by the
        number of placements through each edge, most first."""
        for mode in ("linear", "cyclic"):
            for k in (1, 2, 3):
                for t in enumerate_trees(k, mode):
                    for n in range(t.n, SOLVER_MAX_N + 1):
                        placements = _placements(n, t)
                        edges = _proof_edges(n, placements)
                        rank = {e: i for i, e in enumerate(_cyclic_length_edges(n))}
                        assert sorted(edges) == sorted(rank)
                        counts = [sum(e in image for image in placements) for e in edges]
                        for i in range(len(edges) - 1):
                            assert counts[i] > counts[i + 1] or (
                                counts[i] == counts[i + 1] and rank[edges[i]] < rank[edges[i + 1]]
                            ), (n, t, edges[i:i + 2])

    def test_ordered_z_trees_n8_proof_nodes(self):
        """The five ordered 3-edge z-trees at n = 8 take 120,299 proof nodes
        in total with the busiest edges first, against 476,535 in
        cyclic-length order."""
        trees = [t for t in enumerate_trees(3, "linear") if is_z_tree(t)]
        assert len(trees) == 5
        total = 0
        for t in trees:
            placements = _placements(8, t)
            value, _, nodes = _search(8, t, placements, _proof_edges(8, placements), -1, False)
            assert value == LinearFormula(3).value(8)
            total += nodes
        assert total <= 130_000


def ref_extremal(n, pattern, edges):
    """(value, witness edges, nodes) of the branch-and-bound over the edges in
    the given order, with closing lists and the packing bound but no symmetry
    breaking and no known value: in canonical order, the reference whose value
    and witness the solver must reproduce."""
    masks = _masks(_placements(n, pattern), edges)
    closing = [[] for _ in edges]
    for m in masks:
        top = m.bit_length() - 1
        closing[top].append(m ^ (1 << top))
    total = len(edges)
    best, best_mask, nodes = -1, 0, 0

    def rec(i, cur, count, live):
        nonlocal best, best_mask, nodes
        nodes += 1
        undecided = total - i
        if count + undecided <= best:
            return
        if i == total:
            best, best_mask = count, cur
            return
        used = packed = 0
        for m in live:
            r = m >> i
            if not r & used:
                used |= r
                packed += 1
        if count + undecided - packed <= best:
            return
        bit = 1 << i
        if not any(r & cur == r for r in closing[i]):
            rec(i + 1, cur | bit, count + 1, live)
        rec(i + 1, cur, count, [m for m in live if not m & bit])

    rec(0, 0, 0, masks)
    return best, tuple(sorted(edges[i] for i in range(total) if best_mask >> i & 1)), nodes


def _assert_matches_reference(n, pattern):
    """Value and witness equal the unpruned canonical search. Each run
    visits no more nodes than the unpruned search in its own order: the proof
    prunes by symmetry, the witness run by the known value. The proof is not
    bounded by the canonical search (ordered (1,2),(1,3),(3,4) at n = 7: 177
    against 87 nodes), so r.nodes is not compared with it."""
    r = extremal_number(n, pattern)
    value, witness, nodes = ref_extremal(n, pattern, _canonical_edges(n))
    assert (r.value, r.witness.edges) == (value, witness), (n, pattern)
    placements = _placements(n, pattern)
    edges = _proof_edges(n, placements)
    proof = _search(n, pattern, placements, edges, -1, False)
    found = _search(n, pattern, placements, _canonical_edges(n), value - 1, True)
    assert (proof[0], found[0], found[1]) == (value, value, list(witness)), (n, pattern)
    assert proof[2] + found[2] == r.nodes
    assert proof[2] <= ref_extremal(n, pattern, edges)[2], (n, pattern)
    assert found[2] <= nodes, (n, pattern, found[2], nodes)


def _image(mask, img, edges, index):
    out = 0
    for e, (a, b) in enumerate(edges):
        if mask >> e & 1:
            out |= 1 << index[(min(img[a], img[b]), max(img[a], img[b]))]
    return out


class TestSymmetryBreaking:
    """Lex-leader pruning keeps the include-first DFS's witness: it is the
    lexicographically largest optimum, so the leader of its orbit."""

    @pytest.mark.parametrize("mode", ["linear", "cyclic"])
    def test_trees_match_the_unpruned_search(self, mode):
        for k in (1, 2, 3):
            for t in enumerate_trees(k, mode):
                for n in range(t.n, 8):
                    _assert_matches_reference(n, t)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_arbitrary_patterns_match_the_unpruned_search(self, data):
        """Any edge set, isolated vertices included; ordered sets are often
        closed under the mirror so that the mirror is kept."""
        cls = data.draw(st.sampled_from([OrderedGraph, CgGraph]))
        p = data.draw(st.integers(min_value=2, max_value=5))
        pairs = list(itertools.combinations(range(1, p + 1), 2))
        chosen = set(data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5,
                                        unique=True)))
        if cls is OrderedGraph and data.draw(st.booleans()):
            chosen |= set(mirror(OrderedGraph(p, chosen)).edges)
        n = data.draw(st.integers(min_value=p, max_value=7))
        _assert_matches_reference(n, cls(p, chosen))

    @pytest.mark.parametrize("cls", [OrderedGraph, CgGraph])
    def test_kept_relabellings_are_exactly_the_placement_symmetries(self, cls):
        """A kept relabelling that moved a placement off the placement set
        would change values silently. Of the mirror (ordered) or the dihedral
        group (cg), exactly those that fix the set are kept."""
        for p in (2, 3, 4):
            pairs = list(itertools.combinations(range(1, p + 1), 2))
            for r in range(1, len(pairs) + 1):
                for chosen in itertools.combinations(pairs, r):
                    pattern = cls(p, chosen)
                    for n in range(p, 8):
                        self._check_group(n, pattern)

    @staticmethod
    def _check_group(n, pattern):
        edges = _canonical_edges(n)
        index = {e: i for i, e in enumerate(edges)}
        masks = set(_masks(_placements(n, pattern), edges))
        kept = _relabellings(n, pattern)
        flip = [0] + list(range(n, 0, -1))
        if pattern.mode == "cg":
            turns = [[0] + [(v + s) % n + 1 for v in range(n)] for s in range(n)]
            flips = [[t[v] for v in flip] for t in turns]
            symmetric = any(rotate(pattern, s) == reflect(pattern) for s in range(pattern.n))
            assert all(t in kept for t in turns[1:])
            assert all((f in kept) == symmetric for f in flips)
            candidates = turns[1:] + flips
        else:
            candidates = [flip]
        assert all(img in candidates for img in kept)
        for img in candidates:
            fixed = {_image(m, img, edges, index) for m in masks} == masks
            assert fixed == (img in kept), (n, pattern, img)

    def test_rotation_node_guard(self):
        """Without symmetry breaking this cg solve needs 19,734 nodes."""
        assert extremal_number(7, CgGraph(4, [(1, 2), (1, 3), (3, 4)])).nodes < 10_000


class TestEdgeListsOnly:
    """The symmetry list, the reflected containment pass and the dense
    embedding plan read relabelled edge lists only: they build no transform
    graph, so they scan no interval or cyclic split and leave none behind."""

    @staticmethod
    def _no_split(monkeypatch, run):
        scans = []
        split_scan = order._split_scan
        monkeypatch.setattr(order, "_split_scan", lambda *a: scans.append(a) or split_scan(*a))
        g = run()
        assert scans == []
        assert not [key for key in g._adj_cache
                    if key in ("interval", "cyclic") or key[0] == "chi"], g._adj_cache

    @pytest.mark.parametrize("pattern", [P, OrderedGraph(3, [(1, 2), (2, 3)]),
                                         CgGraph(4, [(1, 3), (2, 4), (3, 4)]),
                                         CgGraph(4, [(1, 2), (2, 3), (3, 4)])])
    def test_relabellings(self, monkeypatch, pattern):
        def run():
            g = type(pattern)(pattern.n, pattern.edges)
            _relabellings(6, g)
            return g
        self._no_split(monkeypatch, run)

    def test_reflected_containment(self, monkeypatch):
        host = CgGraph(6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)])

        def run():
            pattern = CgGraph(4, [(1, 3), (2, 4), (3, 4)])
            # C(6, 4) vertex sets, each read from 4 starts in both directions
            assert len(list(iter_embeddings(host, pattern, allow_reflection=True))) == 15 * 8
            return pattern
        self._no_split(monkeypatch, run)

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_embed_dense_plan(self, monkeypatch, cyclic):
        """A fan on the left only (c = 0 < b) takes the mirror step."""
        tree = OrderedGraph(4, [(1, 4), (2, 4), (3, 4)])
        dec = z_decompose(tree)
        assert dec.c == 0 < dec.b
        if cyclic:
            dec = CgZDecomposition(0, dec)
        host = (CgGraph if cyclic else OrderedGraph)(8, _canonical_edges(8))

        def run():
            _plan.cache_clear()
            assert embed_dense(host, dec) is not None
            return _plan(dec)[0]
        self._no_split(monkeypatch, run)


class TestStructuralBounds:
    def test_monotone_in_n(self):
        values = [extremal_number(n, Z3).value for n in range(4, 8)]
        assert values == sorted(values)
        assert all(b - a >= 1 for a, b in zip(values, values[1:]))

    def test_cyclic_never_exceeds_linear_formula(self):
        """Cg z-trees stay at or under (k-1)n - C(k,2), the bound embed_dense
        constructs above; the exact values reach it at k = 3."""
        for k in (2, 3):
            for t in enumerate_trees(k, "cyclic", "chi2"):
                if not is_cg_z_tree(t):
                    continue
                for n in range(t.n, 7):
                    assert extremal_number(n, t).value <= LinearFormula(k).value(n)
        tight = CgGraph(4, [(1, 3), (2, 4), (3, 4)])
        assert is_cg_z_tree(tight)
        assert extremal_number(6, tight).value == LinearFormula(3).value(6) == 9

    def test_double_star_cyclic_at_most_linear(self):
        lin = OrderedGraph(3, [(1, 3), (2, 3)])
        cyc = CgGraph(3, [(1, 3), (2, 3)])
        for n in range(4, 8):
            assert extremal_number(n, cyc).value <= extremal_number(n, lin).value

    def test_fewer_pattern_edges_is_harder_to_avoid(self):
        sub = OrderedGraph(4, [(1, 3), (2, 3)])
        for n in (4, 5, 6):
            assert extremal_number(n, sub).value <= extremal_number(n, Z3).value


class TestRefusalsAndValidation:
    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            extremal_number(SOLVER_MAX_N + 1, Z3)

    def test_tiny_hosts_rejected(self):
        with pytest.raises(InputError):
            extremal_number(1, Z3)

    @pytest.mark.parametrize("n", [True, 5.0, "5"])
    def test_non_int_n_rejected(self, n):
        with pytest.raises(InputError, match="must be an integer"):
            extremal_number(n, Z3)

    def test_pattern_larger_than_host(self):
        with pytest.raises(InputError):
            extremal_number(3, Z3)

    def test_empty_pattern_rejected(self):
        with pytest.raises(InputError):
            extremal_number(4, OrderedGraph(3, []))

    def test_oracle_rejects_empty_pattern(self):
        with pytest.raises(InputError):
            oracle_extremal_number(3, OrderedGraph(2, []))

    def test_result_metadata(self):
        r = extremal_number(5, Z3)
        assert r.nodes > 0 and r.seconds >= 0
        d = r.as_dict()
        assert d["value"] == 7 and d["mode"] == "ordered"


class TestSelfCheck:
    """_check_result rejects a result that its witness does not back."""

    def test_wrong_edge_count_rejected(self):
        r = extremal_number(5, Z3)
        with pytest.raises(AssertionError, match="edge count"):
            _check_result(dataclasses.replace(r, value=r.value + 1))

    def test_witness_containing_the_pattern_rejected(self):
        r = extremal_number(5, Z3)
        k5 = OrderedGraph(5, list(itertools.combinations(range(1, 6), 2)))
        with pytest.raises(AssertionError, match="contains the pattern"):
            _check_result(dataclasses.replace(r, witness=k5, value=len(k5.edges)))
