"""Graph types: validation, crossings, interval/cyclic chromatic numbers,
and the label symmetries (mirror, rotate, reflect)."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from xtrees import order
from xtrees.errors import InputError
from xtrees.order import (
    CgGraph,
    OrderedGraph,
    _linear_edges,
    chi_cyclic,
    chi_interval,
    crosses,
    cyclic_split,
    interval_split,
    mirror,
    reflect,
    rotate,
)
from xtrees.trees import cg_z_decompose, enumerate_trees, linearize


def _edges(draw_n):
    """Strategy: a set of edges on [draw_n] as sorted pairs."""
    pairs = [(u, v) for u in range(1, draw_n + 1) for v in range(u + 1, draw_n + 1)]
    return st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))


small_graphs = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: _edges(n).map(lambda es: OrderedGraph(n, es))
)
small_cg_graphs = st.integers(min_value=3, max_value=7).flatmap(
    lambda n: _edges(n).map(lambda es: CgGraph(n, es))
)


@st.composite
def colored_graphs(draw):
    """Either mode, n <= 8, with colours on about half of the draws."""
    cls = draw(st.sampled_from([OrderedGraph, CgGraph]))
    n = draw(st.integers(min_value=1, max_value=8))
    es = draw(_edges(n)) if n > 1 else []
    colors = None
    if draw(st.booleans()):
        colors = draw(st.lists(st.integers(1, 4), min_size=len(es), max_size=len(es)))
    return cls(n, es, colors=colors)


def drawn_graph(cls, n, density, rng):
    """A spanning tree under a drawn labelling (density None), or each pair
    of 1..n an edge with probability density."""
    if density is None:
        label = rng.sample(range(1, n + 1), n)
        return cls(n, [(label[rng.randrange(i)], label[i]) for i in range(1, n)])
    return cls(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < density])


class TestValidation:
    def test_loops_rejected(self):
        with pytest.raises(InputError):
            OrderedGraph(3, [(2, 2)])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(InputError):
            OrderedGraph(3, [(1, 2), (2, 1)])

    def test_out_of_range_vertex(self):
        with pytest.raises(InputError):
            CgGraph(3, [(1, 4)])

    def test_edges_normalised_and_sorted(self):
        g = OrderedGraph(4, [(4, 2), (3, 1)])
        assert g.edges == ((1, 3), (2, 4))

    def test_color_count_must_match(self):
        with pytest.raises(InputError):
            OrderedGraph(3, [(1, 2)], colors=[1, 2])

    def test_colors_follow_edges_after_sorting(self):
        g = CgGraph(4, [(3, 4), (1, 2)], colors=[7, 5])
        assert g.edges == ((1, 2), (3, 4))
        assert g.colors == (5, 7)

    def test_small_edges_are_shared(self):
        a = OrderedGraph(3, [(2, 1)])
        b = CgGraph(70, [(1, 2), (69, 70)])
        assert a.edges[0] is b.edges[0] == (1, 2)
        assert b.edges[1] == (69, 70)

    @pytest.mark.parametrize("cls", [OrderedGraph, CgGraph])
    @pytest.mark.parametrize("n", [3.7, 3.0, True, False, "3", None])
    def test_vertex_count_must_be_an_int(self, cls, n):
        with pytest.raises(InputError, match="vertex count"):
            cls(n, [(1, 2)])


class TestStrictInputs:
    """Endpoints and colors must be ints: bools, floats and strings are
    rejected rather than coerced."""

    non_ints = st.one_of(st.booleans(), st.floats(), st.text(), st.none())

    @given(non_ints, st.integers(min_value=1, max_value=4), st.booleans())
    def test_non_integer_endpoint_rejected(self, bad, good, first):
        with pytest.raises(InputError):
            OrderedGraph(4, [(bad, good) if first else (good, bad)])

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9))
    def test_string_edge_rejected(self, u, v):
        with pytest.raises(InputError):
            CgGraph(9, [f"{u}{v}"])

    @given(st.floats(min_value=1, max_value=4), st.floats(min_value=1, max_value=4))
    def test_float_edge_rejected(self, u, v):
        with pytest.raises(InputError):
            OrderedGraph(4, [(u, v)])

    @given(non_ints)
    def test_non_integer_color_rejected(self, bad):
        with pytest.raises(InputError):
            CgGraph(4, [(1, 2), (3, 4)], colors=[1, bad])


class TestCrossing:
    def test_linear_interleaved(self):
        g = OrderedGraph(4, [(1, 3), (2, 4)])
        assert crosses(g, (1, 3), (2, 4))

    def test_linear_nested_do_not_cross(self):
        g = OrderedGraph(4, [(1, 4), (2, 3)])
        assert not crosses(g, (1, 4), (2, 3))

    def test_shared_endpoint_never_crosses(self):
        g = OrderedGraph(3, [(1, 2), (1, 3)])
        assert not crosses(g, (1, 2), (1, 3))

    def test_cyclic_wraparound_crossing(self):
        # chords 2-5 and 1-4 interleave on the circle
        g = CgGraph(6, [(2, 5), (1, 4)])
        assert crosses(g, (2, 5), (1, 4))

    def test_cyclic_same_arc_no_crossing(self):
        g = CgGraph(6, [(1, 2), (3, 4)])
        assert not crosses(g, (1, 2), (3, 4))


class TestChromatic:
    @pytest.mark.parametrize(
        "edges,chi",
        [
            ([(1, 3), (2, 3)], 2),
            ([(1, 2), (2, 3)], 3),
            ([], 1),
        ],
    )
    def test_interval_values(self, edges, chi):
        assert chi_interval(OrderedGraph(3, edges)) == chi

    def test_cyclic_path_needs_three_arcs(self):
        """The 3-edge cg path on consecutive positions has no 2-arc split."""
        assert chi_cyclic(CgGraph(4, [(1, 2), (2, 3), (3, 4)])) == 3

    def test_cyclic_can_beat_interval(self):
        # an edge from each end of the line: cyclically one cut suffices
        g = CgGraph(4, [(1, 4), (2, 4)])
        assert chi_cyclic(g) == 2

    def test_complete_bipartite_arcs(self):
        g = CgGraph(6, [(x, y) for x in (1, 2, 3) for y in (4, 5, 6)])
        assert chi_cyclic(g) == 2


class TestTransforms:
    @given(small_graphs)
    def test_mirror_is_an_involution(self, g):
        assert mirror(mirror(g)).edges == g.edges

    @given(small_cg_graphs, st.integers(min_value=0, max_value=13))
    def test_rotations_compose_mod_n(self, g, r):
        assert rotate(g, r).edges == rotate(rotate(g, r % g.n), g.n).edges

    @given(small_cg_graphs)
    def test_reflect_is_an_involution(self, g):
        assert reflect(reflect(g)).edges == g.edges

    @given(small_cg_graphs)
    def test_rotation_preserves_crossing_count(self, g):
        def count(h):
            es = h.edges
            return sum(
                crosses(h, es[i], es[j])
                for i in range(len(es))
                for j in range(i + 1, len(es))
            )

        assert count(rotate(g, 1)) == count(g)

    def test_mirror_of_ordered_graph(self):
        g = OrderedGraph(4, [(1, 3), (1, 4), (2, 4)])
        assert mirror(g).edges == ((1, 3), (1, 4), (2, 4))  # self-mirror pattern

    def test_mirror_asymmetric_example(self):
        g = OrderedGraph(3, [(1, 2)])
        assert mirror(g).edges == ((2, 3),)

    def test_rotate_rejects_ordered(self):
        with pytest.raises(InputError):
            rotate(OrderedGraph(3, [(1, 2)]), 1)

    @pytest.mark.parametrize("r", [1.5, 1.0, True, "1", None])
    def test_shift_must_be_an_int(self, r):
        t = CgGraph(4, [(1, 2), (2, 4), (3, 4)])
        with pytest.raises(InputError, match="rotation"):
            rotate(t, r)
        with pytest.raises(InputError, match="rotation"):
            linearize(t, r)

    @pytest.mark.parametrize(
        "perm",
        [
            {1: 2, 2: 1},  # partial
            {1: 1, 2: 1, 3: 3},  # not one-to-one
            {1: 2, 2: 3, 3: 4},  # leaves 1..n
            {1: 2.0, 2: 1.0, 3: 3.0},  # float labels
            {1: True, 2: 2, 3: 3},
            {1: 1, 2: 2, 3: 3, 4: 4},  # too long
        ],
    )
    def test_relabeling_must_be_a_permutation(self, perm):
        g = OrderedGraph(3, [(1, 2), (2, 3)])
        with pytest.raises(InputError, match="not a permutation of 1..3"):
            g.relabeled(perm)

    def test_relabeling_moves_colors(self):
        g = CgGraph(3, [(1, 2), (2, 3)], colors=[5, 6])
        h = g.relabeled({1: 3, 2: 2, 3: 1})
        assert h.edges == ((1, 2), (2, 3)) and h.colors == (6, 5)


class TestStructure:
    def test_is_tree(self):
        assert OrderedGraph(3, [(1, 2), (2, 3)]).is_tree()
        assert not OrderedGraph(3, [(1, 2)]).is_tree()  # disconnected
        assert not OrderedGraph(3, [(1, 2), (1, 3), (2, 3)]).is_tree()
        assert not OrderedGraph(4, [(1, 2), (1, 3), (2, 3)]).is_tree()  # n - 1 edges, a cycle

    def test_edgeless_graph_is_truthy(self):
        """A graph is a value, not a container: no edges does not make it false."""
        assert OrderedGraph(3, []) and CgGraph(1, [])

    def test_adjacency_masks_are_zero_based(self):
        g = OrderedGraph(3, [(1, 3)])
        masks = g.adjacency_masks()
        assert masks[0] == 1 << 2 and masks[2] == 1 << 0 and masks[1] == 0

    def test_neighbors_sorted(self):
        g = OrderedGraph(5, [(2, 5), (1, 2), (2, 3)])
        assert g.neighbors(2) == [1, 3, 5]
        assert g.degree(2) == 3

    @pytest.mark.parametrize("v", [0, 7, -1, True, 2.0, "2", None])
    def test_vertex_queries_reject_non_vertices(self, v):
        g = OrderedGraph(3, [(1, 2), (2, 3)])
        with pytest.raises(InputError):
            g.degree(v)
        with pytest.raises(InputError):
            g.neighbors(v)


# -- reference versions: every derived graph built and validated by the
# public constructor, and the interval DP as a table. The arithmetic paths
# in xtrees.order must agree with them exactly.


def ref_relabeled(g, perm):
    new_edges = [(perm[u], perm[v]) for u, v in g.edges]
    if g.colors is None:
        return type(g)(g.n, new_edges)
    return type(g)(g.n, new_edges, colors=g.colors)


def ref_mirror(g):
    return ref_relabeled(g, {v: g.n + 1 - v for v in range(1, g.n + 1)})


def ref_rotate(g, r):
    return ref_relabeled(g, {v: ((v - 1 + r) % g.n) + 1 for v in range(1, g.n + 1)})


def ref_interval_bounds(g):
    return ref_line_bounds(g.n, g.edges)


def ref_line_bounds(n, edges):
    """The split of 1..n from its right end: the widest part ending at e
    starts just after the farthest-left neighbour of e or of a vertex
    before it in the part, back[e]."""
    reach = [0] * (n + 1)  # reach[b]: the left end of the longest edge ending at b
    for u, v in edges:
        a, b = (u, v) if u < v else (v, u)
        reach[b] = max(reach[b], a)
    back = [0] * (n + 1)
    for e in range(1, n + 1):
        back[e] = max(back[e - 1], reach[e])
    bounds = []
    e = n
    while e > 0:
        bounds.append(e)
        e = back[e]
    return tuple(reversed(bounds))


def ref_cyclic_bounds(g):
    """The fewest-parts split of the first of all n cuts that reaches the
    fewest parts: rotation r puts cut r at the end of the line."""
    if not g.edges:
        return (g.n,)
    best = None
    for r in range(g.n):
        split = ref_line_bounds(g.n, [((u - 1 + r) % g.n + 1, (v - 1 + r) % g.n + 1)
                                      for u, v in g.edges])
        if best is None or len(split) < len(best):
            best = tuple(sorted(((b - 1 - r) % g.n) + 1 for b in split))
            if len(split) == 2:
                break
    return best


def ref_linearize(t, r):
    rotated = ref_rotate(t, r)
    n = t.n
    return OrderedGraph(n, [(n + 1 - b, n + 1 - a) for a, b in rotated.edges])


def assert_same_graph(fast, ref):
    assert type(fast) is type(ref)
    assert fast == ref
    assert hash(fast) == hash(ref)
    assert repr(fast) == repr(ref)


def check_against_references(g):
    assert_same_graph(mirror(g), ref_mirror(g))
    assert interval_split(g) == ref_interval_bounds(g)
    assert chi_interval(g) == len(ref_interval_bounds(g))
    if g.mode != "cg":
        return
    assert_same_graph(reflect(g), ref_mirror(g))
    split = cyclic_split(g)
    assert split == ref_cyclic_bounds(g)
    assert chi_cyclic(g) == len(split)
    for r in range(-1, g.n + 2):
        assert_same_graph(rotate(g, r), ref_rotate(g, r))
        assert_same_graph(linearize(g, r), ref_linearize(g, r))


class TestArithmeticTransforms:
    """Transforms and chi computed by label arithmetic equal the
    construct-and-validate references, on every tree with <= 5 edges, on
    drawn graphs with and without colours, on drawn cg graphs up to 12
    vertices and on complete and empty graphs; the splits also on drawn
    graphs of 13..80 vertices."""

    @pytest.mark.parametrize("mode", ["linear", "cyclic"])
    def test_every_small_tree(self, mode):
        for k in range(1, 6):
            for t in enumerate_trees(k, mode):
                check_against_references(t)

    @given(st.integers(min_value=1, max_value=12).flatmap(
        lambda n: (_edges(n) if n > 1 else st.just([])).map(lambda es: CgGraph(n, es))
    ))
    def test_drawn_cg_graphs_up_to_12(self, g):
        check_against_references(g)

    @pytest.mark.parametrize("cls", [OrderedGraph, CgGraph])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_complete_and_empty(self, cls, n):
        check_against_references(cls(n, combinations(range(1, n + 1), 2)))
        check_against_references(cls(n, []))

    @pytest.mark.parametrize("cls", [OrderedGraph, CgGraph])
    @pytest.mark.parametrize("n", [13, 31, 64, 65, 80])
    def test_splits_of_drawn_graphs_on_13_to_80_vertices(self, cls, n):
        # from 65 vertices on the adjacency masks are wider than 64 bits
        rng = random.Random(n)
        for density in (None, None, 2 / n, 4 / n, 0.1, 0.5, 0.9):
            g = drawn_graph(cls, n, density, rng)
            assert interval_split(g) == ref_interval_bounds(g)
            if g.mode == "cg":
                assert cyclic_split(g) == ref_cyclic_bounds(g)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_linearization_is_its_own_inverse(self, k):
        for t in enumerate_trees(k, "cyclic"):
            for r in range(-1, t.n + 2):
                assert _linear_edges(t.n, linearize(t, r).edges, r) == t.edges

    def test_linear_edges_match_the_modular_formula(self):
        """The image built from two ranges equals v -> n - (v-1+r) mod n,
        applied and then normalised in two steps, for every r, negative
        ones included, on a spanning path and a complete graph per n."""
        def modular(n, edges, r):
            img = [0] + [n - (v + r) % n for v in range(n)]
            mapped = [(img[u], img[v]) for u, v in edges]
            return tuple(sorted((min(e), max(e)) for e in mapped))

        for n in range(1, 10):
            path = [(v, v + 1) for v in range(1, n)]
            for edges in (path, list(combinations(range(1, n + 1), 2))):
                for r in range(-2 * n, 2 * n):
                    assert _linear_edges(n, edges, r) == modular(n, edges, r), (n, edges, r)
        t = CgGraph(5, [(1, 2), (1, 3), (3, 4), (4, 5)])
        for r in (-7, -2, -1):
            assert linearize(t, r).edges == modular(5, t.edges, r)

    @given(colored_graphs())
    def test_drawn_graphs(self, g):
        check_against_references(g)
        perm = {v: ((3 * v) % g.n) + 1 for v in range(1, g.n + 1)}
        if len(set(perm.values())) == g.n:
            assert_same_graph(g.relabeled(perm), ref_relabeled(g, perm))

    @given(colored_graphs())
    def test_trusted_equals_validated(self, g):
        fast = type(g)._trusted(g.n, g.edges, g.colors)
        assert_same_graph(fast, type(g)(g.n, list(g.edges), colors=g.colors))

    @given(colored_graphs(), st.integers(min_value=0, max_value=9))
    def test_cached_accessors_match_a_scan(self, g, v):
        assert g.edge_set == frozenset(g.edges)
        if not 1 <= v <= g.n:
            with pytest.raises(InputError):
                g.neighbors(v)
            with pytest.raises(InputError):
                g.degree(v)
            return
        assert g.neighbors(v) == sorted(w for e in g.edges for w in e if v in e and w != v)
        assert g.degree(v) == sum(1 for e in g.edges if v in e)
        g.neighbors(v).append(99)  # callers get a copy
        assert 99 not in g.neighbors(v)


def test_derived_graphs_skip_validation(monkeypatch):
    """Graphs derived from a built tree are not validated again."""
    trees = list(enumerate_trees(4, "cyclic", "chi2"))
    calls = []
    check = order._check_edges

    def counting(n, edges):
        calls.append(n)
        return check(n, edges)

    monkeypatch.setattr(order, "_check_edges", counting)
    for t in trees:
        chi_cyclic(t)
        cg_z_decompose(t)
        rotate(t, 2)
        mirror(t)
        reflect(t)
    assert calls == []


@st.composite
def trees_and_graphs(draw):
    """Either mode, n <= 8, with colours on some draws: a tree (parent
    pointers under a drawn labelling) on about half the draws, any edge set
    on the rest."""
    cls = draw(st.sampled_from([OrderedGraph, CgGraph]))
    n = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        label = draw(st.permutations(range(1, n + 1)))
        es = [(label[v], label[draw(st.integers(0, v - 1))]) for v in range(1, n)]
    else:
        es = draw(_edges(n)) if n > 1 else []
    colors = None
    if draw(st.booleans()):
        colors = draw(st.lists(st.integers(1, 4), min_size=len(es), max_size=len(es)))
    return cls(n, es, colors=colors)


@st.composite
def dense_or_sparse_cg_graphs(draw, min_n, max_n):
    """A cg graph on min_n..max_n vertices: each pair an edge or not, or a
    short drawn edge list."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return CgGraph(n, [e for e, k in zip(pairs, keep) if k])
    return CgGraph(n, draw(_edges(n)))


class TestCyclicCuts:
    """chi_cyclic and cyclic_split try only the cuts inside cut 0's last
    part or just before it; the reference tries every cut."""

    @staticmethod
    def check(g):
        split = ref_cyclic_bounds(g)
        assert chi_cyclic(g) == len(split), g.edges
        assert cyclic_split(g) == split, g.edges

    def test_every_cg_graph_up_to_6_vertices(self):
        graphs = 0
        for n in range(1, 7):
            pairs = list(combinations(range(1, n + 1), 2))
            for mask in range(1 << len(pairs)):
                self.check(CgGraph(n, [e for x, e in enumerate(pairs) if mask >> x & 1]))
                graphs += 1
        assert graphs == 33867

    @settings(max_examples=400, deadline=None)
    @given(dense_or_sparse_cg_graphs(7, 12))
    def test_drawn_cg_graphs_on_7_to_12_vertices(self, g):
        self.check(g)


class TestTreeFlag:
    """A transform hands a known tree test on to its result; the answer must
    be the one a fresh test gives."""

    @given(trees_and_graphs(), st.booleans(), st.integers(min_value=-1, max_value=9), st.data())
    def test_transforms(self, g, known, r, data):
        if known:
            g.is_tree()
        perm = dict(zip(range(1, g.n + 1), data.draw(st.permutations(range(1, g.n + 1)))))
        derived = [mirror(g), g.relabeled(perm)]
        if g.mode == "cg":
            derived += [rotate(g, r), reflect(g)]
        for h in derived:
            assert h.is_tree() == order._is_spanning_tree(h.n, h.edges)
        assert g.is_tree() == order._is_spanning_tree(g.n, g.edges)

    @pytest.mark.parametrize("mode", ["linear", "cyclic"])
    def test_every_enumerated_tree(self, mode):
        for k in range(1, 7):
            for t in enumerate_trees(k, mode):
                assert order._is_spanning_tree(t.n, t.edges)
                derived = [t, mirror(t)] + ([rotate(t, 1)] if mode == "cyclic" else [])
                assert all(h.is_tree() for h in derived), t.edges


def _own_split(g):
    return cyclic_split(g) if g.mode == "cg" else interval_split(g)


def _symmetries(g):
    """mirror, and on the circle reflect and the rotations r = -1..n+1."""
    out = [("mirror", mirror(g))]
    if g.mode == "cg":
        out.append(("reflect", reflect(g)))
        out += [(f"rotate by {r}", rotate(g, r)) for r in range(-1, g.n + 2)]
    return out


def assert_carried_as_fresh(g):
    """Every symmetry of g carries its split in g's own order, or its chi
    alone, exactly as a fresh scan of a copy with nothing kept finds them."""
    known_tree = g._adj_cache.get("tree", False)
    key = "cyclic" if g.mode == "cg" else "interval"
    chi = chi_cyclic if g.mode == "cg" else chi_interval
    for how, u in _symmetries(g):
        mapped = known_tree and len(_own_split(g)) == 2
        assert (key in u._adj_cache) == mapped, (g.edges, how)
        assert (("chi", key) in u._adj_cache) != mapped, (g.edges, how)
        copy = type(u)._trusted(u.n, u.edges, u.colors)
        assert chi(u) == chi(copy), (g.edges, how)
        if mapped:
            assert u._adj_cache[key] == _own_split(copy), (g.edges, how)


class TestCarriedSplits:
    """mirror, rotate and reflect hand the split in the graph's own order on
    to their result: mapped when it is unique (a known tree with two parts),
    as chi alone otherwise. relabeled hands on neither."""

    @pytest.mark.parametrize("mode", ["linear", "cyclic"])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_every_tree_up_to_six_edges(self, mode, k):
        for t in enumerate_trees(k, mode):
            assert_carried_as_fresh(t)

    @given(trees_and_graphs(), st.booleans())
    def test_drawn_graphs(self, g, known):
        if known:
            g.is_tree()
        assert_carried_as_fresh(g)

    @pytest.mark.parametrize("cls", [OrderedGraph, CgGraph])
    def test_transform_of_a_transform(self, cls):
        for t in enumerate_trees(5, cls.order):
            for _, u in _symmetries(t)[:2]:
                assert_carried_as_fresh(u)

    def test_parent_split_is_computed_once_and_kept(self, monkeypatch):
        scans = []
        scan = order._split_scan

        def counting(adj, cut, most):
            scans.append(cut)
            return scan(adj, cut, most)

        monkeypatch.setattr(order, "_split_scan", counting)
        t = CgGraph(5, [(1, 3), (1, 4), (2, 4), (2, 5)])
        assert t.is_tree()
        moved = [mirror(t), reflect(t)] + [rotate(t, r) for r in range(5)]
        assert t._adj_cache["cyclic"] == cyclic_split(t)
        assert [chi_cyclic(u) for u in moved] == [2] * 7
        assert [cg_z_decompose(u) is not None for u in moved] == [True] * 7
        assert scans == [0]

    def test_chi_above_two_is_carried_without_a_scan(self, monkeypatch):
        t = CgGraph(5, [(1, 2), (1, 3), (3, 4), (4, 5)])
        assert t.is_tree() and chi_cyclic(t) == 3
        moved = [reflect(t), rotate(t, 2)]
        monkeypatch.setattr(order, "_split_scan", None)
        assert [chi_cyclic(u) for u in moved] == [3, 3]

    def test_relabeled_carries_no_split(self):
        t = CgGraph(4, [(1, 3), (2, 3), (2, 4)])
        assert t.is_tree() and chi_cyclic(t) == 2 and chi_interval(t) == 2
        u = t.relabeled({1: 1, 2: 3, 3: 2, 4: 4})  # the path 1-2-3-4
        assert u._adj_cache == {"tree": True}
        assert chi_cyclic(u) == 3
