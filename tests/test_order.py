"""Graph types: validation, crossings, interval/cyclic chromatic numbers,
and the label symmetries (mirror, rotate, reflect)."""

import pytest
from hypothesis import given, strategies as st

from xtrees.errors import InputError
from xtrees.order import (
    CgGraph,
    OrderedGraph,
    arc_side,
    chi_cyclic,
    chi_interval,
    crosses,
    mirror,
    reflect,
    rotate,
)


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

    def test_arc_side_of_chord(self):
        assert arc_side(6, (1, 4), 2) != arc_side(6, (1, 4), 5)
        with pytest.raises(InputError):
            arc_side(6, (1, 4), 4)


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


class TestStructure:
    def test_is_tree(self):
        assert OrderedGraph(3, [(1, 2), (2, 3)]).is_tree()
        assert not OrderedGraph(3, [(1, 2)]).is_tree()  # disconnected
        assert not OrderedGraph(3, [(1, 2), (1, 3), (2, 3)]).is_tree()

    def test_adjacency_masks_are_zero_based(self):
        g = OrderedGraph(3, [(1, 3)])
        masks = g.adjacency_masks()
        assert masks[0] == 1 << 2 and masks[2] == 1 << 0 and masks[1] == 0

    def test_neighbors_sorted(self):
        g = OrderedGraph(5, [(2, 5), (1, 2), (2, 3)])
        assert g.neighbors(2) == [1, 3, 5]
        assert g.degree(2) == 3
