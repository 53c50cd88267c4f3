"""Tree structure: z-decompositions (both orders), forbidden configurations,
the obstruction catalog, enumeration and classification."""

import pytest

from xtrees.errors import BudgetError, InputError
from xtrees.order import CgGraph, OrderedGraph, chi_interval, mirror
from xtrees.trees import (
    CROSSING_P3_EDGES,
    LinearFormula,
    ZDecomposition,
    cg_z_decompose,
    classify_tree,
    derive_obstructions,
    detect_crossing_path4,
    detect_twin_crossing_paths,
    enumerate_trees,
    is_cg_z_tree,
    is_z_tree,
    is_zigzag,
    linearize,
    validate_decomposition,
    z_decompose,
)


class TestZDecompose:
    def test_crossing_fans_found(self):
        t = OrderedGraph(4, [(1, 3), (2, 3), (2, 4)])
        dec = z_decompose(t)
        assert dec
        assert dec.hub == (2, 3)
        assert dec.counts == (1, 1, 1)
        assert validate_decomposition(t, dec)

    def test_increasing_chain_is_a_z_tree(self):
        t = OrderedGraph(4, [(2, 3), (2, 4), (1, 4)])
        dec = z_decompose(t)
        assert dec and dec.b * dec.c == 0

    def test_pinned_non_z_tree(self):
        """The 3-edge pattern with edges 13, 14, 24 has no decomposition."""
        t = OrderedGraph(4, CROSSING_P3_EDGES)
        dec = z_decompose(t)
        assert not dec
        assert dec.reason

    def test_short_path_is_not_a_z_tree(self):
        # two unit edges: no strictly increasing chain, no crossing to fan out
        assert not is_z_tree(OrderedGraph(3, [(1, 2), (2, 3)]))

    def test_decomposed_edges_partition_the_tree(self):
        t = OrderedGraph(6, [(1, 4), (2, 4), (3, 4), (3, 5), (3, 6)])
        dec = z_decompose(t)
        assert dec
        assert sorted(dec.edges()) == sorted(t.edges)

    def test_non_tree_rejected(self):
        with pytest.raises(InputError):
            z_decompose(OrderedGraph(3, [(1, 2), (1, 3), (2, 3)]))

    def test_star_hub_choice_is_stable(self):
        """Pure one-sided stars admit several hubs; the minimal-core rule
        picks one deterministically and the result must validate."""
        t = OrderedGraph(4, [(1, 4), (2, 4), (3, 4)])
        dec = z_decompose(t)
        assert dec and dec.a == 1
        assert validate_decomposition(t, dec)

    def test_hub_forced_by_crossing(self):
        # (1,4) x (2,5) cross, pinning the hub to (2,4)
        t = OrderedGraph(5, [(1, 4), (2, 4), (2, 5), (3, 4)])
        dec = z_decompose(t)
        assert dec and dec.hub == (2, 4)
        assert validate_decomposition(t, dec)


class TestCgDecompose:
    def test_rotation_is_searched(self):
        t = CgGraph(4, [(1, 2), (1, 3), (1, 4)])
        dec = cg_z_decompose(t)
        assert dec
        assert 0 <= dec.rotation < 4

    def test_linearize_reverses_labels(self):
        t = CgGraph(4, [(1, 2), (2, 4)])
        lin = linearize(t, 0)
        assert isinstance(lin, OrderedGraph)
        assert lin.edges == ((1, 3), (3, 4))

    def test_cg_path_with_high_chi_fails(self):
        assert not is_cg_z_tree(CgGraph(4, [(1, 2), (2, 3), (3, 4)]))

    def test_crossing_double_star(self):
        assert is_cg_z_tree(CgGraph(4, [(1, 2), (1, 3), (2, 4)]))


class TestForbiddenConfigurations:
    def test_crossing_path4_detected(self):
        # path 2-4-1-3-5: edges 24,14,13,35; 24 crosses 35? no — 14 crosses 35
        t = CgGraph(5, [(2, 4), (1, 4), (1, 3), (3, 5)])
        found = detect_crossing_path4(t)
        assert found is not None
        e, f = found.crossing
        assert e in found.edges() and f in found.edges()

    def test_star_has_no_crossing_path(self):
        t = CgGraph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
        assert detect_crossing_path4(t) is None

    def test_twin_detection_matches_decomposition_failure(self):
        """Any chi_c = 2 tree rejected by the decomposition must carry one of
        the two forbidden configurations, and vice versa (5-edge sweep is the
        release gate's job; this is a spot check on 4 edges)."""
        for t in enumerate_trees(4, "cyclic", "chi2"):
            clean = (
                detect_crossing_path4(t) is None
                and detect_twin_crossing_paths(t) is None
            )
            assert clean == bool(is_cg_z_tree(t)), t.edges

    def test_zigzag_recognition(self):
        assert is_zigzag(CgGraph(5, [(1, 2), (2, 5), (3, 4), (3, 5)]))
        assert not is_zigzag(CgGraph(4, [(1, 2), (2, 3), (3, 4)]))  # chi_c = 3
        with pytest.raises(InputError):
            is_zigzag(CgGraph(4, [(1, 2), (1, 3), (1, 4)]))  # not a path


class TestCatalog:
    def test_contents_are_pinned(self):
        catalog = derive_obstructions(4)
        assert [t.edges for t in catalog] == [
            ((1, 3), (1, 4), (2, 4)),
            ((1, 3), (1, 4), (2, 3), (2, 5)),
            ((1, 3), (1, 5), (2, 3), (2, 4)),
            ((1, 4), (2, 5), (3, 4), (3, 5)),
            ((1, 5), (2, 4), (3, 4), (3, 5)),
        ]
        assert catalog.provenance[0] == "pinned"
        assert set(catalog.provenance[1:]) == {"derived"}

    def test_closed_under_mirror(self):
        catalog = derive_obstructions(4)
        edge_sets = {t.edges for t in catalog}
        assert {mirror(t).edges for t in catalog} == edge_sets

    def test_budget(self):
        with pytest.raises(BudgetError):
            derive_obstructions(7)
        with pytest.raises(InputError):
            derive_obstructions(2)


class TestEnumeration:
    @pytest.mark.parametrize("k,count", [(1, 1), (2, 3), (3, 16), (4, 125), (5, 1296)])
    def test_cayley_counts(self, k, count):
        assert sum(1 for _ in enumerate_trees(k, "linear", "all")) == count

    def test_all_results_are_spanning_trees(self):
        for t in enumerate_trees(3, "cyclic", "all"):
            assert t.is_tree() and t.n == 4

    def test_chi2_filter(self):
        for t in enumerate_trees(3, "linear", "chi2"):
            assert chi_interval(t) == 2

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            list(enumerate_trees(2, "diagonal"))

    def test_out_of_range_edge_count(self):
        with pytest.raises(InputError):
            list(enumerate_trees(7, "linear"))


class TestClassify:
    def test_z_tree_is_linear_with_formula(self):
        v = classify_tree(OrderedGraph(4, [(1, 3), (2, 3), (2, 4)]))
        assert v.kind == "Linear"
        assert str(v.formula) == "2n - 3"
        assert v.formula.value(10) == 17
        assert isinstance(v.witness, ZDecomposition)

    def test_obstructed_tree_is_nonlinear(self):
        v = classify_tree(OrderedGraph(4, CROSSING_P3_EDGES))
        assert v.kind == "NonLinear"
        assert v.chi == 2
        assert v.witness is not None

    def test_high_chi_is_quadratic(self):
        v = classify_tree(OrderedGraph(3, [(1, 2), (2, 3)]))
        assert v.kind == "NonLinear"
        assert v.chi == 3
        assert "n^2" in v.growth_tag

    def test_cyclic_verdicts(self):
        assert classify_tree(CgGraph(4, [(1, 2), (1, 3), (2, 4)])).kind == "Linear"
        assert classify_tree(CgGraph(4, [(1, 2), (2, 3), (3, 4)])).kind == "NonLinear"

    def test_non_tree_not_applicable(self):
        v = classify_tree(OrderedGraph(4, [(1, 2)]))
        assert v.kind == "NotApplicable"

    def test_formula_values(self):
        assert LinearFormula(2).value(5) == 4
        assert LinearFormula(4).value(7) == 15
