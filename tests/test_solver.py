"""Exact extremal numbers: pinned values, golden data, oracle agreement,
bounds and refusal behavior."""

import dataclasses
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from xtrees.containment import contains
from xtrees.errors import BudgetError, InputError
from xtrees.io import graph_to_dict
from xtrees.kernels import order_embeddings
from xtrees.order import CgGraph, OrderedGraph
from xtrees.solver import (
    SOLVER_MAX_N,
    _canonical_edges,
    _check_result,
    _placement_masks,
    extremal_number,
)
from xtrees.trees import (
    CROSSING_P3_EDGES,
    enumerate_trees,
    is_cg_z_tree,
    is_z_tree,
)

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "extremal.json"

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


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_linear_patterns(self, n):
        for t in enumerate_trees(2, "linear", "all"):
            if not is_z_tree(t) or t.n > n:
                continue
            assert extremal_number(n, t).value == extremal_number(n, t, naive=True).value

    def test_crossing_pattern(self):
        assert extremal_number(5, P).value == extremal_number(5, P, naive=True).value

    def test_cyclic_pattern(self):
        star = CgGraph(3, [(1, 2), (1, 3)])
        assert extremal_number(5, star).value == extremal_number(5, star, naive=True).value

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
        assert r.value == extremal_number(n, pattern, naive=True).value
        assert len(r.witness.edges) == r.value
        assert not contains(r.witness, pattern)

    def test_naive_refuses_above_five(self):
        with pytest.raises(BudgetError):
            extremal_number(6, Z3, naive=True)


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
                    index = {e: i for i, e in enumerate(_canonical_edges(n))}
                    assert _placement_masks(n, t, index) == _kernel_masks(n, t, index)

    def test_crossing_path_node_ceiling(self):
        """The packing bound keeps n = 8 to a few thousand nodes; the
        undecided-edges bound alone needs over a million."""
        r = extremal_number(8, P)
        assert r.value == 17
        assert r.nodes <= 10_000


class TestStructuralBounds:
    def test_monotone_in_n(self):
        values = [extremal_number(n, Z3).value for n in range(4, 8)]
        assert values == sorted(values)
        assert all(b - a >= 1 for a, b in zip(values, values[1:]))

    def test_cyclic_never_exceeds_twice_linear_slope(self):
        """Cg z-trees stay under 2(k-1)n; pinning the small-n table guards the
        peeling recursion's base assumptions."""
        for k in (2, 3):
            for t in enumerate_trees(k, "cyclic", "chi2"):
                if not is_cg_z_tree(t):
                    continue
                for n in range(t.n, 7):
                    assert extremal_number(n, t).value <= 2 * (k - 1) * n

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

    def test_pattern_larger_than_host(self):
        with pytest.raises(InputError):
            extremal_number(3, Z3)

    def test_empty_pattern_rejected(self):
        with pytest.raises(InputError):
            extremal_number(4, OrderedGraph(3, []))

    def test_result_metadata(self):
        r = extremal_number(5, Z3)
        assert r.method == "branch-and-bound"
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
