"""Walk detection and walk-free extraction in edge-colored bipartite graphs."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from xtrees import walks
from xtrees.constructions import f_n
from xtrees.errors import InputError
from xtrees.walks import (
    EXHAUSTIVE_EDGE_LIMIT,
    ColoredBipartite,
    Walk4,
    _walk_through,
    enumerate_all_walks,
    extract_walk_free,
    find_forbidden_walk,
    size_bound,
)


def _f(n: int) -> ColoredBipartite:
    return ColoredBipartite.from_colored_graph(f_n(n))


class TestColoredBipartite:
    def test_sides_inferred_odd_even(self):
        g = _f(16)
        assert all(v % 2 == 1 for v in g.side_a if g.neighbors(v))
        assert all(v % 2 == 0 for v in g.side_b)

    def test_edges_must_join_the_sides(self):
        with pytest.raises(InputError):
            ColoredBipartite([1, 2], [3], [(1, 2, 1)])

    def test_improper_coloring_rejected(self):
        with pytest.raises(InputError):
            ColoredBipartite([1, 2], [3], [(1, 3, 1), (2, 3, 1)])

    def test_matching_in_one_color_is_fine(self):
        g = ColoredBipartite([1, 2], [3, 4], [(1, 3, 1), (2, 4, 1)])
        assert g.d == 1
        assert g.color_of(3, 1) == 1

    def test_color_of_non_edge(self):
        g = ColoredBipartite([1], [2], [(1, 2, 1)])
        with pytest.raises(InputError):
            g.color_of(2, 3)

    @pytest.mark.parametrize("keep", [[5], None, [(1, 2, 3)], [("1", 2)], [(1.0, 2)]])
    def test_subgraph_rejects_malformed_edges(self, keep):
        with pytest.raises(InputError):
            _f(16).subgraph(keep)

    def test_subgraph_keeps_colors_and_d(self):
        g = _f(16)
        sub = g.subgraph([(1, 2), (1, 4)])
        assert sub.d == g.d
        assert sub.color_of(1, 4) == 2


class TestDetector:
    def test_pinned_fast_walk(self):
        """f_n(16) carries a fast walk; the deterministic first witness is
        10-3-4-1-8 with colors (3, 1, 2, 3) read e1..e4."""
        w = find_forbidden_walk(_f(16), "fast")
        assert w == Walk4((10, 3, 4, 1, 8), (3, 1, 2, 3), "fast")
        w.check(_f(16))

    def test_pinned_slow_walk_is_valid(self):
        g = _f(16)
        w = Walk4((8, 5, 6, 3, 10), (2, 1, 2, 3), "slow")
        w.check(g, "B")
        assert find_forbidden_walk(g, "slow", "B") is not None

    def test_fast_takes_no_side(self):
        with pytest.raises(InputError):
            find_forbidden_walk(_f(16), "fast", "A")

    def test_two_colors_cannot_walk(self):
        g = _f(16)
        classes = g.color_classes()
        sub = g.subgraph([e for c in (1, 2) for e in classes[c]])
        for kind, side in (("fast", None), ("slow", "A"), ("slow", "B")):
            assert find_forbidden_walk(sub, kind, side) is None
            assert enumerate_all_walks(sub, kind, side) == []

    def test_agreement_with_enumeration(self):
        rng = random.Random(99)
        for _ in range(120):
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            pairs = [(a, b) for a in range(1, na + 1) for b in range(na + 1, na + nb + 1)]
            rng.shuffle(pairs)
            d = rng.randint(1, 4)
            used = {}
            edges = []
            for a, b in pairs[: rng.randint(0, len(pairs))]:
                free = [
                    c
                    for c in range(1, d + 1)
                    if c not in used.get(a, ()) and c not in used.get(b, ())
                ]
                if free:
                    c = rng.choice(free)
                    edges.append((a, b, c))
                    used.setdefault(a, set()).add(c)
                    used.setdefault(b, set()).add(c)
            g = ColoredBipartite(range(1, na + 1), range(na + 1, na + nb + 1), edges, d=d)
            for kind, side in (("fast", None), ("slow", "A"), ("slow", "B")):
                walks = enumerate_all_walks(g, kind, side)
                witness = find_forbidden_walk(g, kind, side)
                assert (witness is not None) == bool(walks)
                if witness is not None:
                    assert witness in walks


class TestExtraction:
    def test_bound_values(self):
        assert size_bound(12, 3) == 1
        assert size_bound(80, 5) == 1
        assert size_bound(1000, 4) == 2
        with pytest.raises(InputError):
            size_bound(10, 0)
        with pytest.raises(InputError):
            size_bound(-100, 2)

    def test_exhaustive_on_f16(self):
        g = _f(16)
        assert len(g.edges) <= EXHAUSTIVE_EDGE_LIMIT
        ext = extract_walk_free(g, "fast", seed=0)
        assert ext.method == "exhaustive"
        assert ext.size == 10
        assert find_forbidden_walk(ext.subgraph, "fast") is None

    def test_greedy_on_f64_certifies(self):
        g = _f(64)
        ext = extract_walk_free(g, "slow", "B", seed=0)
        assert ext.method == "greedy"
        assert ext.size >= max(size_bound(len(g.edges), g.d), ext.largest_class)
        assert find_forbidden_walk(ext.subgraph, "slow", "B") is None

    def test_metadata_block(self):
        ext = extract_walk_free(_f(16), "slow", "A", seed=3)
        meta = ext.metadata()
        assert meta["kind"] == "slow" and meta["start_side"] == "A"
        assert meta["seed"] == 3 and meta["log_base"] == 2
        assert meta["achieved"] == ext.size

    def test_seed_changes_only_greedy(self):
        g = _f(16)
        a = extract_walk_free(g, "fast", seed=0)
        b = extract_walk_free(g, "fast", seed=123)
        assert a.size == b.size  # exhaustive search ignores the shuffle order

    @pytest.mark.parametrize("seed", [None, True, 1.5, "1"])
    def test_non_int_seed_rejected(self, seed):
        # None would seed from the OS and True would act as seed 1
        with pytest.raises(InputError):
            extract_walk_free(_f(16), "fast", seed=seed)


@pytest.mark.parametrize("g", [f_n(8), None, [(1, 2, 1)]])
def test_entry_points_reject_other_graphs(g):
    """The search and extraction take a ColoredBipartite, nothing else."""
    for call in (find_forbidden_walk, enumerate_all_walks, extract_walk_free):
        with pytest.raises(InputError):
            call(g, "fast")


# the path 1-2-3-4-5 coloured 3, 1, 2, 3 and coloured 1, 2, 3, 4
_P3123 = ColoredBipartite([1, 3, 5], [2, 4], [(1, 2, 3), (2, 3, 1), (3, 4, 2), (4, 5, 3)])
_P1234 = ColoredBipartite([1, 3, 5], [2, 4], [(1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4)])


@pytest.mark.parametrize(
    "g, walk, side, message",
    [
        (_P3123, Walk4((1, 2, 3, 4, 1), (3, 1, 2, 3), "fast"), None, "not an edge"),
        (_P3123, Walk4((1, 2, 3, 4, 5), (3, 1, 2, 4), "fast"), None, "color mismatch"),
        (_P3123, Walk4((2, 1, 2, 3, 4), (3, 3, 1, 2), "fast"), None, "consecutive edges equal"),
        (_P3123, Walk4((5, 4, 3, 2, 1), (3, 2, 1, 3), "fast"), None, "c2 < c3 < c4"),
        (_P1234, Walk4((1, 2, 3, 4, 5), (1, 2, 3, 4), "fast"), None, "fast needs"),
        (_P1234, Walk4((1, 2, 3, 4, 5), (1, 2, 3, 4), "slow"), "A", "slow needs"),
        (_P3123, Walk4((1, 2, 3, 4, 5), (3, 1, 2, 3), "slow"), "B", "must start in B"),
    ],
    ids=["non-edge", "colour", "repeat", "ascent", "fast-close", "slow-close", "side"],
)
def test_walk_check_rejects_each_broken_rule(g, walk, side, message):
    """The walk along _P3123 passes as fast and as slow from A; each case
    breaks one rule and fails with its message."""
    Walk4((1, 2, 3, 4, 5), (3, 1, 2, 3), "fast").check(_P3123)
    Walk4((1, 2, 3, 4, 5), (3, 1, 2, 3), "slow").check(_P3123, "A")
    with pytest.raises(AssertionError, match=message):
        walk.check(g, side)


def test_walk_check_rejects_under_optimize():
    """Walk4.check raises explicitly, so python -O keeps the check."""
    code = (
        "from xtrees.constructions import f_n\n"
        "from xtrees.walks import ColoredBipartite, Walk4\n"
        "g = ColoredBipartite.from_colored_graph(f_n(16))\n"
        "try:\n"
        "    Walk4((10, 3, 4, 1, 8), (3, 1, 2, 2), 'fast').check(g)\n"
        "except AssertionError as exc:\n"
        "    print('debug', __debug__, 'rejected', exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("debug False rejected"), proc.stdout


class TestColoredBipartiteTypes:
    @pytest.mark.parametrize(
        "side_a, side_b, edges, d",
        [
            ([1], [2], [(1, 2, True)], None),
            ([1], [2], [(1, 2, 1.0)], None),
            ([1.0], [2], [(1, 2, 1)], None),
            ([1], [2], [(1.0, 2, 1)], None),
            ([True], [2], [(1, 2, 1)], None),
            ([1], [2], [(1, True, 1)], None),
            ([1], [2], [(1, 2, 1)], 2.5),
            ([1], [2], [(1, 2, 1)], True),
            ([1], [2], [(1, 2, 1)], "2"),
            # malformed sides, edge lists and edges
            ([1], [2], None, None),
            ([1], [2], 5, None),
            ([1], [2], [5], None),
            ([1], [2], [(1, 2)], None),
            ([1], [2], [(1, 2, 1, 1)], None),
            ([1], [2], [None], None),
            (None, [2], [(1, 2, 1)], None),
            ([1], 2, [(1, 2, 1)], None),
        ],
    )
    def test_non_ints_rejected(self, side_a, side_b, edges, d):
        with pytest.raises(InputError):
            ColoredBipartite(side_a, side_b, edges, d=d)


# -- reference versions of the walk search, as they were before the colour
# test of the first edge e1 was shared: every slot of the closure test spells
# out its own colour rules and its own e1 != e2 exclusion. The closure test
# now runs the detector's search instead, from each second edge whose colour
# is at most that of the new edge.


def ref_find_forbidden_walk(g, kind, start_side=None):
    side = walks._check_kind_side(kind, start_side)
    for v1 in sorted(g._adj):
        for v2, c2 in g.neighbors(v1):
            for v3, c3 in g.neighbors(v2):
                if c3 <= c2:
                    continue
                for v4, c4 in g.neighbors(v3):
                    if c4 <= c3:
                        continue
                    for v0, c1 in g.neighbors(v1):
                        if kind == "fast":
                            if c1 < c4:
                                continue
                        else:
                            if not (c2 < c1 <= c4):
                                continue
                            if g.side_of(v0) != side:
                                continue
                        return Walk4((v0, v1, v2, v3, v4), (c1, c2, c3, c4), kind)
    return None


def ref_walk_through(adj, cn, e_new, kind, side_of, side):
    def nbrs(v):
        return adj.get(v, ())

    for a, b in (e_new, e_new[::-1]):
        # e_new as e2 = (v1=a, v2=b)
        for v3, c3 in nbrs(b):
            if c3 <= cn:
                continue
            for v4, c4 in nbrs(v3):
                if c4 <= c3:
                    continue
                for v0, c1 in nbrs(a):
                    if (v0, c1) == (b, cn):
                        continue
                    if kind == "fast":
                        if c1 >= c4:
                            return True
                    elif cn < c1 <= c4 and side_of(v0) == side:
                        return True
        # e_new as e3 = (v2=a, v3=b)
        for v1, c2 in nbrs(a):
            if c2 >= cn:
                continue
            for v4, c4 in nbrs(b):
                if c4 <= cn:
                    continue
                for v0, c1 in nbrs(v1):
                    if (v0, c1) == (a, c2):
                        continue
                    if kind == "fast":
                        if c1 >= c4:
                            return True
                    elif c2 < c1 <= c4 and side_of(v0) == side:
                        return True
        # e_new as e4 = (v3=a, v4=b)
        for v2, c3 in nbrs(a):
            if c3 >= cn:
                continue
            for v1, c2 in nbrs(v2):
                if c2 >= c3:
                    continue
                for v0, c1 in nbrs(v1):
                    if (v0, c1) == (v2, c2):
                        continue
                    if kind == "fast":
                        if c1 >= cn:
                            return True
                    elif c2 < c1 <= cn and side_of(v0) == side:
                        return True
        # e_new as e1 = (v0=a, v1=b)
        if kind == "slow" and side_of(a) != side:
            continue
        for v2, c2 in nbrs(b):
            if (v2, c2) == (a, cn):
                continue
            if kind == "fast":
                if c2 >= cn:
                    continue
            elif not c2 < cn:
                continue
            for v3, c3 in nbrs(v2):
                if c3 <= c2:
                    continue
                for v4, c4 in nbrs(v3):
                    if c4 <= c3:
                        continue
                    if kind == "fast":
                        if c4 <= cn:
                            return True
                    elif cn <= c4:
                        return True
    return False


SETTINGS = (("fast", None), ("slow", "A"), ("slow", "B"))


def _random_graph(rng):
    """A properly coloured bipartite graph with up to 7 vertices a side, so
    that extraction takes both the exhaustive and the greedy route."""
    na, nb = rng.randint(1, 7), rng.randint(1, 7)
    side_a, side_b = range(1, na + 1), range(na + 1, na + nb + 1)
    pairs = [(a, b) for a in side_a for b in side_b]
    rng.shuffle(pairs)
    d = rng.randint(1, 7)
    used = {}
    edges = []
    for a, b in pairs[: rng.randint(0, len(pairs))]:
        free = [c for c in range(1, d + 1) if c not in used.get(a, ()) and c not in used.get(b, ())]
        if free:
            c = rng.choice(free)
            edges.append((a, b, c))
            used.setdefault(a, set()).add(c)
            used.setdefault(b, set()).add(c)
    return ColoredBipartite(side_a, side_b, edges, d=d)


def _reference_graphs():
    rng = random.Random(12)
    return [_f(n) for n in (8, 16, 32, 64)] + [_random_graph(rng) for _ in range(150)]


def _ref_closure(adj, e_new, kind, side_of, side):
    """ref_walk_through, with the colour of e_new read from adj."""
    u, v = e_new
    cn = next(c for w, c in adj[u] if w == v)
    return ref_walk_through(adj, cn, e_new, kind, side_of, side)


class TestAgainstReferences:
    def test_detector_witnesses(self):
        for g in _reference_graphs():
            for kind, side in SETTINGS:
                assert find_forbidden_walk(g, kind, side) == ref_find_forbidden_walk(g, kind, side)

    def test_closure_answers_and_extractions(self, monkeypatch):
        graphs = _reference_graphs()
        runs = [(g, kind, side) for g in graphs for kind, side in SETTINGS]
        want = []
        monkeypatch.setattr(walks, "_walk_through", _ref_closure)
        for g, kind, side in runs:
            want.append(extract_walk_free(g, kind, side, seed=5).subgraph.edges)

        answers = []

        def both(*args):
            got = _walk_through(*args)
            assert got == _ref_closure(*args), args[1:3]
            answers.append(got)
            return got

        monkeypatch.setattr(walks, "_walk_through", both)
        methods = set()
        for (g, kind, side), edges in zip(runs, want):
            ext = extract_walk_free(g, kind, side, seed=5)
            assert ext.subgraph.edges == edges
            assert find_forbidden_walk(ext.subgraph, kind, side) is None
            methods.add(ext.method)
        assert methods == {"exhaustive", "greedy"}
        assert True in answers and False in answers

    def test_closure_in_shuffled_insertion_order(self):
        """Insert each graph's edges in shuffled order and keep an edge only
        when it closes nothing, so the kept edges stay walk-free: every
        answer is the reference's, whatever the order of the lists in adj."""
        rng = random.Random(22)
        calls = closing = 0
        for _ in range(300):
            g = _random_graph(rng)
            for kind, side in SETTINGS:
                order = list(g.edges)
                rng.shuffle(order)
                adj = {}
                for u, v, c in order:
                    adj.setdefault(u, []).append((v, c))
                    adj.setdefault(v, []).append((u, c))
                    got = _walk_through(adj, (u, v), kind, g.side_of, side)
                    assert got == ref_walk_through(adj, c, (u, v), kind, g.side_of, side)
                    calls += 1
                    if got:
                        closing += 1
                        adj[u].remove((v, c))
                        adj[v].remove((u, c))
        assert (calls, closing) == (5400, 1172)


# -- the brute-force walk reference as it was before it dropped failing
# prefixes: every ordered edge quadruple from itertools.product, chained and
# tested in full.


def ref_enumerate_all_walks(g, kind, start_side=None):
    side = walks._check_kind_side(kind, start_side)
    plain = [(u, v) for u, v, _ in g.edges]

    def other(e, x):
        return e[0] if e[1] == x else e[1]

    found = []
    for e1, e2, e3, e4 in itertools.product(plain, repeat=4):
        if e1 == e2 or e2 == e3 or e3 == e4:
            continue
        for v1 in e1:
            if v1 not in e2:
                continue
            v0 = other(e1, v1)
            v2 = other(e2, v1)
            if v2 not in e3:
                continue
            v3 = other(e3, v2)
            if v3 not in e4:
                continue
            v4 = other(e4, v3)
            cs = tuple(g.color_of(*e) for e in (e1, e2, e3, e4))
            c1, c2, c3, c4 = cs
            if not c2 < c3 < c4:
                continue
            if kind == "fast":
                if not c4 <= c1:
                    continue
            else:
                if not c2 < c1 <= c4:
                    continue
                if g.side_of(v0) != side:
                    continue
            found.append(Walk4((v0, v1, v2, v3, v4), cs, kind))
    return found


@st.composite
def colored_bipartites(draw, max_edges=8):
    """A properly coloured bipartite graph with at most max_edges edges, up
    to 4 vertices a side and up to 5 colours; endpoints in either order."""
    na, nb = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    side_a, side_b = range(1, na + 1), range(na + 1, na + nb + 1)
    pairs = [(a, b) for a in side_a for b in side_b]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges))
    d = draw(st.integers(1, 5))
    used = {}
    edges = []
    for a, b in chosen:
        free = [c for c in range(1, d + 1) if c not in used.get(a, ()) and c not in used.get(b, ())]
        if free:
            c = draw(st.sampled_from(free))
            edges.append((b, a, c) if draw(st.booleans()) else (a, b, c))
            used.setdefault(a, set()).add(c)
            used.setdefault(b, set()).add(c)
    return ColoredBipartite(side_a, side_b, edges, d=d)


class TestWalkReference:
    @settings(max_examples=400, deadline=None)
    @given(colored_bipartites())
    def test_matches_the_product_version(self, g):
        for kind, side in SETTINGS:
            got = enumerate_all_walks(g, kind, side)
            assert got == ref_enumerate_all_walks(g, kind, side)
            for w in got:
                w.check(g, side)
