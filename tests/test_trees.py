"""Tree structure: z-decompositions (both orders), forbidden configurations,
the obstruction catalog, enumeration and classification."""

import io
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from xtrees import trees
from xtrees.errors import BudgetError, InputError, NotApplicableError
from xtrees.io import dumps_graph, graph_to_dict, save_graph
from xtrees.order import (
    _SHARED_EDGES,
    CgGraph,
    OrderedGraph,
    chi_cyclic,
    chi_interval,
    crosses,
    mirror,
    reflect,
    rotate,
)
from xtrees.trees import (
    CROSSING_P3_EDGES,
    CgZDecomposition,
    CrossingPath4,
    LinearFormula,
    NotAZTree,
    TwinCrossingPaths,
    Verdict,
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


def ref_validate_decomposition(t, dec):
    """validate_decomposition as it was, with the loop that asked every pair
    of opposite fan edges to cross after the two fan form checks passed, and
    the count of all the tree's crossings after that."""
    parts = list(dec.core) + list(dec.s_j) + list(dec.s_i)
    if len(parts) != len(set(parts)):
        raise InputError("core and fans overlap")
    if set(parts) != set(t.edges):
        raise InputError("core and fans do not partition the tree's edges")
    if trees.increasing_chain(dec.core) != dec.core:
        raise InputError("core is not an increasing chain in chain order")
    if dec.core[-1] != dec.hub:
        raise InputError("hub is not the longest core edge")
    i, j = dec.hub
    for h, jj in dec.s_j:
        if jj != j or h >= i:
            raise InputError(f"fan edge {(h, jj)} is not of the form hj with h < i")
    for ii, k in dec.s_i:
        if ii != i or k <= j:
            raise InputError(f"fan edge {(ii, k)} is not of the form ik with k > j")
    for e in dec.s_j:
        for f in dec.s_i:
            if not crosses(t, e, f):
                raise InputError(f"opposite fan edges {e}, {f} fail to cross")
    if len(trees._crossing_pairs(t)) != dec.b * dec.c:
        raise InputError("the tree has crossings outside the two fans")
    return True


def hub_splits(t):
    """Per edge ij of t, the split with ij as hub: the edges inside [i, j]
    form the core, sorted by length; hj with h < i go to s_j, ik with k > j
    to s_i, and every other edge to s_j, so the split still covers t."""
    for i, j in t.edges:
        core = tuple(sorted((e for e in t.edges if i <= e[0] and e[1] <= j),
                            key=lambda e: e[1] - e[0]))
        s_i = tuple(e for e in t.edges if e[0] == i and e[1] > j)
        s_j = tuple(e for e in t.edges if e not in core and e not in s_i)
        yield ZDecomposition((i, j), core, s_j, s_i)


def fan_corruptions(dec):
    """Copies of dec with its fans swapped, or one edge moved between the
    parts, dropped, or listed twice."""
    hub, core, s_j, s_i = dec.hub, dec.core, dec.s_j, dec.s_i
    yield ZDecomposition(hub, core, s_i, s_j)
    for e in s_j:
        rest = tuple(f for f in s_j if f != e)
        yield ZDecomposition(hub, core, rest, s_i + (e,))
        yield ZDecomposition(hub, core, rest, s_i)
        yield ZDecomposition(hub, core, s_j, s_i + (e,))
    for e in s_i:
        rest = tuple(f for f in s_i if f != e)
        yield ZDecomposition(hub, core, s_j + (e,), rest)
        yield ZDecomposition(hub, core, s_j, rest)
    for e in core[:-1]:
        rest = tuple(f for f in core if f != e)
        yield ZDecomposition(hub, rest, s_j + (e,), s_i)
        yield ZDecomposition(hub, rest, s_j, s_i + (e,))


def random_corruption(rng, t):
    """A random hub split of t with up to three edges moved between its
    parts; the core is re-sorted by length, so it may still be a chain."""
    split = rng.choice(list(hub_splits(t)))
    parts = [list(split.core), list(split.s_j), list(split.s_i)]
    for _ in range(rng.randint(0, 3)):
        src = rng.choice([part for part in parts if part])
        rng.choice(parts).append(src.pop(rng.randrange(len(src))))
    core = tuple(sorted(parts[0], key=lambda e: e[1] - e[0]))
    return ZDecomposition(split.hub, core, tuple(parts[1]), tuple(parts[2]))


def verdict(validate, t, dec):
    try:
        return validate(t, dec)
    except InputError as exc:
        return repr(exc)


class TestValidateDecomposition:
    def test_same_outcome_as_the_validator_with_the_crossing_loop(self):
        """Every hub split of every z-tree with <= 5 edges, and its fan
        corruptions: the validator accepts or raises exactly as the old one
        with the opposite-fan crossing loop did."""
        accepted = raised = 0
        for k in range(1, 6):
            for t in enumerate_trees(k, "linear"):
                if not is_z_tree(t):
                    continue
                for split in hub_splits(t):
                    for dec in (split, *fan_corruptions(split)):
                        got = verdict(validate_decomposition, t, dec)
                        assert got == verdict(ref_validate_decomposition, t, dec), (t.edges, dec)
                        accepted += got is True
                        raised += got is not True
        assert accepted > 0 and raised > 0

    def test_random_corruptions_need_no_crossing_count(self):
        """40 seeded random corruptions of every z-tree with <= 6 edges: the
        validator without the crossing count accepts or raises exactly as
        the old one did, so the count never decided anything."""
        rng = random.Random(15)
        accepted = raised = 0
        for k in range(1, 7):
            for t in enumerate_trees(k, "linear"):
                if not is_z_tree(t):
                    continue
                for _ in range(40):
                    dec = random_corruption(rng, t)
                    got = verdict(validate_decomposition, t, dec)
                    assert got == verdict(ref_validate_decomposition, t, dec), (t.edges, dec)
                    accepted += got is True
                    raised += got is not True
        assert accepted > 500 and raised > 500


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

    def test_budget(self, monkeypatch):
        """Over the budget, the catalog is refused before any tree is enumerated."""
        monkeypatch.setattr(trees, "enumerate_trees", None)
        with pytest.raises(BudgetError, match="up to 6 edges"):
            derive_obstructions(7)


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
            enumerate_trees(2, "diagonal")

    def test_out_of_range_edge_count(self):
        """k > 6 is well-formed but over the enumeration budget."""
        with pytest.raises(BudgetError, match="up to 6 edges"):
            enumerate_trees(7, "linear")

    @pytest.mark.parametrize("args", [(3, "bogus"), (2.0, "linear"), (True, "cyclic"),
                                      (0, "linear"), (2, "linear", "bogus")])
    def test_bad_arguments_raise_at_the_call(self, args):
        """The checks run when the stream is built, not at its first item."""
        with pytest.raises(InputError):
            enumerate_trees(*args)

    @pytest.mark.parametrize("mode", ["linear", "cyclic"])
    def test_trees_equal_their_validated_builds(self, mode):
        """Enumerated trees skip validation; they must equal the graphs the
        validating constructor builds from the same edges, and share the
        package's edge tuples."""
        for k in range(1, 7):
            for t in enumerate_trees(k, mode):
                ref = type(t)(t.n, list(t.edges))
                assert t == ref and hash(t) == hash(ref) and repr(t) == repr(ref)
                assert all(e is _SHARED_EDGES[e[0]][e[1]] for e in t.edges)


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

    @pytest.mark.parametrize("t", ["x", None])
    def test_non_graph_rejected(self, t):
        with pytest.raises(InputError):
            classify_tree(t)

    def test_formula_values(self):
        assert LinearFormula(2).value(5) == 4
        assert LinearFormula(4).value(7) == 15


_ORDERED_PATH = OrderedGraph(5, [(1, 3), (1, 4), (2, 4), (2, 5)])  # crosses as a cg path


@pytest.mark.parametrize(
    "call",
    [
        lambda: detect_crossing_path4(_ORDERED_PATH),
        lambda: detect_twin_crossing_paths(_ORDERED_PATH),
        lambda: detect_crossing_path4(5),
        lambda: detect_twin_crossing_paths(None),
        lambda: mirror(5),
        lambda: rotate(5, 1),
        lambda: reflect("g"),
        lambda: linearize(5, 0),
        lambda: crosses(5, (1, 3), (2, 4)),
        lambda: dumps_graph(5),
        lambda: graph_to_dict(None),
        lambda: save_graph(5, io.StringIO()),
    ],
    ids=["path4-ordered", "twins-ordered", "path4-int", "twins-none", "mirror", "rotate",
         "reflect", "linearize", "crosses", "dumps", "to-dict", "save"],
)
def test_public_calls_reject_what_they_cannot_read(call):
    with pytest.raises(InputError):
        call()


# -- reference versions of the cyclic structure layer: every cut of the
# circle tried, every path listed and sorted, and crossings tested by the
# validating public ``crosses``. The fast versions must agree exactly.


def ref_cg_z_decompose(t):
    lins = [linearize(t, r) for r in range(t.n)]
    if all(chi_interval(lin) != 2 for lin in lins):
        raise NotApplicableError("cyclic interval chromatic number must be 2")
    for r, lin in enumerate(lins):
        if chi_interval(lin) != 2:
            continue
        dec = z_decompose(lin)
        if isinstance(dec, ZDecomposition):
            return CgZDecomposition(rotation=r, linear=dec)
    return NotAZTree("no rotation linearizes to a z-tree")


def ref_z_decompose(t):
    """z_decompose as it was with two algorithms: the hub forced by the first
    crossing pair, or the smallest cut of one crossing-free increasing chain
    (whose s_j came out in chain order, not sorted)."""
    if chi_interval(t) != 2:
        raise NotApplicableError("interval chromatic number must be 2")
    crossings = trees._crossing_pairs(t)
    if crossings:
        e, f = crossings[0]
        i, j = f[0], e[1]
        if (i, j) not in t.edges:
            return NotAZTree("hub is not an edge")
        core, s_j, s_i = [], [], []
        for ed in t.edges:
            if i <= ed[0] and ed[1] <= j:
                core.append(ed)
            elif ed[1] == j and ed[0] < i:
                s_j.append(ed)
            elif ed[0] == i and ed[1] > j:
                s_i.append(ed)
            else:
                return NotAZTree("edge outside core and fans")
        chain = trees.increasing_chain(core)
        if chain is None or chain[-1] != (i, j):
            return NotAZTree("core is not a chain ending at the hub")
        return ZDecomposition((i, j), chain, tuple(sorted(s_j)), tuple(sorted(s_i)))
    chain = trees.increasing_chain(t.edges)
    if chain is None:
        return NotAZTree("not an increasing chain")
    a = len(chain)
    for cut in range(1, len(chain)):
        common = set(chain[cut])
        for ed in chain[cut + 1:]:
            common &= set(ed)
        if common & set(chain[cut - 1]):
            a = cut
            break
    i, j = chain[a - 1]
    fans = chain[a:]
    return ZDecomposition(
        (i, j), chain[:a], tuple(ed for ed in fans if ed[1] == j),
        tuple(ed for ed in fans if ed[0] == i),
    )


def assert_same_z_decomposition(t):
    """z_decompose agrees with the reference up to the order of s_j, which
    is now always sorted; a failure agrees in kind."""
    got, want = outcome(z_decompose, t), outcome(ref_z_decompose, t)
    if isinstance(want, ZDecomposition):
        assert isinstance(got, ZDecomposition), t.edges
        assert got.hub == want.hub and got.core == want.core, t.edges
        assert got.s_j == tuple(sorted(want.s_j)) and got.s_i == want.s_i, t.edges
    elif isinstance(want, NotAZTree):
        assert isinstance(got, NotAZTree), t.edges
    else:
        assert got == want, t.edges


@st.composite
def two_interval_trees(draw, max_n=14):
    """A spanning tree of the complete bipartite graph between [1, m] and
    [m + 1, n]: interval chromatic number two, n <= max_n."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=n - 1))
    rng = draw(st.randoms(use_true_random=False))
    a, b = rng.randint(1, m), rng.randint(m + 1, n)
    placed, edges = [a, b], [(a, b)]
    for v in rng.sample([v for v in range(1, n + 1) if v not in (a, b)], n - 2):
        u = rng.choice([w for w in placed if (w <= m) != (v <= m)])
        edges.append((min(u, v), max(u, v)))
        placed.append(v)
    return OrderedGraph(n, edges)


@st.composite
def z_trees(draw, max_n=14):
    """A z-tree on at most max_n vertices: b left fan vertices, an increasing
    core of a edges grown by random end extensions, c right fan vertices."""
    a = draw(st.integers(min_value=1, max_value=max_n - 1))
    b = draw(st.integers(min_value=0, max_value=max_n - 1 - a))
    c = draw(st.integers(min_value=0, max_value=max_n - 1 - a - b))
    grow_left = draw(st.lists(st.booleans(), min_size=a - 1, max_size=a - 1))
    lo = hi = b + 1 + sum(grow_left)
    edges = []
    for left in [None] + grow_left:
        if left:
            lo -= 1
            edges.append((lo, hi))
        else:
            hi += 1
            edges.append((lo, hi))
    edges += [(h, hi) for h in range(1, lo)]
    edges += [(lo, k) for k in range(hi + 1, hi + 1 + c)]
    return OrderedGraph(hi + c, edges)


def ref_paths_with_edges(t, length):
    found = []

    def grow(seq):
        if len(seq) == length + 1:
            if seq[0] < seq[-1]:
                found.append(tuple(seq))
            return
        for w in t.neighbors(seq[-1]):
            if w not in seq:
                grow(seq + [w])

    for v in range(1, t.n + 1):
        grow([v])
    return sorted(found)


def _edge(u, v):
    return (u, v) if u < v else (v, u)


def ref_detect_crossing_path4(t):
    for path in ref_paths_with_edges(t, 4):
        edges = [_edge(path[x], path[x + 1]) for x in range(4)]
        for e, f in combinations(edges, 2):
            if crosses(t, e, f):
                return CrossingPath4(path, (e, f))
    return None


def _side(chord, x):
    """+1 if x lies strictly inside the clockwise arc u -> v of the chord
    (u, v), u < v, and -1 if strictly inside the arc v -> u."""
    u, v = sorted(chord)
    if x in (u, v):
        raise ValueError(f"vertex {x} lies on chord {chord}")
    return 1 if u < x < v else -1


def ref_twin_pair_ok(t, p, q):
    e, f = _edge(p[1], p[2]), _edge(q[1], q[2])
    shared_center = len(set(e) & set(f))
    if len(set(p) & set(q)) != shared_center:
        return None
    if e != f and crosses(t, e, f):
        return None
    if shared_center == 2:
        sp = _side(e, p[0])
        if sp != _side(e, p[3]):
            return None
        sq = _side(e, q[0])
        if sq != _side(e, q[3]):
            return None
        return 2 if sp != sq else None
    for a, b in ((p, q), (q, p)):
        ce = _edge(a[1], a[2])
        sides = {_side(ce, x) for x in (b[1], b[2]) if x not in ce}
        if len(sides) != 1:
            return None
        banned = sides.pop()
        if _side(ce, a[0]) == banned or _side(ce, a[3]) == banned:
            return None
    return shared_center


def ref_detect_twin_crossing_paths(t):
    selfx = [
        p for p in ref_paths_with_edges(t, 3)
        if crosses(t, _edge(p[0], p[1]), _edge(p[2], p[3]))
    ]
    if len(selfx) > trees._TWIN_SEARCH_CAP:
        raise BudgetError("cap")
    for p, q in combinations(selfx, 2):
        shared = ref_twin_pair_ok(t, p, q)
        if shared is not None:
            return TwinCrossingPaths(shared, p, q)
    return None


def outcome(f, *args):
    """The result of f, or the type of the xtrees error it raised."""
    try:
        return f(*args)
    except (BudgetError, NotApplicableError) as exc:
        return type(exc)


@st.composite
def cg_graphs(draw, max_n=10):
    """A cg graph on 1..n, n <= max_n, any edge set (trees are rare)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    es = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return CgGraph(n, es)


class TestAgainstReferences:
    def test_z_decompose_every_small_tree(self):
        """Every ordered tree with <= 6 edges; these are also exactly the
        linearizations of every cg tree with <= 6 edges."""
        for k in range(1, 7):
            for t in enumerate_trees(k, "linear"):
                assert_same_z_decomposition(t)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(two_interval_trees(), z_trees()))
    def test_z_decompose_two_interval_trees(self, t):
        assert_same_z_decomposition(t)

    def test_cg_z_decompose_every_small_tree(self):
        for k in range(1, 7):
            for t in enumerate_trees(k, "cyclic"):
                for g in (t, reflect(t)):
                    assert outcome(cg_z_decompose, g) == outcome(ref_cg_z_decompose, g), g

    @settings(max_examples=150, deadline=None)
    @given(cg_graphs())
    def test_paths_and_detectors(self, g):
        for length in range(1, 5):
            assert list(trees._paths_with_edges(g, length)) == ref_paths_with_edges(g, length)
        assert detect_crossing_path4(g) == ref_detect_crossing_path4(g)
        assert outcome(detect_twin_crossing_paths, g) == outcome(ref_detect_twin_crossing_paths, g)

    def test_twin_search_on_every_small_tree(self):
        for k in range(1, 7):
            for t in enumerate_trees(k, "cyclic"):
                got = outcome(detect_twin_crossing_paths, t)
                assert got == outcome(ref_detect_twin_crossing_paths, t), t.edges

    @given(cg_graphs(max_n=12))
    def test_private_crossing_test(self, g):
        for e, f in combinations(g.edges, 2):
            assert trees._crosses(e, f) == trees._crosses(f, e) == crosses(g, e, f)


class TestWorkDone:
    """Guards on how much work the cyclic layer does, not only its output."""

    def test_cg_z_decompose_tries_two_cuts(self, monkeypatch):
        calls = []
        linear_edges = trees._linear_edges

        def counting(n, edges, r):
            calls.append(r)
            return linear_edges(n, edges, r)

        monkeypatch.setattr(trees, "_linear_edges", counting)
        most = 0
        for k in range(1, 6):
            for t in enumerate_trees(k, "cyclic"):
                calls.clear()
                outcome(cg_z_decompose, t)
                assert len(calls) <= 2, (t.edges, calls)
                most = max(most, len(calls))
        assert most == 2

    def test_crossing_path4_stops_at_first_hit(self, monkeypatch):
        """The first 4-edge path, 1-3-5-2-4, crosses: 13 x 25. Finding it
        reads four neighbour lists; listing every path reads them all."""
        reads = []

        class CountingList(list):
            def __iter__(self):
                reads.append(1)
                return super().__iter__()

        adjacency_lists = trees._adjacency_lists
        monkeypatch.setattr(
            trees, "_adjacency_lists",
            lambda n, edges: [CountingList(x) for x in adjacency_lists(n, edges)],
        )
        t = CgGraph(12, [(1, 3), (3, 5), (2, 5), (2, 4)] + [(4, v) for v in range(6, 13)])
        assert t.is_tree()
        assert detect_crossing_path4(t) == CrossingPath4((1, 3, 5, 2, 4), ((1, 3), (2, 5)))
        assert len(reads) <= 5


def ref_classify_cg(t):
    """classify_tree on a cg tree with edges, as it was when both detectors
    always ran, the twin search even after a crossing path was found."""
    k, chi = len(t.edges), chi_cyclic(t)
    if chi > 2:
        return Verdict(kind="NonLinear", mode="cyclic", k=k, chi=chi, growth_tag="Theta(n^2)")
    dec = cg_z_decompose(t)
    x4 = detect_crossing_path4(t)
    twins = detect_twin_crossing_paths(t)
    assert isinstance(dec, CgZDecomposition) == (x4 is None and twins is None)
    if isinstance(dec, CgZDecomposition):
        return Verdict(kind="Linear", mode="cyclic", k=k, chi=chi, growth_tag="Theta(n)",
                       witness=dec)
    return Verdict(kind="NonLinear", mode="cyclic", k=k, chi=chi,
                   growth_tag="Omega(n log log n)", witness=x4 if x4 is not None else twins)


class TestClassifyTwinSearch:
    """classify_tree searches for twin crossing paths only when no crossing
    4-edge path was found, since the crossing path alone decides then."""

    CROSSING = CgGraph(5, [(1, 2), (1, 3), (2, 5), (4, 5)])

    def test_twins_searched_only_without_a_crossing_path(self, monkeypatch):
        calls = []

        def counting(t):
            calls.append(t.edges)
            return detect_twin_crossing_paths(t)

        monkeypatch.setattr(trees, "detect_twin_crossing_paths", counting)
        v = classify_tree(self.CROSSING)
        assert v.kind == "NonLinear" and v.witness == detect_crossing_path4(self.CROSSING)
        assert calls == []
        twins_only = CgGraph(6, [(1, 3), (2, 6), (3, 5), (3, 6), (4, 6)])
        star = CgGraph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
        assert isinstance(classify_tree(twins_only).witness, TwinCrossingPaths)
        assert classify_tree(star).kind == "Linear"
        assert calls == [twins_only.edges, star.edges]

    def test_disagreement_says_twins_were_not_searched(self, monkeypatch):
        dec = cg_z_decompose(CgGraph(5, [(1, 2), (1, 3), (1, 4), (1, 5)]))
        monkeypatch.setattr(trees, "cg_z_decompose", lambda t: dec)
        with pytest.raises(RuntimeError, match="twin paths=not searched"):
            classify_tree(self.CROSSING)

    def test_verdicts_and_witnesses_unchanged(self):
        for k in range(1, 7):
            for t in enumerate_trees(k, "cyclic", "all"):
                assert classify_tree(t) == ref_classify_cg(t), t.edges


class TestTwinSideRule:
    """In a self-crossing path a0-a1-a2-a3 the outer edge a0a1 separates a2
    from a3, so both outer vertices lie on one side of the center a1a2.
    ``_twin_pair_ok`` relies on this to test a0 alone."""

    def test_outer_vertices_share_a_side_of_the_center(self):
        for n in range(4, 9):
            for p in permutations(range(1, n + 1), 4):
                if trees._crosses(_edge(p[0], p[1]), _edge(p[2], p[3])):
                    center = _edge(p[1], p[2])
                    assert _side(center, p[0]) == _side(center, p[3]), (n, p)

    def test_holds_on_every_self_crossing_path_of_a_small_tree(self):
        paths = 0
        for k in range(3, 7):
            for t in enumerate_trees(k, "cyclic"):
                for p in trees._self_crossing_paths3(t):
                    center = _edge(p[1], p[2])
                    assert _side(center, p[0]) == _side(center, p[3])
                    paths += 1
        assert paths == 28964


def ref_classify_linear(t):
    """classify_tree on an ordered tree with edges, as it was when ordered
    and cg trees each had their own branch."""
    k, chi = len(t.edges), chi_interval(t)
    if chi > 2:
        return Verdict(kind="NonLinear", mode="linear", k=k, chi=chi, growth_tag="Theta(n^2)")
    dec = z_decompose(t)
    obstruction = trees._find_obstruction(t)
    assert isinstance(dec, ZDecomposition) == (obstruction is None)
    if isinstance(dec, ZDecomposition):
        return Verdict(kind="Linear", mode="linear", k=k, chi=chi, formula=LinearFormula(k),
                       growth_tag="Theta(n)", witness=dec)
    return Verdict(kind="NonLinear", mode="linear", k=k, chi=chi,
                   growth_tag="Omega(n log n)", witness=obstruction)


class TestClassifyOneFlow:
    """One classification flow serves both orders; it gives the verdicts of
    the separate ordered branch it replaced."""

    def test_ordered_verdicts_and_witnesses_unchanged(self):
        for k in range(1, 7):
            for t in enumerate_trees(k, "linear", "all"):
                for g in (t, mirror(t)):
                    assert classify_tree(g) == ref_classify_linear(g), g.edges

    @pytest.mark.parametrize("cls", [OrderedGraph, CgGraph])
    def test_not_applicable_names_the_order(self, cls):
        assert classify_tree(cls(3, [(1, 2)])) == Verdict(
            kind="NotApplicable",
            mode=cls.order,
            reason="input is not a tree (connected and acyclic on all vertices)",
        )
        assert classify_tree(cls(1, [])) == Verdict(
            kind="NotApplicable", mode=cls.order, reason="tree has no edges"
        )

    def test_ordered_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(trees, "_find_obstruction", lambda t: None)
        with pytest.raises(RuntimeError, match="decomposition=no: .*obstruction=none"):
            classify_tree(OrderedGraph(4, CROSSING_P3_EDGES))


class TestKeptResults:
    """z_decompose, cg_z_decompose and both detectors keep their result on
    the graph; an exception is raised again on every call and never kept."""

    ZIGZAG = CgGraph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    CROSSING = CgGraph(5, [(1, 2), (1, 3), (2, 5), (4, 5)])
    TWINS = CgGraph(6, [(1, 3), (2, 6), (3, 5), (3, 6), (4, 6)])

    def test_memoized_calls_return_the_same_object(self):
        for t in (OrderedGraph(4, [(1, 3), (1, 4), (2, 4)]), OrderedGraph(3, [(1, 2), (1, 3)])):
            first = z_decompose(t)
            assert z_decompose(t) is first and is_z_tree(t) == bool(first)
        for t in (self.ZIGZAG, self.CROSSING, self.TWINS):
            t = CgGraph(t.n, t.edges)
            first = cg_z_decompose(t), detect_crossing_path4(t), detect_twin_crossing_paths(t)
            again = cg_z_decompose(t), detect_crossing_path4(t), detect_twin_crossing_paths(t)
            assert all(a is b for a, b in zip(first, again)), t.edges
        assert isinstance(detect_crossing_path4(self.CROSSING), CrossingPath4)
        assert isinstance(detect_twin_crossing_paths(self.TWINS), TwinCrossingPaths)

    def test_each_result_is_computed_once(self, monkeypatch):
        trees._catalog4()  # derived through z_decompose on its own trees
        calls = []
        for name in ("_z_decompose", "_cg_z_decompose", "_crossing_path4", "_twin_crossing_paths"):
            def counting(t, f=getattr(trees, name), name=name):
                calls.append(name)
                return f(t)

            monkeypatch.setattr(trees, name, counting)
        lin = OrderedGraph(4, [(1, 3), (1, 4), (2, 4)])
        cg = CgGraph(self.TWINS.n, self.TWINS.edges)
        for _ in range(3):
            classify_tree(lin)
            z_decompose(lin)
            classify_tree(cg)
            cg_z_decompose(cg)
            detect_crossing_path4(cg)
            detect_twin_crossing_paths(cg)
        assert sorted(calls) == sorted(
            ["_z_decompose", "_cg_z_decompose", "_crossing_path4", "_twin_crossing_paths"])

    def test_not_applicable_is_raised_on_every_call(self):
        lin = OrderedGraph(4, [(1, 2), (2, 3), (3, 4)])  # chi_interval 4
        cg = CgGraph(5, [(1, 2), (1, 3), (3, 4), (4, 5)])  # chi_cyclic 3
        not_tree = OrderedGraph(4, [(1, 3), (2, 4)])
        for _ in range(3):
            for f, t in ((z_decompose, lin), (cg_z_decompose, cg), (z_decompose, not_tree)):
                with pytest.raises(NotApplicableError):
                    f(t)
                assert not is_z_tree(lin) and not is_cg_z_tree(cg)
        for t in (lin, cg, not_tree):
            assert not {"z", "cg_z"} & set(t._adj_cache)

    def test_budget_error_is_raised_on_every_call(self, monkeypatch):
        t = CgGraph(self.TWINS.n, self.TWINS.edges)
        monkeypatch.setattr(trees, "_TWIN_SEARCH_CAP", 0)
        for _ in range(3):
            with pytest.raises(BudgetError):
                detect_twin_crossing_paths(t)
        assert "twins" not in t._adj_cache
        monkeypatch.undo()
        assert isinstance(detect_twin_crossing_paths(t), TwinCrossingPaths)

    def test_transforms_carry_no_decomposition(self):
        lin = OrderedGraph(4, [(1, 3), (1, 4), (2, 4)])
        cg = CgGraph(self.TWINS.n, self.TWINS.edges)
        z_decompose(lin)
        cg_z_decompose(cg), detect_crossing_path4(cg), detect_twin_crossing_paths(cg)
        perm = {v: v % lin.n + 1 for v in range(1, lin.n + 1)}
        derived = [mirror(lin), lin.relabeled(perm), reflect(cg), rotate(cg, 1),
                   cg.relabeled({v: v for v in range(1, cg.n + 1)})]
        for u in derived:
            assert not {"z", "cg_z", "path4", "twins"} & set(u._adj_cache), u


class TestEnumerationIsFresh:
    """Trees are decoded once per k, but every enumerate_trees call builds
    new graphs: nothing computed on one call's graphs reaches the next."""

    @pytest.mark.parametrize("mode", ["linear", "cyclic"])
    def test_two_calls_return_distinct_graphs(self, mode):
        first = list(enumerate_trees(4, mode))
        for t in first:
            classify_tree(t)
            is_z_tree(t) if mode == "linear" else is_cg_z_tree(t)
        second = list(enumerate_trees(4, mode))
        assert [t.edges for t in first] == [t.edges for t in second]
        assert all(a is not b for a, b in zip(first, second))
        assert all(t._adj_cache == {"tree": True} for t in second)
        assert trees._labelled_trees(4) is trees._labelled_trees(4)

    @pytest.mark.parametrize("mode", ["linear", "cyclic"])
    def test_chi2_filter_keeps_only_its_own_split(self, mode):
        first = list(enumerate_trees(4, mode, "chi2"))
        for t in first:
            classify_tree(t)
        key = "cyclic" if mode == "cyclic" else "interval"
        for t in enumerate_trees(4, mode, "chi2"):
            assert set(t._adj_cache) == {"tree", key}
