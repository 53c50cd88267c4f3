"""The contract of the public API, checked from one table.

Every public callable has a row: each name in ``xtrees.__all__``, and each
public method or classmethod with arguments of a public class (a method the
two graph classes share has one row, under the first of them in
``__all__``). A row is a valid call, given as keyword arguments to the
callable its name names (a method is called ``on`` an instance), and per
argument the values that must be refused. A refused value raises
InputError (NotApplicableError is one), or, where it is marked ``over``, a
BudgetError whose message names the budget. Nothing else may escape, and no
value may be coerced into an answer. A case that needs another context,
such as a cg host, replaces those arguments of the valid call too. A row
that is a string exempts its name, for the reason it gives.

The table is the one home of these cases: a test elsewhere that only
expects refusals from public callables fails
``test_refusal_only_tests_live_in_the_table``.
"""

import ast
import inspect
import io
import re
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import pytest

import xtrees
from xtrees import (BudgetError, CgGraph, CgZDecomposition, ColoredBipartite, Embedding,
                    InputError, OrderedGraph, ZDecomposition, cg_z_decompose, dumps_graph, f_n,
                    find_forbidden_walk, z_decompose)
from xtrees.containment import MAX_PATTERN
from xtrees.order import MAX_HOST, interval_split


class Refused(NamedTuple):
    value: object
    error: type = InputError
    match: object = None
    given: dict = {}  # other arguments of the valid call that this case replaces


def msg(value, match, **given):
    """A malformed value whose InputError message matches ``match``."""
    return Refused(value, InputError, match, given)


def over(value, budget):
    """A well-formed value over a budget: a BudgetError naming ``budget``."""
    return Refused(value, BudgetError, re.escape(budget))


class Row(NamedTuple):
    valid: dict
    on: object
    bad: dict


def row(valid, on=None, **bad):
    return Row(valid, on, bad)


def _callable(name):
    """What the row of ``name`` calls: the public function or class, or the
    method bound to the row's instance."""
    owner, _, method = name.partition(".")
    return getattr(ROWS[name].on, method) if method else getattr(xtrees, owner)


class Reader:
    """A file object that reads the same text on every call."""

    def __init__(self, text):
        self.text = text

    def read(self, *_):
        return self.text


def _complete(cls, n):
    return cls(n, list(combinations(range(1, n + 1), 2)))


P3 = OrderedGraph(3, [(1, 2), (2, 3)])
Z3 = OrderedGraph(3, [(1, 3), (2, 3)])
H8 = OrderedGraph(8, [(i, i + 1) for i in range(1, 8)])
K5, CK5 = _complete(OrderedGraph, 5), _complete(CgGraph, 5)
C4 = CgGraph(4, [(1, 2), (2, 4), (3, 4)])
# a cg double star whose 40 x 40 leaf pairs give as many self-crossing 3-paths
TWINS_OVER_CAP = CgGraph(82, [(1, 2)] + [(1, x) for x in range(3, 43)]
                         + [(2, y) for y in range(43, 83)])
CB = ColoredBipartite.from_colored_graph(f_n(16))
SMALL_CB = ColoredBipartite([1], [2], [(1, 2, 1)])
EMB = Embedding("linear", (1, 2, 3))
CP3 = CgGraph(3, [(1, 2), (2, 3)])
CP3_LINE = cg_z_decompose(CP3).linear
LISTS = ZDecomposition(hub=[1, 3], core=[(1, 2), (1, 3)], s_j=[], s_i=[])  # lists, not tuples

# no argument of the API takes these
JUNK = (None, True, 1.5, "x", object())
INT = JUNK + ([1], P3)
GRAPH = JUNK + (5, [(1, 2)], CB)  # an OrderedGraph or a CgGraph
ORDERED = GRAPH + (C4,)
CYCLIC = GRAPH + (P3,)
COLORED = JUNK + (5, f_n(8), [(1, 2, 1)])  # a ColoredBipartite
CHOICE = JUNK + (5, [])  # one of a few strings
SIDE = CHOICE[1:] + ("A",)  # a walk's start side: None, or "A"/"B" for slow walks only
VERTEX = INT + (0, 5, -1, 2.0, "2")  # of C4: 1..4
EDGE = JUNK + (5, (1, 1), (1, 7), (0, 3), (1, 2, 3), ("1", "3"), (1.0, 3), "13", b"\x01\x03")
NOT_A_FILE = (None, True, False, 1.5, 5, -1, [], object(), b"g.json", 1)  # 1 is stdout
ROTATION = tuple(msg(r, "rotation") for r in INT + (1.0, "1"))
HOST_BUDGET = f"limit is {MAX_HOST}"


def integer(valid):
    """The values refused as not an integer where ``valid`` is one: a bool,
    its float or its digits would each be coerced to a number."""
    return tuple(msg(x, "must be an integer") for x in INT + (float(valid), str(valid)))


GRAPH_CALL = dict(n=3, edges=[(1, 2), (2, 3)], colors=[1, 2])
GRAPH_BAD = dict(
    n=tuple(msg(n, "vertex count") for n in INT + (3.0, False, "3")) + (0, -1),
    edges=JUNK + (5, [(2, 2)], [(1, 2), (2, 1)], [(1, 4)], [(0, 1)], [(1, 2, 3)], ["12"],
                  [(1.0, 2)], [(True, 2)], [5], [None], [(1, 2), b"\x02\x03"],
                  [(1, 2), bytearray(b"\x02\x03")], [("1", 2)], [(2, None)]),
    # None: uncoloured
    colors=JUNK[1:] + (5, [1], [0, 1], [True, 1], [1.0, 1], [None, 1], ["1", 1]),
)
DOC = {"mode": "ordered", "n": 3, "edges": [[1, 2]]}
CONTAINMENT = dict(host=H8, pattern=P3, allow_reflection=False)
CONTAINMENT_BAD = dict(
    host=GRAPH + (_complete(CgGraph, 8), OrderedGraph(2, [(1, 2)]),
                  over(OrderedGraph(MAX_HOST + 1, []), HOST_BUDGET)),
    pattern=GRAPH + (CgGraph(3, [(1, 2)]),
                     over(OrderedGraph(MAX_PATTERN + 1, []), f"limit is {MAX_PATTERN}")),
    allow_reflection=(None, 1, 1.5, "x", True),  # True: reflections are cg only
)
WALK_QUERY = dict(g=CB, kind="fast", start_side=None)
WALK_QUERY_BAD = dict(g=COLORED, kind=CHOICE,
                      start_side=SIDE + (msg("C", "start_side must be", kind="slow"),))
RECORD = "a record that the library returns"

ROWS = {
    **dict.fromkeys(("BudgetError", "InputError", "NotApplicableError"),
                    "an exception class, raised rather than called"),
    **dict.fromkeys(("CheckResult", "Extraction", "ExtremalResult", "ObstructionCatalog",
                     "Verdict"), RECORD),
    "CgZDecomposition": f"{RECORD}; embed_dense checks one it is given",
    "ZDecomposition": f"{RECORD}; embed_dense checks one it is given",
    "Embedding": f"{RECORD}; validate_embedding checks one against its graphs",
    "Walk4": f"{RECORD}; Walk4.check checks one against its graph",
    # graphs
    "OrderedGraph": row(GRAPH_CALL, **GRAPH_BAD),
    "CgGraph": row(GRAPH_CALL, **GRAPH_BAD),
    "CgGraph.degree": row(dict(v=1), on=C4, v=VERTEX),
    "CgGraph.neighbors": row(dict(v=1), on=C4, v=VERTEX),
    "CgGraph.relabeled": row(
        dict(perm={1: 2, 2: 3, 3: 4, 4: 1}), on=C4,
        perm=JUNK + (5, [2, 3, 4, 1]) + tuple(msg(p, "not a permutation of 1..4") for p in (
            {1: 2, 2: 1}, {1: 1, 2: 1, 3: 3, 4: 4}, {1: 2, 2: 3, 3: 4, 4: 5},
            {1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0}, {1: True, 2: 3, 3: 4, 4: 2},
            {1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
        )),
    ),
    "chi_interval": row(dict(g=P3), g=GRAPH),
    "chi_cyclic": row(dict(g=C4), g=CYCLIC),
    "crosses": row(dict(g=K5, e=(1, 3), f=(2, 4)), g=GRAPH, e=EDGE, f=EDGE),
    "mirror": row(dict(g=P3), g=GRAPH),
    "rotate": row(dict(g=C4, r=1), g=CYCLIC, r=ROTATION),
    "reflect": row(dict(g=C4), g=CYCLIC),
    # files
    "graph_from_dict": row(dict(d=DOC), d=JUNK + (5, [1, 2, 3], {"n": 3, "edges": []}) + tuple(
        msg({**DOC, **change}, "vertex count must be an integer") if "n" in change else {**DOC, **change}
        for change in (
            {"mode": "hexagonal"}, {"mode": []}, {"mode": {}}, {"mode": None}, {"n": "three"},
            {"n": True}, {"edges": None}, {"edges": 7}, {"edges": [5]}, {"colors": 5},
            {"colors": [True]}, {"n": 3.0}, {"edges": [[1.7, 2.2]]}, {"edges": ["12"]},
            {"edges": [[True, 2]]}, {"edges": [[1, 2, 3]]}, {"colors": [1.0]}, {"colors": ["1"]},
        )) + ({"mode": "ordered", "edges": []},)),
    "graph_to_dict": row(dict(g=P3), g=GRAPH),
    "dumps_graph": row(dict(g=P3), g=GRAPH),
    "load_graph": row(dict(source=Reader(dumps_graph(P3))), source=(
        Reader("{not json"), Reader(b'{"mode": "ordered", "n": 2, "edges": [], "x": "\xe9"}'),
        Reader('{"mode": [], "n": 2, "edges": []}'), "no/such/file.json",
        *(msg(x, "must be a path") for x in NOT_A_FILE),
    )),
    "save_graph": row(dict(g=P3, dest=io.StringIO()), g=GRAPH,
                      dest=tuple(msg(x, "must be a path") for x in NOT_A_FILE)),
    # containment
    "contains": row(CONTAINMENT, **CONTAINMENT_BAD),
    "find_embedding": row(CONTAINMENT, **CONTAINMENT_BAD),
    "iter_embeddings": row(dict(CONTAINMENT, limit=0), **CONTAINMENT_BAD,
                           limit=INT + (-1, -5, 2.5, "1")),
    "validate_embedding": row(
        dict(host=H8, pattern=P3, emb=EMB),
        host=GRAPH + (msg(_complete(CgGraph, 8), "mode mismatch"),),
        pattern=GRAPH + (CgGraph(3, [(1, 2)]),),
        emb=JUNK + (5, (1, 2, 3), {"mode": "linear", "map": (1, 2, 3)},
                    msg(Embedding("cyclic", (1, 2, 3)), "embedding mode 'cyclic'"),
                    msg(Embedding("linear", (1, 2, 3), True), "cyclic-only"),
                    msg(Embedding("linear", (1, 2)), "map has 2 entries"),
                    msg(Embedding("linear", (1, 1, 2)), "not injective"),
                    *(Embedding("linear", m) for m in (
                        (True, 2, 3), (1, 2, 3.0), (0, 1, 2), (7, 8, 9))),
                    msg(Embedding("linear", (2, 1, 3)), "linear order"),
                    Embedding("linear", (1, 3, 4)),  # maps edge 12 to a non-edge
                    msg(Embedding("cyclic", (1, 5, 2)), "clockwise cyclic order",
                        host=CK5, pattern=CP3),
                    msg(Embedding("cyclic", (5, 1, 2), True), "reversed cyclic order",
                        host=CK5, pattern=CP3)),
    ),
    "Embedding.apply": row(dict(v=1), on=EMB, v=INT + (0, 4, -1)),
    # constructions
    "pow2": row(dict(n=8), n=integer(8) + (1, over(MAX_HOST + 1, HOST_BUDGET))),
    "fh_q": row(dict(s=4), s=integer(4) + (0, 3, over(MAX_HOST, HOST_BUDGET))),
    "fh_r": row(dict(s=4), s=integer(4) + (0, 6, over(MAX_HOST, HOST_BUDGET))),
    "gstar": row(dict(n=8, a=2, b=1, c=1),
                 n=integer(8) + (4, over(MAX_HOST + 1, HOST_BUDGET)),  # 4 < a + b + c + 1
                 a=integer(2) + (0,), b=integer(1) + (-1,), c=integer(1) + (-1,)),
    "f_n": row(dict(n=8), n=integer(8) + (4, 12, over(2 * MAX_HOST, HOST_BUDGET))),
    "f_n0": row(dict(n=8), n=integer(8) + (0, 7, over(MAX_HOST + 2, HOST_BUDGET))),
    # trees
    "z_decompose": row(dict(t=Z3), t=ORDERED + (
        P3, OrderedGraph(3, [(1, 2), (1, 3), (2, 3)]), OrderedGraph(3, [(1, 3)]))),
    "is_z_tree": row(dict(t=Z3), t=ORDERED),
    "cg_z_decompose": row(dict(t=C4), t=CYCLIC + (CK5,)),
    "is_cg_z_tree": row(dict(t=C4), t=CYCLIC),
    "linearize": row(dict(t=C4, r=0), t=CYCLIC, r=ROTATION),
    "detect_crossing_path4": row(dict(t=C4), t=CYCLIC),
    "detect_twin_crossing_paths": row(dict(t=C4), t=CYCLIC + (
        over(TWINS_OVER_CAP, "cap of 1500"),)),
    "is_zigzag": row(dict(t=C4), t=CYCLIC + (CgGraph(4, [(1, 2), (1, 3), (1, 4)]),)),
    "classify_tree": row(dict(t=P3), t=GRAPH),
    "derive_obstructions": row(dict(max_edges=3),
                               max_edges=integer(3) + (2, over(7, "up to 6 edges"))),
    "enumerate_trees": row(dict(k=2, mode="linear", filt="all"),
                           k=integer(2) + (0, over(7, "up to 6 edges")), mode=CHOICE,
                           filt=CHOICE),
    # solver
    "extremal_number": row(dict(n=4, pattern=P3),
                           n=integer(4) + (msg(1, "need n >= 2"), over(9, "above n = 8")),
                           pattern=GRAPH + (OrderedGraph(3, []), msg(H8, "exceeds host size"))),
    "embed_dense": row(
        dict(host=K5, dec=z_decompose(Z3)),
        host=GRAPH + (msg(CK5, "needs an ordered host"), OrderedGraph(2, [(1, 2)])),
        dec=JUNK + (5, P3, msg(cg_z_decompose(CP3), "needs a cg host"), CgZDecomposition(0, None),
                    ZDecomposition(hub=(1, 3), core=((1, 3),), s_j=(), s_i=()), LISTS,
                    *(msg(CgZDecomposition(r, lin), "rotation an int", host=CK5)
                      for r, lin in ((0, LISTS), (1.0, CP3_LINE), ("1", CP3_LINE),
                                     (None, CP3_LINE), (True, CP3_LINE))),
                    # its three edges leave vertex 4 of the tree isolated
                    msg(ZDecomposition((1, 3), ((2, 3), (1, 3)), (), ((1, 2),)), "spanning tree")),
    ),
    # walks
    "ColoredBipartite": row(
        dict(side_a=[1, 3], side_b=[2], edges=[(1, 2, 1), (3, 2, 2)], d=None),
        side_a=JUNK + (5, [1.0, 3], [True, 3], [1, 2], b"\x01\x03"),
        side_b=JUNK + (5, [2.0], [True], b"\x02"),
        edges=JUNK + (5, [5], [None], [(1, 2)], [(1, 2, 1, 1)], [(1, 2, True)], [(1, 2, 1.0)],
                      [(1, 2, 0)], [(1.0, 2, 1)], [(1, 3, 1)], [(1, 2, 1), (3, 2, 1)],
                      [(1, 2, 1), (2, 1, 2)], [b"\x01\x02\x01"], [(1, True, 1)]),
        d=JUNK[1:] + ([2], P3, 1, "2"),  # None: the largest colour
    ),
    "ColoredBipartite.color_of": row(dict(u=1, v=2), on=SMALL_CB, u=INT + (3,), v=INT + (1,)),
    "ColoredBipartite.neighbors": row(dict(v=1), on=SMALL_CB, v=INT + (3,)),
    "ColoredBipartite.side_of": row(dict(v=1), on=SMALL_CB, v=INT + (3,)),
    "ColoredBipartite.subgraph": row(
        dict(keep=[(1, 2)]), on=CB,
        keep=JUNK + (5, [5], [(1, 2, 3)], [("1", 2)], [(1.0, 2)], [(1, 3)], [(2, 2)],
                     [b"\x01\x02"]),
    ),
    "ColoredBipartite.from_colored_graph": row(
        dict(g=f_n(8)), on=ColoredBipartite,
        g=GRAPH + (P3, CgGraph(3, [(1, 2), (2, 3), (1, 3)], colors=[1, 2, 3]),
                   over(CgGraph(MAX_HOST + 1, [(1, 2)], colors=[1]), HOST_BUDGET)),
    ),
    "Walk4.check": row(dict(g=CB, start_side=None), on=find_forbidden_walk(CB, "fast"),
                       g=COLORED, start_side=SIDE),
    "find_forbidden_walk": row(WALK_QUERY, **WALK_QUERY_BAD),
    "enumerate_all_walks": row(dict(WALK_QUERY, g=SMALL_CB), **dict(WALK_QUERY_BAD, g=COLORED + (
        over(ColoredBipartite.from_colored_graph(f_n(32)), "limit is 14"),))),
    "extract_walk_free": row(dict(WALK_QUERY, seed=0), **WALK_QUERY_BAD, seed=integer(0)),
    "size_bound": row(dict(num_edges=10, d=2), num_edges=integer(10) + (-1,),
                      d=integer(2) + (0,)),
    # the release gate
    "run_check": row(dict(check_id="c05", seed=0),
                     check_id=tuple(msg(c, "unknown check") for c in CHOICE + ("c5", "c99")),
                     seed=tuple(msg(s, "seed") for s in INT)),
    "run_suite": row(dict(check_ids=["c05"], seed=0),  # check_ids None: every check
                     check_ids=JUNK[1:] + (5, "c05", ["c05", "c05"], [[]], [None], ["c99"],
                                           msg([], "no check selected")),
                     seed=tuple(msg(s, "seed") for s in INT)),
}


def _public_names() -> set:
    """Each name in __all__, and Class.method for each public method or
    classmethod with arguments of a public class, once per function."""
    names, seen = set(xtrees.__all__), set()
    for owner in xtrees.__all__:
        cls = getattr(xtrees, owner)
        for attr, member in inspect.getmembers(cls) if isinstance(cls, type) else ():
            func = getattr(member, "__func__", member)
            if (attr.startswith("_") or not inspect.isfunction(func) or func in seen
                    or not func.__module__.startswith("xtrees")):
                continue
            seen.add(func)
            if len(inspect.signature(func).parameters) > 1:  # more than self or cls
                names.add(f"{owner}.{attr}")
    return names


def test_every_public_callable_has_one_row():
    public = _public_names()
    assert sorted(public - set(ROWS)) == [], "public names without a row"
    assert sorted(set(ROWS) - public) == [], "rows for names that are not public"


def _label(value):
    """The repr of a short value, else its type; pytest numbers repeats."""
    text = repr(value)
    return text if len(text) <= 24 and " at 0x" not in text else type(value).__name__


CHECKED = [name for name, r in ROWS.items() if not isinstance(r, str)]
CASES = [
    pytest.param(name, arg, r, id=f"{name}-{arg}={_label(r.value)}")
    for name in CHECKED
    for arg, values in ROWS[name].bad.items()
    for r in (bad if isinstance(bad, Refused) else Refused(bad) for bad in values)
]


@pytest.mark.parametrize("name", CHECKED)
def test_valid_call_is_accepted(name):
    valid, _, bad = ROWS[name]
    assert set(bad) <= set(valid)
    _callable(name)(**valid)


@pytest.mark.parametrize("name, arg, refused", CASES)
def test_malformed_argument_is_refused(name, arg, refused):
    with pytest.raises(refused.error, match=refused.match):
        _callable(name)(**{**ROWS[name].valid, **refused.given, arg: refused.value})


@pytest.mark.parametrize("g", GRAPH)
def test_interval_split_refuses_a_non_graph(g):
    """interval_split is not in __all__; like chi_interval, it refuses a
    non-graph."""
    with pytest.raises(InputError):
        interval_split(g)


# Refusal-only tests written before the table. Every value they refuse is
# a case of its row; delete a name here with its test.
OLDER_REFUSAL_TESTS = {
    "test_acceptance.py::test_empty_selection_refused",
    "test_acceptance.py::test_malformed_check_id_refused",
    "test_constructions.py::TestPow2::test_needs_two_vertices",
    "test_containment.py::TestPinned::test_mode_mismatch_rejected",
    "test_containment.py::TestValidationAndBudget::test_validate_rejects_each_broken_rule",
    "test_io.py::test_malformed_documents",
    "test_io.py::test_non_integer_color_rejected",
    "test_io.py::test_non_integer_n_rejected",
    "test_order.py::TestStrictInputs::test_float_edge_rejected",
    "test_order.py::TestStrictInputs::test_non_integer_color_rejected",
    "test_order.py::TestStrictInputs::test_non_integer_endpoint_rejected",
    "test_order.py::TestStrictInputs::test_string_edge_rejected",
    "test_order.py::TestTransforms::test_rotate_rejects_ordered",
    "test_order.py::TestValidation::test_color_count_must_match",
    "test_order.py::TestValidation::test_duplicate_edges_rejected",
    "test_order.py::TestValidation::test_loops_rejected",
    "test_order.py::TestValidation::test_out_of_range_vertex",
    "test_solver.py::TestRefusalsAndValidation::test_budget_refusal",
    "test_solver.py::TestRefusalsAndValidation::test_empty_pattern_rejected",
    "test_solver.py::TestRefusalsAndValidation::test_non_int_n_rejected",
    "test_solver.py::TestRefusalsAndValidation::test_pattern_larger_than_host",
    "test_solver.py::TestRefusalsAndValidation::test_tiny_hosts_rejected",
    "test_walks.py::TestColoredBipartite::test_edges_must_join_the_sides",
    "test_walks.py::TestColoredBipartite::test_improper_coloring_rejected",
    "test_walks.py::TestColoredBipartite::test_subgraph_rejects_malformed_edges",
    "test_walks.py::TestColoredBipartiteTypes::test_non_ints_rejected",
    "test_walks.py::TestDetector::test_fast_takes_no_side",
    "test_walks.py::TestExtraction::test_non_int_seed_rejected",
}


def _tail(node):
    """The name an expression ends in: f for f, m for x.m."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _only_refuses(stmt, public) -> bool:
    """A pytest.raises block around one call of a public name, or a for
    loop around such blocks."""
    if isinstance(stmt, ast.For):
        return all(_only_refuses(s, public) for s in stmt.body)
    if not (isinstance(stmt, ast.With) and len(stmt.items) == 1 and len(stmt.body) == 1):
        return False
    ctx, (inner,) = stmt.items[0].context_expr, stmt.body
    return (isinstance(ctx, ast.Call) and _tail(ctx.func) == "raises" and bool(ctx.args)
            and _tail(ctx.args[0]) in ("InputError", "BudgetError", "NotApplicableError")
            and isinstance(inner, ast.Expr) and isinstance(inner.value, ast.Call)
            and _tail(inner.value.func) in public)


def _refusal_only_tests() -> set:
    """file::[Class::]test of each test outside this file whose body, after
    any docstring, only expects refusals from public callables."""
    public = {name.rpartition(".")[2] for name in _public_names()}
    found = set()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        for node in ast.parse(path.read_text()).body:
            owner = f"{node.name}::" if isinstance(node, ast.ClassDef) else ""
            for f in node.body if owner else [node]:
                if not (isinstance(f, ast.FunctionDef) and f.name.startswith("test")):
                    continue
                body = f.body[1:] if ast.get_docstring(f) is not None else f.body
                if body and all(_only_refuses(s, public) for s in body):
                    found.add(f"{path.name}::{owner}{f.name}")
    return found


def test_refusal_only_tests_live_in_the_table():
    found = _refusal_only_tests()
    assert sorted(found - OLDER_REFUSAL_TESTS) == [], "refusal cases outside the table"
    assert sorted(OLDER_REFUSAL_TESTS - found) == [], "gone or changed: unlist them"
