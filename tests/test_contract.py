"""The contract of the public API, checked from one table.

Every public callable has a row: each name in ``xtrees.__all__``, and each
public method or classmethod with arguments of a public class (a method the
two graph classes share has one row, under the first of them in
``__all__``). A row is a valid call, given as keyword arguments to the
callable its name names (a method is called ``on`` an instance), and per
argument the values that must be refused. A refused value raises
InputError (NotApplicableError is one), or, where it is marked ``over``, a
BudgetError whose message names the budget. Nothing else may escape, and no
value may be coerced into an answer. A row that is a string exempts its
name, for the reason it gives.
"""

import inspect
import io
import re
from itertools import combinations
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


def msg(value, match):
    """A malformed value whose InputError message matches ``match``."""
    return Refused(value, InputError, match)


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

# no argument of the API takes these
JUNK = (None, True, 1.5, "x", object())
INT = JUNK + ([1], P3)
GRAPH = JUNK + (5, [(1, 2)], CB)  # an OrderedGraph or a CgGraph
ORDERED = GRAPH + (C4,)
CYCLIC = GRAPH + (P3,)
COLORED = JUNK + (5, f_n(8))  # a ColoredBipartite
CHOICE = JUNK + (5, [])  # one of a few strings
SIDE = CHOICE[1:] + ("A",)  # a walk's start side: None, or "A"/"B" for slow walks only
VERTEX = INT + (0, 5)  # of C4: 1..4
EDGE = JUNK + (5, (1, 1), (1, 7), (0, 3), (1, 2, 3), ("1", "3"), (1.0, 3), "13", b"\x01\x03")
NOT_A_FILE = (None, True, False, 1.5, 5, -1, [], object(), b"g.json")
HOST_BUDGET = f"limit is {MAX_HOST}"

GRAPH_CALL = dict(n=3, edges=[(1, 2), (2, 3)], colors=[1, 2])
GRAPH_BAD = dict(
    n=INT + (0, -1),
    edges=JUNK + (5, [(2, 2)], [(1, 2), (2, 1)], [(1, 4)], [(0, 1)], [(1, 2, 3)], ["12"],
                  [(1.0, 2)], [(True, 2)], [5], [None], [(1, 2), b"\x02\x03"],
                  [(1, 2), bytearray(b"\x02\x03")]),
    colors=JUNK[1:] + (5, [1], [0, 1], [True, 1], [1.0, 1], [None, 1]),  # None: uncoloured
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
WALK_QUERY_BAD = dict(g=COLORED, kind=CHOICE, start_side=SIDE)
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
    "rotate": row(dict(g=C4, r=1), g=CYCLIC, r=tuple(msg(r, "rotation") for r in INT)),
    "reflect": row(dict(g=C4), g=CYCLIC),
    # files
    "graph_from_dict": row(dict(d=DOC), d=JUNK + (5, [1, 2, 3], {"n": 3, "edges": []}) + tuple(
        {**DOC, **change} for change in (
            {"mode": "hexagonal"}, {"mode": []}, {"mode": {}}, {"mode": None}, {"n": "three"},
            {"n": True}, {"edges": None}, {"edges": 7}, {"edges": [5]}, {"colors": 5},
            {"colors": [True]},
        ))),
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
    "iter_embeddings": row(dict(CONTAINMENT, limit=0), **CONTAINMENT_BAD, limit=INT + (-1,)),
    "validate_embedding": row(
        dict(host=H8, pattern=P3, emb=EMB),
        host=GRAPH + (_complete(CgGraph, 8),), pattern=GRAPH + (CgGraph(3, [(1, 2)]),),
        emb=JUNK + (5, (1, 2, 3), {"mode": "linear", "map": (1, 2, 3)},
                    Embedding("cyclic", (1, 2, 3)), Embedding("linear", (1, 2, 3), True),
                    *(Embedding("linear", m) for m in (
                        (1, 2), (1, 1, 2), (True, 2, 3), (1, 2, 3.0), (0, 1, 2), (7, 8, 9),
                        (2, 1, 3), (1, 3, 4)))),  # (1, 3, 4) maps edge 12 to a non-edge
    ),
    "Embedding.apply": row(dict(v=1), on=EMB, v=INT + (0, 4, -1)),
    # constructions
    "pow2": row(dict(n=8), n=INT + (1, over(MAX_HOST + 1, HOST_BUDGET))),
    "fh_q": row(dict(s=4), s=INT + (0, 3, over(MAX_HOST, HOST_BUDGET))),
    "fh_r": row(dict(s=4), s=INT + (0, 6, over(MAX_HOST, HOST_BUDGET))),
    "gstar": row(dict(n=8, a=2, b=1, c=1), n=INT + (4, over(MAX_HOST + 1, HOST_BUDGET)),
                 a=INT + (0,), b=INT + (-1,), c=INT + (-1,)),  # n = 4 < a + b + c + 1
    "f_n": row(dict(n=8), n=INT + (4, 12, over(2 * MAX_HOST, HOST_BUDGET))),
    "f_n0": row(dict(n=8), n=INT + (0, 7, over(MAX_HOST + 2, HOST_BUDGET))),
    # trees
    "z_decompose": row(dict(t=Z3), t=ORDERED + (
        P3, OrderedGraph(3, [(1, 2), (1, 3), (2, 3)]), OrderedGraph(3, [(1, 3)]))),
    "is_z_tree": row(dict(t=Z3), t=ORDERED),
    "cg_z_decompose": row(dict(t=C4), t=CYCLIC + (CK5,)),
    "is_cg_z_tree": row(dict(t=C4), t=CYCLIC),
    "linearize": row(dict(t=C4, r=0), t=CYCLIC, r=tuple(msg(r, "rotation") for r in INT)),
    "detect_crossing_path4": row(dict(t=C4), t=CYCLIC),
    "detect_twin_crossing_paths": row(dict(t=C4), t=CYCLIC + (
        over(TWINS_OVER_CAP, "cap of 1500"),)),
    "is_zigzag": row(dict(t=C4), t=CYCLIC + (CgGraph(4, [(1, 2), (1, 3), (1, 4)]),)),
    "classify_tree": row(dict(t=P3), t=GRAPH),
    "derive_obstructions": row(dict(max_edges=3), max_edges=INT + (2, over(7, "up to 6 edges"))),
    "enumerate_trees": row(dict(k=2, mode="linear", filt="all"),
                           k=INT + (0, over(7, "up to 6 edges")), mode=CHOICE,
                           filt=CHOICE),
    # solver
    "extremal_number": row(dict(n=4, pattern=P3), n=INT + (1, over(9, "above n = 8")),
                           pattern=GRAPH + (OrderedGraph(3, []), H8)),
    "embed_dense": row(
        dict(host=K5, dec=z_decompose(Z3)), host=GRAPH + (CK5, OrderedGraph(2, [(1, 2)])),
        dec=JUNK + (5, P3, cg_z_decompose(CgGraph(3, [(1, 2), (2, 3)])),
                    CgZDecomposition(0, None),
                    ZDecomposition(hub=(1, 3), core=((1, 3),), s_j=(), s_i=()),
                    ZDecomposition(hub=[1, 3], core=[(1, 2), (1, 3)], s_j=[], s_i=[])),
    ),
    # walks
    "ColoredBipartite": row(
        dict(side_a=[1, 3], side_b=[2], edges=[(1, 2, 1), (3, 2, 2)], d=None),
        side_a=JUNK + (5, [1.0, 3], [True, 3], [1, 2], b"\x01\x03"),
        side_b=JUNK + (5, [2.0], [True], b"\x02"),
        edges=JUNK + (5, [5], [None], [(1, 2)], [(1, 2, 1, 1)], [(1, 2, True)], [(1, 2, 1.0)],
                      [(1, 2, 0)], [(1.0, 2, 1)], [(1, 3, 1)], [(1, 2, 1), (3, 2, 1)],
                      [(1, 2, 1), (2, 1, 2)], [b"\x01\x02\x01"]),
        d=JUNK[1:] + ([2], P3, 1),  # None: the largest colour
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
    "extract_walk_free": row(dict(WALK_QUERY, seed=0), **WALK_QUERY_BAD, seed=INT),
    "size_bound": row(dict(num_edges=10, d=2), num_edges=INT + (-1,), d=INT + (0,)),
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
        _callable(name)(**{**ROWS[name].valid, arg: refused.value})


@pytest.mark.parametrize("g", GRAPH)
def test_interval_split_refuses_a_non_graph(g):
    """interval_split is not in __all__; like chi_interval, it refuses a
    non-graph."""
    with pytest.raises(InputError):
        interval_split(g)
