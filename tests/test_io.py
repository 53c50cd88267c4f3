"""JSON interchange round-trips and rejection of malformed documents."""

import io
import json

import pytest
from hypothesis import given, strategies as st

from xtrees.errors import InputError
from xtrees.io import (
    dumps_graph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)
from xtrees.order import CgGraph, OrderedGraph


def test_round_trip_ordered(tmp_path):
    g = OrderedGraph(5, [(1, 4), (2, 3)], colors=[2, 1])
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    back = load_graph(str(path))
    assert isinstance(back, OrderedGraph)
    assert back.n == g.n and back.edges == g.edges and back.colors == g.colors


def test_round_trip_via_file_objects():
    g = CgGraph(4, [(1, 3), (2, 4)])
    buf = io.StringIO()
    save_graph(g, buf)
    buf.seek(0)
    back = load_graph(buf)
    assert isinstance(back, CgGraph) and back.edges == g.edges


def test_dumps_is_single_line_json():
    text = dumps_graph(OrderedGraph(2, [(1, 2)]))
    assert "\n" not in text
    assert json.loads(text) == {"mode": "ordered", "n": 2, "edges": [[1, 2]]}


def test_extra_keys_are_ignored():
    """Consumers accept documents with additional metadata blocks unchanged."""
    d = {"mode": "cg", "n": 3, "edges": [[1, 2]], "extraction": {"seed": 0}}
    g = graph_from_dict(d)
    assert g.edges == ((1, 2),)


@pytest.mark.parametrize(
    "doc",
    [
        {"mode": "ordered", "edges": []},
        {"mode": "hexagonal", "n": 3, "edges": []},
        {"n": 3, "edges": []},
        {"mode": "cg", "n": "three", "edges": []},
        [1, 2, 3],
        {"mode": "ordered", "n": 3, "edges": [[1.7, 2.2]]},
        {"mode": "ordered", "n": 3, "edges": ["12"]},
        {"mode": "ordered", "n": 3, "edges": [[True, 2]]},
        {"mode": "ordered", "n": 3, "edges": None},
        {"mode": "ordered", "n": 3, "edges": 7},
        {"mode": "ordered", "n": 3, "edges": [5]},
        {"mode": "ordered", "n": 3, "edges": [[1, 2, 3]]},
        {"mode": "cg", "n": 3, "edges": [[1, 2]], "colors": 5},
    ],
)
def test_malformed_documents(doc):
    with pytest.raises(InputError):
        graph_from_dict(doc)


@given(st.one_of(st.booleans(), st.floats(), st.text()))
def test_non_integer_n_rejected(n):
    with pytest.raises(InputError):
        graph_from_dict({"mode": "ordered", "n": n, "edges": []})


@given(st.one_of(st.booleans(), st.floats(), st.text()))
def test_non_integer_color_rejected(c):
    with pytest.raises(InputError):
        graph_from_dict({"mode": "cg", "n": 3, "edges": [[1, 2]], "colors": [c]})


def test_invalid_json_text(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_graph(str(path))


def test_non_utf8_bytes(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"mode": "ordered", "n": 2, "edges": [], "note": "\xe9"}')
    with pytest.raises(InputError):
        load_graph(str(path))
    with open(path, encoding="utf-8") as fh, pytest.raises(InputError):
        load_graph(fh)


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=n),
                st.integers(min_value=1, max_value=n),
            ).filter(lambda e: e[0] != e[1]),
            unique_by=lambda e: (min(e), max(e)),
            max_size=10,
        ).map(lambda es: CgGraph(n, es))
    )
)
def test_dict_round_trip_is_identity(g):
    back = graph_from_dict(graph_to_dict(g))
    assert type(back) is type(g)
    assert (back.n, back.edges, back.colors) == (g.n, g.edges, g.colors)
