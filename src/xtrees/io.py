"""Graph files: a small JSON interchange format.

    {"mode": "ordered" | "cg",
     "n": 6,
     "edges": [[1, 6], [2, 3], ...],
     "colors": [1, 2, ...]}        # optional, parallel to "edges"

Vertices are 1-based; loops and duplicate edges are rejected. save/load round
trips exactly (edges are written sorted, colors follow their edges).
"""

from __future__ import annotations

import json
import os
from typing import TextIO, Union

from .errors import InputError
from .order import GRAPH_CLASSES, _check_graph, _Graph

_MODES = {cls.mode: cls for cls in GRAPH_CLASSES}


def graph_to_dict(g: _Graph) -> dict:
    _check_graph("g", g)
    d = {"mode": g.mode, "n": g.n, "edges": [list(e) for e in g.edges]}
    if g.colors is not None:
        d["colors"] = list(g.colors)
    return d


def graph_from_dict(d: dict) -> _Graph:
    if not isinstance(d, dict):
        raise InputError("graph document must be a JSON object")
    try:
        mode = d["mode"]
        n = d["n"]
        edges = d["edges"]
    except KeyError as missing:
        raise InputError(f"graph document lacks required key {missing}") from None
    if type(mode) is not str or mode not in _MODES:
        raise InputError(f"unknown mode {mode!r} (expected 'ordered' or 'cg')")
    return _MODES[mode](n, edges, colors=d.get("colors"))


def _check_file(name: str, value, method: str) -> None:
    """A path (str or os.PathLike) or an object with ``method``, nothing
    else: open() would take an int or a bool as a file descriptor, and close
    it afterwards."""
    if not (hasattr(value, method) or isinstance(value, (str, os.PathLike))):
        raise InputError(f"{name} must be a path or an object with {method}(), got {value!r}")


def load_graph(source: Union[str, os.PathLike, TextIO]) -> _Graph:
    """Load from a path or an open file object."""
    _check_file("source", source, "read")
    try:
        if hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise InputError(str(exc)) from None
    return graph_from_dict(doc)


def save_graph(g: _Graph, dest: Union[str, os.PathLike, TextIO]) -> None:
    """Save to a path or an open file object."""
    _check_file("dest", dest, "write")
    text = dumps_graph(g) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)


def dumps_graph(g: _Graph) -> str:
    return json.dumps(graph_to_dict(g))
