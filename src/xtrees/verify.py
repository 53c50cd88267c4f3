"""The release gate: every shipped guarantee as an executable pass/fail check.

Eleven checks (c01..c11) cover the public surface: the exact linear extremal
formula, the obstruction characterisations in both vertex orders, avoidance
and edge-count guarantees of the named constructions, the matching-host
properties, the cyclic path census, walk extraction, dense embedding, the
solver/oracle agreement and a metamorphic invariance sweep.

A claim made in both vertex orders is checked by one loop over the two:
c02 and c03 share ``_route_sweep``, c09 loops over (order, k, n) cells, and
c11 runs one unary sweep and one containment-sample loop.

The files under ``golden/`` are computed here alone: ``GOLDEN_FILES`` maps
each name to a builder that also checks the paper's rules for its file, and
c02, c04, c08 and c10 compare the whole recomputed file with the frozen one.
``scripts/freeze_golden.py`` only writes ``golden_text`` to disk.

``run_suite`` runs the checks serially in the calling process, times each
check in that process, and reports in check-id order.  ``write_csv`` /
``write_json`` serialise a report.
"""

from __future__ import annotations

import csv
import json
import random
import reprlib
import time
import traceback
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from itertools import combinations, permutations
from pathlib import Path
from typing import Callable, Iterator, Optional

from .constructions import f_n, f_n0, fh_q, fh_r, gstar, pow2
from .containment import contains
from .errors import InputError
from .io import graph_to_dict
from .oracles import oracle_contains, oracle_extremal_number
from .order import (
    CgGraph,
    OrderedGraph,
    _check_int,
    _linear_edges,
    chi_cyclic,
    chi_interval,
    cyclic_split,
    interval_split,
    mirror,
    reflect,
    rotate,
)
from .solver import embed_dense, extremal_number
from .trees import (
    CROSSING_P3_EDGES,
    LinearFormula,
    ZDecomposition,
    classify_tree,
    cg_z_decompose,
    derive_obstructions,
    detect_crossing_path4,
    detect_twin_crossing_paths,
    enumerate_trees,
    is_cg_z_tree,
    is_z_tree,
    is_zigzag,
    validate_decomposition,
    z_decompose,
)
from .walks import (
    ColoredBipartite,
    enumerate_all_walks,
    extract_walk_free,
    find_forbidden_walk,
    size_bound,
)

GOLDEN_DIR = Path(__file__).resolve().parents[2] / "golden"

FH_STAGES = (1, 2, 4, 8, 16, 32)

_WALK_SETTINGS = (("fast", None), ("slow", "A"), ("slow", "B"))


@dataclass
class CheckResult:
    """One row of the verification report."""

    check_id: str
    name: str
    status: str  # "pass" | "fail"
    measured: dict = field(default_factory=dict)
    seconds: float = 0.0
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        return {**asdict(self), "seconds": round(self.seconds, 3)}


def _load_golden(filename: str) -> dict:
    path = GOLDEN_DIR / filename
    if not path.is_file():
        raise InputError(f"missing golden file {path}")
    with open(path) as fh:
        return json.load(fh)


def canonical_z_tree(a: int, b: int, c: int) -> tuple[OrderedGraph, ZDecomposition]:
    """The double-star z-tree realising the fan counts (a, b, c).

    On vertices [a+b+c+1]: every vertex left of j = a+b+1 is joined to j
    (the b leftmost as the hj-fan, the rest as a nested core ending in the
    hub (b+1, j)), and the ik-fan joins b+1 to everything right of j.  The
    returned decomposition is validated before use.
    """
    for what, x in (("a", a), ("b", b), ("c", c)):
        _check_int(what, x)
    if a < 1 or b < 0 or c < 0:
        raise InputError("fan counts need a >= 1 and b, c >= 0")
    k = a + b + c
    j = a + b + 1
    hub = (b + 1, j)
    core = tuple((x, j) for x in range(j - 1, b, -1))
    dec = ZDecomposition(
        hub=hub,
        core=core,
        s_j=tuple((h, j) for h in range(1, b + 1)),
        s_i=tuple((b + 1, y) for y in range(j + 1, k + 2)),
    )
    tree = OrderedGraph(k + 1, dec.edges())
    validate_decomposition(tree, dec)
    return tree, dec


def _fan_counts(k: int) -> Iterator[tuple[int, int, int]]:
    """Every (a, b, c) with a >= 1, b, c >= 0 and a + b + c = k, a then b ascending."""
    for a in range(1, k + 1):
        for b in range(k - a + 1):
            yield a, b, k - a - b


def _decompose(t):
    """The (cg) z-decomposition of a two-interval tree, or NotAZTree."""
    return z_decompose(t) if t.order == "linear" else cg_z_decompose(t)


def _z_trees(k: int, order: str) -> Iterator[tuple]:
    """Each (cg) z-tree with k edges in ``order``, with its decomposition."""
    for t in enumerate_trees(k, order, "chi2"):
        dec = _decompose(t)
        if dec:
            yield t, dec


# ---------------------------------------------------------------------------
# golden files: one builder each, which also checks the paper's rules for it


def _edge_lists(g) -> list[list[int]]:
    return [list(e) for e in g.edges]


def _golden_catalog() -> dict:
    cat = derive_obstructions(4)
    patterns = [{"n": p.n, "edges": _edge_lists(p), "provenance": prov}
                for p, prov in zip(cat.patterns, cat.provenance)]
    return {"max_edges": 4, "patterns": patterns}


def _golden_fh_assignment() -> dict:
    """Which 4-edge obstruction each fh_q / fh_r stage contains.

    The obstructions form two mirror pairs, pair1 and pair2 with members a and
    b, in lexicographic order.  fh_q must avoid one pair and contain both
    members of the other; fh_r must avoid one member of that other pair and
    contain its mirror at stage 4, on 8 vertices.
    """
    four = [p for p in derive_obstructions(4) if len(p.edges) == 4]
    pairs = sorted({tuple(sorted((p.edges, _linear_edges(p.n, p.edges, 0)))) for p in four})
    if len(four) != 4 or len(pairs) != 2:
        raise RuntimeError(f"expected two mirror pairs of 4-edge obstructions, got {pairs}")
    patterns = {f"pair{i}_{member}": OrderedGraph(5, edges)
                for i, pair in enumerate(pairs, 1) for member, edges in zip("ab", pair)}
    table = {}
    for variant, build in (("fh_q", fh_q), ("fh_r", fh_r)):
        hosts = {str(s): build(s) for s in FH_STAGES}
        table[variant] = {
            name: {s: p.n <= g.n and contains(g, p) for s, g in hosts.items()}
            for name, p in patterns.items()
        }
    seen = {v: {name for name, row in rows.items() if any(row.values())}
            for v, rows in table.items()}
    q_pair = [i for i in (1, 2) if not seen["fh_q"] & {f"pair{i}_a", f"pair{i}_b"}]
    if len(q_pair) != 1:
        raise RuntimeError(f"fh_q avoids {len(q_pair)} full mirror pairs, expected 1")
    r_pair = 3 - q_pair[0]
    other = {f"pair{r_pair}_a", f"pair{r_pair}_b"}
    if not other <= seen["fh_q"]:
        raise RuntimeError("fh_q misses a member of the non-avoided pair")
    kept = sorted(other & seen["fh_r"])
    if len(kept) != 1:
        raise RuntimeError(f"fh_r avoids {2 - len(kept)} members of pair{r_pair}, expected 1")
    if not table["fh_r"][kept[0]]["4"]:
        raise RuntimeError(f"fh_r(4) should contain {kept[0]} on 8 vertices")
    assignment = {"fh_q_avoids_pair": q_pair[0], "fh_r_pair": r_pair,
                  "fh_r_avoids": (other - seen["fh_r"]).pop(), "fh_r_contains": kept[0]}
    return {"stages": list(FH_STAGES), "contains": table, "assignment": assignment,
            "patterns": {name: _edge_lists(p) for name, p in patterns.items()}}


def _golden_extremal() -> dict:
    """Exact extremal numbers of the crossing 3-edge path for n = 6..8 and of
    every cg z-tree with 2 or 3 edges for n up to 7."""
    cases = [(n, OrderedGraph(4, CROSSING_P3_EDGES), "crossing 3-edge path") for n in (6, 7, 8)]
    cases += [(n, t, f"cg z-tree k={k}")
              for k in (2, 3) for t, _ in _z_trees(k, "cyclic") for n in range(k + 1, 8)]
    entries = []
    for n, p, note in cases:
        r = extremal_number(n, p)
        entries.append({"n": n, "mode": p.mode, "pattern": _edge_lists(p), "pattern_n": p.n,
                        "value": r.value, "witness": graph_to_dict(r.witness), "note": note})
    return {"entries": entries}


def _golden_extractions() -> dict:
    """The three walk-free extractions of f_16 and f_64 at seed 0, each no
    smaller than the size guarantee and the largest colour class, and each
    certified walk-free."""
    entries = []
    for n in (16, 64):
        g = ColoredBipartite.from_colored_graph(f_n(n))
        for kind, start in _WALK_SETTINGS:
            ext = extract_walk_free(g, kind, start, seed=0)
            label = f"extract(f_n({n}), {kind}, {start})"
            if ext.size < max(size_bound(len(g.edges), g.d), ext.largest_class):
                raise RuntimeError(f"{label}: size {ext.size} below the guarantee")
            witness = find_forbidden_walk(ext.subgraph, kind, start)
            if witness is not None:
                raise RuntimeError(f"{label}: not walk-free, found {witness}")
            entries.append({"graph": "f_n", "n": n, "kind": kind, "start": start, "seed": 0,
                            "bound": ext.bound, "largest_class": ext.largest_class,
                            "size": ext.size, "method": ext.method,
                            "edges": _edge_lists(ext.subgraph)})
    return {"entries": entries}


GOLDEN_FILES: dict[str, Callable[[], dict]] = {
    "obstruction_catalog.json": _golden_catalog,
    "fh_obstruction_assignment.json": _golden_fh_assignment,
    "extremal.json": _golden_extremal,
    "extraction_sizes.json": _golden_extractions,
}


def golden_text(name: str) -> str:
    """The golden file ``name`` as its builder recomputes it, byte for byte as stored."""
    return json.dumps(GOLDEN_FILES[name](), indent=1, sort_keys=True) + "\n"


def _leaf_diffs(path: str, got, want) -> Iterator[str]:
    if isinstance(got, dict) and isinstance(want, dict) and got.keys() == want.keys():
        for key in sorted(got):
            yield from _leaf_diffs(f"{path}/{key}", got[key], want[key])
    elif isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _leaf_diffs(f"{path}/{i}", g, w)
    elif type(got) is not type(want) or got != want:
        yield f"{path}: recomputed {reprlib.repr(got)}, golden {reprlib.repr(want)}"


def _golden_diffs(name: str) -> list[str]:
    """Each leaf where the recomputed golden file differs from the frozen one,
    named by its path, in file order; a dict with other keys or a list of
    another length counts as one leaf.  A paper rule that the builder finds
    broken is one failure, so the calling check still runs its other half."""
    try:
        text = golden_text(name)
    except RuntimeError as exc:
        return [f"{name}: {exc}"]
    return list(_leaf_diffs(name, json.loads(text), _load_golden(name)))


# ---------------------------------------------------------------------------
# c01 -- exact linear extremal formula


def _c01_linear_formula(seed: int) -> tuple[dict, list[str]]:
    """extremal_number == (k-1)n - C(k,2) for every z-tree, k in 2..4, n in k+1..7.

    Mirror twins share their extremal numbers (reverse the host's labels),
    so only one representative per mirror pair is solved.
    """
    failures: list[str] = []
    reps: set[tuple] = set()
    cells = 0
    for k in (2, 3, 4):
        formula = LinearFormula(k)
        for t, _ in _z_trees(k, "linear"):
            key = min(t.edges, _linear_edges(t.n, t.edges, 0))
            if key in reps:
                continue
            reps.add(key)
            for n in range(k + 1, 8):
                got = extremal_number(n, t).value
                want = formula.value(n)
                cells += 1
                if got != want:
                    failures.append(f"value({n}, {t.edges}) = {got}, expected {want}")
    return {"z_tree_reps": len(reps), "cells": cells}, failures


# ---------------------------------------------------------------------------
# c02, c03 -- the decomposition route against the forbidden configurations


def _route_sweep(order: str, obstructed: Callable, failures: list[str]) -> tuple[int, int]:
    """Each two-interval tree in ``order`` with 2..5 edges must decompose exactly
    when ``obstructed`` finds no forbidden configuration in it; returns the
    numbers of trees and of (cg) z-trees seen."""
    trees = zs = 0
    for k in range(2, 6):
        for t in enumerate_trees(k, order, "chi2"):
            decomposed = bool(_decompose(t))
            found = obstructed(t)
            trees += 1
            zs += decomposed
            if decomposed == found:
                failures.append(f"{t.mode} {t.edges}: decomposes={decomposed}, obstructed={found}")
    return trees, zs


def _c02_linear_obstructions(seed: int) -> tuple[dict, list[str]]:
    """z_decompose succeeds iff no catalog pattern embeds, all trees <= 5 edges.

    Also compares golden/obstruction_catalog.json with its recomputation and
    confirms that raising the derivation bound to 5 edges adds no new pattern.
    """
    failures = _golden_diffs("obstruction_catalog.json")
    catalog = derive_obstructions(4)
    if [t.edges for t in derive_obstructions(5)] != [t.edges for t in catalog]:
        failures.append("5-edge derivation changed the catalog")
    trees, zs = _route_sweep(
        "linear", lambda t: any(p.n <= t.n and contains(t, p) for p in catalog), failures
    )
    return {"trees": trees, "z_trees": zs, "catalog": len(catalog)}, failures


def _c03_cyclic_structure(seed: int) -> tuple[dict, list[str]]:
    """cg_z_decompose succeeds iff no crossing 4-edge path and no twin pair."""
    failures: list[str] = []
    trees, zs = _route_sweep("cyclic", lambda t: bool(
        detect_crossing_path4(t) or detect_twin_crossing_paths(t)), failures)
    return {"trees": trees, "cg_z_trees": zs}, failures


# ---------------------------------------------------------------------------
# c04 -- construction avoidance


def _c04_construction_avoidance(seed: int) -> tuple[dict, list[str]]:
    """pow2 avoids the crossing 3-edge pattern; the fh table matches golden.

    The recomputed golden/fh_obstruction_assignment.json fixes, per variant
    and stage, which of the four 4-edge catalog patterns embeds; its builder
    raises unless the table has the shape the paper proves.
    """
    failures = _golden_diffs("fh_obstruction_assignment.json")
    p = OrderedGraph(4, CROSSING_P3_EDGES)
    for n in range(2, 65):
        if p.n <= n and contains(pow2(n), p):
            failures.append(f"pow2({n}) contains the crossing 3-edge pattern")
    # two variants times the four 4-edge obstructions the builder requires
    return {"pow2_hosts": 63, "containments": 2 * 4 * len(FH_STAGES)}, failures


# ---------------------------------------------------------------------------
# c05 -- edge-count identities


def _c05_edge_counts(seed: int) -> tuple[dict, list[str]]:
    """Closed-form edge counts of every construction; the builders do not
    check their own, so this is the one place each closed form is held."""
    failures: list[str] = []
    checked = 0
    for n in range(2, 65):
        want = sum(n - 2**h for h in range(n.bit_length()) if 2**h < n)
        checked += 1
        if len(pow2(n).edges) != want:
            failures.append(f"pow2({n}) has {len(pow2(n).edges)} edges, not {want}")
    for build, label in ((fh_q, "fh_q"), (fh_r, "fh_r")):
        for s in FH_STAGES:
            # f(s) = s log2(s) / 2 + s, an integer since s is a power of two.
            want = s * (s.bit_length() - 1) // 2 + s
            checked += 1
            if len(build(s).edges) != want:
                failures.append(f"{label}({s}) edge count != {want}")
    for k in range(2, 6):
        for a, b, c in _fan_counts(k):
            for n in range(k + 1, 21):
                want = (k - 1) * n - k * (k - 1) // 2
                checked += 1
                if len(gstar(n, a, b, c).edges) != want:
                    failures.append(f"gstar({n},{a},{b},{c}) edge count != {want}")
    for n in (8, 16, 32, 64):
        kappa = n.bit_length() - 1
        checked += 1
        if len(f_n(n).edges) != (kappa - 1) * n // 4:
            failures.append(f"f_n({n}) edge count != {(kappa - 1) * n // 4}")
    for n in range(2, 65, 2):
        checked += 1
        if len(f_n0(n).edges) != (n // 2) ** 2:
            failures.append(f"f_n0({n}) edge count != {(n // 2) ** 2}")
    return {"identities": checked}, failures


# ---------------------------------------------------------------------------
# c06 -- matching-host properties


def _c06_matching_hosts(seed: int) -> tuple[dict, list[str]]:
    """f_n edges run odd -> even with no heavy path; f_n0 avoids the cg 3-path L.

    A heavy path has edges ab, bc, cd with b < d < a < c.  Relabelling b, d,
    a, c as 1 < 2 < 3 < 4 turns its edges into (1,3), (1,4), (2,4), the
    crossing 3-edge pattern, so f_n has no heavy path exactly when its edges,
    read on a line, do not contain that ordered pattern.
    """
    failures: list[str] = []
    heavy = OrderedGraph(4, CROSSING_P3_EDGES)
    for n in (8, 16, 32, 64):
        g = f_n(n)
        for u, v in g.edges:
            if u % 2 == 0 or v % 2 == 1:
                failures.append(f"f_n({n}) edge ({u},{v}) is not odd-to-even")
        if contains(OrderedGraph._trusted(g.n, g.edges), heavy):
            failures.append(f"f_n({n}) has a heavy path")
    ell = CgGraph(4, [(1, 2), (2, 3), (3, 4)])
    hosts = 0
    for n in range(4, 65, 2):
        hosts += 1
        if contains(f_n0(n), ell):
            failures.append(f"f_n0({n}) contains the 3-edge cg path L")
    return {"f_n_sizes": 4, "f_n0_hosts": hosts}, failures


# ---------------------------------------------------------------------------
# c07 -- census of cyclic 4-edge path types


def cyclic_path_types() -> list[CgGraph]:
    """All 24 placements of the 4-edge path on 5 cyclic positions, first at 1.

    Fixing the first path vertex at position 1 quotients out rotation; the
    reversal of a path reappears as another permutation, which only repeats
    a type and never loses one.
    """
    out = []
    for rest in permutations(range(2, 6)):
        sigma = (1,) + rest
        out.append(CgGraph(5, [(sigma[i], sigma[i + 1]) for i in range(4)]))
    return out


def _c07_cyclic_path_census(seed: int) -> tuple[dict, list[str]]:
    """Only the zigzag type survives in the four sparse/walk-free hosts.

    Hosts: f_n0(64) and the three walk-free extractions of f_n(64) (fast,
    slow from A, slow from B, all at seed 0).  Every non-zigzag type must be
    missing from at least one host; the zigzag type must appear in at least
    one.
    """
    failures: list[str] = []
    hosts: list[tuple[str, CgGraph]] = [("f_n0(64)", f_n0(64))]
    big = ColoredBipartite.from_colored_graph(f_n(64))
    for kind, side in _WALK_SETTINGS:
        ext = extract_walk_free(big, kind, side, seed=0)
        label = f"{kind}-free" + (f"-from-{side}" if side else "")
        hosts.append(
            (label, CgGraph(64, [(u, v) for u, v, _ in ext.subgraph.edges]))
        )
    zigzags = 0
    for t in cyclic_path_types():
        hits = {label: contains(h, t) for label, h in hosts}
        if is_zigzag(t):
            zigzags += 1
            if not any(hits.values()):
                failures.append(f"zigzag type {t.edges} embeds in no host")
        elif all(hits.values()):
            failures.append(f"non-zigzag type {t.edges} embeds in every host: {hits}")
    return {"types": 24, "zigzag_types": zigzags, "hosts": len(hosts)}, failures


# ---------------------------------------------------------------------------
# c08 -- walk machinery


def _random_colored_bipartite(rng: random.Random) -> ColoredBipartite:
    na, nb = rng.randint(1, 5), rng.randint(1, 5)
    side_a = range(1, na + 1)
    side_b = range(na + 1, na + nb + 1)
    pairs = [(a, b) for a in side_a for b in side_b]
    rng.shuffle(pairs)
    d = rng.randint(1, 5)
    used: dict[int, set[int]] = {}
    edges = []
    for a, b in pairs[: rng.randint(0, min(14, len(pairs)))]:
        free = [
            col
            for col in range(1, d + 1)
            if col not in used.get(a, set()) and col not in used.get(b, set())
        ]
        if not free:
            continue
        col = rng.choice(free)
        edges.append((a, b, col))
        used.setdefault(a, set()).add(col)
        used.setdefault(b, set()).add(col)
    return ColoredBipartite(side_a, side_b, edges, d=d)


def _c08_walk_machinery(seed: int) -> tuple[dict, list[str]]:
    """Extractions reproduce golden and certify; detector == full enumeration.

    The recomputed golden/extraction_sizes.json must match the frozen file;
    its builder certifies each extraction.  The agreement half runs the
    one-witness detector against the brute-force enumeration of all 4-edge
    walks on a generated family of small colored graphs (f_n(8), every union
    of color classes of f_n(16), and seeded random properly-colored bipartite
    graphs with at most 14 edges), under all three kind/start-side settings.
    """
    failures = _golden_diffs("extraction_sizes.json")

    family: list[ColoredBipartite] = [ColoredBipartite.from_colored_graph(f_n(8))]
    f16 = ColoredBipartite.from_colored_graph(f_n(16))
    classes = f16.color_classes()
    for r in range(1, len(classes) + 1):
        for chosen in combinations(sorted(classes), r):
            keep = [e for col in chosen for e in classes[col]]
            family.append(f16.subgraph(keep))
    rng = random.Random(f"{seed}-c08")
    family.extend(_random_colored_bipartite(rng) for _ in range(80))

    agreements = 0
    for g in family:
        for kind, side in _WALK_SETTINGS:
            walks = enumerate_all_walks(g, kind, side)
            for w in walks:
                try:
                    w.check(g, side)
                except AssertionError as exc:
                    failures.append(f"enumerated walk {w} invalid: {exc}")
            witness = find_forbidden_walk(g, kind, side)
            agreements += 1
            if (witness is not None) != bool(walks):
                failures.append(
                    f"detector={witness} vs {len(walks)} enumerated "
                    f"({kind}, {side}, {len(g.edges)} edges)"
                )
            elif witness is not None and witness not in walks:
                failures.append(f"detector witness {witness} not in enumeration")
    return {"extractions": 6, "graphs": len(family), "agreements": agreements}, failures


# ---------------------------------------------------------------------------
# c09 -- dense embedding guarantee


def _random_subgraph(rng: random.Random, n: int, num_edges: int, cyclic: bool):
    # the pairs are normalised and distinct, so sorted they need no validation
    pool = list(combinations(range(1, n + 1), 2))
    picked = tuple(sorted(rng.sample(pool, num_edges)))
    return (CgGraph if cyclic else OrderedGraph)._trusted(n, picked)


def _c09_dense_embedding(seed: int) -> tuple[dict, list[str]]:
    """Above the edge threshold embed_dense always succeeds; on gstar it finds nothing.

    1000 seeded hosts per (order, k, n) cell, each with more edges than the
    threshold (k-1)n - C(k,2), which holds for ordered and cg hosts alike.
    Each is paired round-robin with a decomposed (cg) z-tree with k edges.
    The negative half feeds gstar(n, a, b, c) the matching double-star
    z-tree: embed_dense must return None, and (as the hosts are small) a
    full containment check confirms the tree is genuinely absent.
    """
    failures: list[str] = []
    rng = random.Random(f"{seed}-c09")
    cells = [("linear", k, n) for k in (3, 4) for n in (6, 7, 8)]
    cells += [("cyclic", k, n) for k, n in ((2, 8), (3, 12))]
    pools = {(o, k): list(_z_trees(k, o)) for o, k in {(o, k) for o, k, _ in cells}}
    embeds = 0
    for order, k, n in cells:
        pool = pools[order, k]
        threshold, top = LinearFormula(k).value(n), n * (n - 1) // 2
        for trial in range(1000):
            host = _random_subgraph(rng, n, rng.randint(threshold + 1, top), order == "cyclic")
            tree, dec = pool[trial % len(pool)]
            if embed_dense(host, dec) is None:
                failures.append(
                    f"no embedding of {tree.edges} in a {len(host.edges)}-edge "
                    f"{host.mode} host on {n} vertices (trial {trial})"
                )
            embeds += 1

    negatives = 0
    for k in range(2, 5):
        for a, b, c in _fan_counts(k):
            tree, dec = canonical_z_tree(a, b, c)
            for n in range(k + 1, 13):
                host = gstar(n, a, b, c)
                negatives += 1
                if embed_dense(host, dec) is not None:
                    failures.append(f"gstar({n},{a},{b},{c}) embedded {tree.edges}")
                if contains(host, tree):
                    failures.append(f"gstar({n},{a},{b},{c}) contains {tree.edges}")
    return {"embeddings": embeds, "gstar_negatives": negatives}, failures


# ---------------------------------------------------------------------------
# c10 -- solver agrees with the naive oracle


def _c10_solver_oracle(seed: int) -> tuple[dict, list[str]]:
    """Branch-and-bound equals full 2^C(n,2) enumeration for n <= 5.

    The patterns are the ordered obstructions and z-trees and every cg tree
    with up to 3 edges, whose solves prune by rotation and reflection.  The
    recomputed golden/extremal.json must also match the frozen file.
    """
    failures = _golden_diffs("extremal.json")
    patterns: list[OrderedGraph | CgGraph] = list(derive_obstructions(4))
    for k in (1, 2, 3):
        patterns.extend(t for t, _ in _z_trees(k, "linear"))
        patterns.extend(enumerate_trees(k, "cyclic"))
    comparisons = 0
    for pat in patterns:
        for n in range(max(2, pat.n), 6):
            fast = extremal_number(n, pat).value
            naive, _ = oracle_extremal_number(n, pat)
            comparisons += 1
            if fast != naive:
                failures.append(
                    f"value({n}, {pat.edges}): branch-and-bound {fast} != naive {naive}"
                )
    return {"patterns": len(patterns), "comparisons": comparisons}, failures


# ---------------------------------------------------------------------------
# c11 -- metamorphic invariances


def _verdict_key(v) -> tuple:
    return (v.kind, v.k, v.chi, v.growth_tag, str(v.formula) if v.formula else None)


def _c11_metamorphic(seed: int) -> tuple[dict, list[str]]:
    """Mirror, rotation and reflection never change any classification or query.

    Sweeps the full tree enumerations up to 5 edges for the unary invariants
    and samples seeded (host, pattern) tree pairs for containment, since the
    full quadratic pairing is redundant. A transform hands its split on to
    its result, so χ and z-status are computed on a copy of each transform
    built by the validating constructor, which starts with nothing kept, and
    the split the transform carries must equal that copy's.
    """
    failures: list[str] = []
    trees: dict[tuple[str, int], list] = {}
    instances = 0
    for order, chi, split, is_z, flip in (
            ("linear", chi_interval, interval_split, is_z_tree, mirror),
            ("cyclic", chi_cyclic, cyclic_split, is_cg_z_tree, reflect)):
        for k in range(1, 6):
            trees[order, k] = list(enumerate_trees(k, order, "all"))
            for t in trees[order, k]:
                instances += 1
                invariants = (chi(t), is_z(t))
                flipped = flip(t)
                moved = [(f"rotation by {r}", rotate(t, r)) for r in range(1, t.n)
                         if order == "cyclic"]
                for how, u in moved + [(flip.__name__, flipped)]:
                    fresh = type(u)(u.n, u.edges)
                    if (chi(fresh), is_z(fresh)) != invariants:
                        failures.append(f"{t.mode} {t.edges}: chi or z-status changed under {how}")
                    if split(u) != split(fresh):
                        failures.append(f"{t.mode} {t.edges}: split carried under {how} "
                                        "differs from a fresh scan")
                if _verdict_key(classify_tree(flipped)) != _verdict_key(classify_tree(t)):
                    failures.append(f"{t.mode} {t.edges}: verdict changed under {flip.__name__}")

    # First-hit queries may refute in a mirrored or rotated orientation, so
    # both sides of a pair can run the same search; each side is therefore
    # also held to the brute-force oracle on the original pair.
    rng = random.Random(f"{seed}-c11")
    samples = 0
    for order in ("linear", "cyclic"):
        for _ in range(300):
            host = rng.choice(trees[order, 5])
            pat = rng.choice(trees[order, rng.randint(1, 3)])
            expected = oracle_contains(host, pat)
            moved = [("as given", host, pat)]
            if order == "cyclic":
                r, s = rng.randrange(host.n), rng.randrange(pat.n)
                moved += [("under rotation", rotate(host, r), rotate(pat, s)),
                          ("under reflection", reflect(host), reflect(pat))]
            else:
                moved.append(("under mirror", mirror(host), mirror(pat)))
            samples += 1
            for how, h, p in moved:
                if contains(h, p) != expected:
                    failures.append(f"{host.mode} containment {how} disagrees with "
                                    f"the oracle: {host.edges}")
    return {"unary_instances": instances, "containment_samples": samples}, failures


# ---------------------------------------------------------------------------
# registry and runners

CHECKS: dict[str, tuple[str, Callable[[int], tuple[dict, list[str]]]]] = {
    "c01": ("linear extremal formula", _c01_linear_formula),
    "c02": ("ordered obstruction equivalence", _c02_linear_obstructions),
    "c03": ("cyclic structure equivalence", _c03_cyclic_structure),
    "c04": ("construction avoidance", _c04_construction_avoidance),
    "c05": ("edge-count identities", _c05_edge_counts),
    "c06": ("matching-host properties", _c06_matching_hosts),
    "c07": ("cyclic path census", _c07_cyclic_path_census),
    "c08": ("walk machinery", _c08_walk_machinery),
    "c09": ("dense embedding guarantee", _c09_dense_embedding),
    "c10": ("solver oracle agreement", _c10_solver_oracle),
    "c11": ("metamorphic invariances", _c11_metamorphic),
}

CHECK_IDS = tuple(CHECKS)

_DETAIL_CAP = 5


def _require_check(check_id: str) -> None:
    if type(check_id) is not str or check_id not in CHECKS:
        raise InputError(f"unknown check {check_id!r}; expected one of {CHECK_IDS}")


def run_check(check_id: str, seed: int = 0) -> CheckResult:
    """Run one check; unexpected exceptions fail it rather than the suite."""
    _require_check(check_id)
    _check_int("seed", seed)
    name, fn = CHECKS[check_id]
    start = time.perf_counter()
    try:
        measured, failures = fn(seed)
    except Exception:
        measured, failures = {}, [traceback.format_exc(limit=3).strip().splitlines()[-1]]
    seconds = time.perf_counter() - start
    detail = "; ".join(failures[:_DETAIL_CAP])
    if len(failures) > _DETAIL_CAP:
        detail += f"; ... {len(failures) - _DETAIL_CAP} more"
    return CheckResult(check_id, name, "fail" if failures else "pass", measured, seconds, detail)


def run_suite(
    check_ids: Optional[Iterable[str]] = None,
    *,
    seed: int = 0,
) -> Iterator[CheckResult]:
    """Run the requested checks serially in this process, each timed in it,
    and yield each result as its check finishes, in id order. The ids, at
    least one, and the seed are checked at the call, so nothing runs on a
    bad request: a string, a non-iterable, an unknown id or one named twice."""
    if check_ids is None:
        ids = list(CHECK_IDS)
    elif isinstance(check_ids, str) or not isinstance(check_ids, Iterable):
        raise InputError(f"check_ids must be a collection of check ids, got {check_ids!r}")
    else:
        ids = list(check_ids)
    if not ids:
        raise InputError("no check selected")
    for cid in ids:
        _require_check(cid)
    if len(set(ids)) < len(ids):
        raise InputError(f"a check is selected more than once: {ids}")
    _check_int("seed", seed)
    return (run_check(cid, seed) for cid in sorted(ids))


def all_passed(results: Iterable[CheckResult]) -> bool:
    return all(r.passed for r in results)


def write_csv(results: Iterable[CheckResult], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check_id", "name", "status", "seconds", "measured", "detail"])
        for r in results:
            writer.writerow(
                [
                    r.check_id,
                    r.name,
                    r.status,
                    f"{r.seconds:.3f}",
                    json.dumps(r.measured, sort_keys=True),
                    r.detail,
                ]
            )


def write_json(results: Iterable[CheckResult], path) -> None:
    rows = [r.as_dict() for r in results]
    payload = {"passed": all(r["status"] == "pass" for r in rows), "results": rows}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
