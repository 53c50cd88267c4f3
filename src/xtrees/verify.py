"""The release gate: every shipped guarantee as an executable pass/fail check.

Eleven checks (c01..c11) cover the public surface: the exact linear extremal
formula, the obstruction characterisations in both vertex orders, avoidance
and edge-count guarantees of the named constructions, the matching-host
properties, the cyclic path census, walk extraction, dense embedding, the
solver/oracle agreement and a metamorphic invariance sweep.  Frozen expected
values live under ``golden/`` at the repository root; checks that consume
them recompute everything and compare.

``run_suite`` runs checks in worker processes (process count from ``--jobs``,
by default the CPU count capped at 4; one job runs them serially in this
process), times each check inside the process that runs it, and reports in
check-id order, independent of completion order.  ``write_csv`` /
``write_json`` serialise a report.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import random
import time
import traceback
from dataclasses import dataclass, field
from itertools import combinations, permutations
from pathlib import Path
from typing import Callable, Iterable, Optional

from .constructions import f_n, f_n0, fh_q, fh_r, gstar, pow2
from .containment import contains
from .errors import InputError
from .order import (
    CgGraph,
    OrderedGraph,
    chi_cyclic,
    chi_interval,
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
    status: str  # "pass" | "fail" | "skip"
    measured: dict = field(default_factory=dict)
    seconds: float = 0.0
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "name": self.name,
            "status": self.status,
            "measured": self.measured,
            "seconds": round(self.seconds, 3),
            "detail": self.detail,
        }


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


def _z_trees(k: int) -> list[OrderedGraph]:
    return [t for t in enumerate_trees(k, "linear", "chi2") if is_z_tree(t)]


def _cg_z_trees(k: int) -> list[CgGraph]:
    return [t for t in enumerate_trees(k, "cyclic", "chi2") if is_cg_z_tree(t)]


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
        for t in _z_trees(k):
            key = min(t.edges, mirror(t).edges)
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
# c02 -- ordered obstruction equivalence


def _c02_linear_obstructions(seed: int) -> tuple[dict, list[str]]:
    """z_decompose succeeds iff no catalog pattern embeds, all trees <= 5 edges.

    Also pins the derived catalog against its golden copy and confirms that
    raising the derivation bound to 5 edges adds no new pattern.
    """
    failures: list[str] = []
    catalog = derive_obstructions(4)
    golden = _load_golden("obstruction_catalog.json")
    frozen = [tuple(tuple(e) for e in p["edges"]) for p in golden["patterns"]]
    if [t.edges for t in catalog] != frozen:
        failures.append("derived catalog differs from golden/obstruction_catalog.json")
    if [t.edges for t in derive_obstructions(5)] != [t.edges for t in catalog]:
        failures.append("5-edge derivation changed the catalog")
    trees = zs = 0
    for k in range(2, 6):
        for t in enumerate_trees(k, "linear", "chi2"):
            decomposed = is_z_tree(t)
            obstructed = any(p.n <= t.n and contains(t, p) for p in catalog)
            trees += 1
            zs += decomposed
            if decomposed == obstructed:
                failures.append(
                    f"{t.edges}: z-tree={decomposed} but obstruction found={obstructed}"
                )
    return {"trees": trees, "z_trees": zs, "catalog": len(catalog)}, failures


# ---------------------------------------------------------------------------
# c03 -- cyclic structure equivalence


def _c03_cyclic_structure(seed: int) -> tuple[dict, list[str]]:
    """cg_z_decompose succeeds iff no crossing 4-edge path and no twin pair."""
    failures: list[str] = []
    trees = zs = 0
    for k in range(2, 6):
        for t in enumerate_trees(k, "cyclic", "chi2"):
            decomposed = bool(is_cg_z_tree(t))
            clean = (
                detect_crossing_path4(t) is None
                and detect_twin_crossing_paths(t) is None
            )
            trees += 1
            zs += decomposed
            if decomposed != clean:
                failures.append(
                    f"{t.edges}: cg-z-tree={decomposed}, configuration-free={clean}"
                )
    return {"trees": trees, "cg_z_trees": zs}, failures


# ---------------------------------------------------------------------------
# c04 -- construction avoidance


def _c04_construction_avoidance(seed: int) -> tuple[dict, list[str]]:
    """pow2 avoids the crossing 3-edge pattern; fh containments match golden.

    The golden table fixes, per variant and stage, which of the four 4-edge
    catalog patterns embeds.  Beyond equality with the table, the shape of
    the assignment is asserted directly: one mirror pair is avoided by fh_q
    at every stage while both members of the other pair appear, and fh_r
    avoids exactly one member of that other pair while containing its mirror
    already on 8 vertices.
    """
    failures: list[str] = []
    p = OrderedGraph(4, CROSSING_P3_EDGES)
    for n in range(2, 65):
        if p.n <= n and contains(pow2(n), p):
            failures.append(f"pow2({n}) contains the crossing 3-edge pattern")
    golden = _load_golden("fh_obstruction_assignment.json")
    patterns = {
        name: OrderedGraph(5, [tuple(e) for e in edges])
        for name, edges in golden["patterns"].items()
    }
    table: dict[str, dict[str, dict[int, bool]]] = {}
    for variant, build in (("fh_q", fh_q), ("fh_r", fh_r)):
        table[variant] = {name: {} for name in patterns}
        for s in FH_STAGES:
            g = build(s)
            for name, pat in patterns.items():
                got = pat.n <= g.n and contains(g, pat)
                table[variant][name][s] = got
                want = golden["contains"][variant][name][str(s)]
                if got != want:
                    failures.append(
                        f"{variant}({s}) vs {name}: contains={got}, golden says {want}"
                    )

    def avoided(variant: str, name: str) -> bool:
        return not any(table[variant][name].values())

    pairs = (("pair1_a", "pair1_b"), ("pair2_a", "pair2_b"))
    q_avoided = [pair for pair in pairs if all(avoided("fh_q", m) for m in pair)]
    if len(q_avoided) != 1:
        failures.append(f"fh_q avoids {len(q_avoided)} full mirror pairs, expected 1")
    else:
        other = pairs[0] if q_avoided[0] == pairs[1] else pairs[1]
        if not all(any(table["fh_q"][m].values()) for m in other):
            failures.append("fh_q misses a member of the non-avoided pair")
        r_avoided = [m for m in other if avoided("fh_r", m)]
        if len(r_avoided) != 1:
            failures.append(
                f"fh_r avoids {len(r_avoided)} members of {other}, expected exactly 1"
            )
        else:
            kept = other[0] if r_avoided[0] == other[1] else other[1]
            if not table["fh_r"][kept][4]:
                failures.append(f"fh_r(4) should contain {kept} on 8 vertices")
    return {"pow2_hosts": 63, "containments": len(patterns) * len(FH_STAGES) * 2}, failures


# ---------------------------------------------------------------------------
# c05 -- edge-count identities


def _c05_edge_counts(seed: int) -> tuple[dict, list[str]]:
    """Closed-form edge counts of every construction, recomputed from scratch."""
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
        for a in range(1, k + 1):
            for b in range(0, k - a + 1):
                c = k - a - b
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
    return {"identities": checked}, failures


# ---------------------------------------------------------------------------
# c06 -- matching-host properties


def _heavy_path(g: CgGraph) -> Optional[tuple[int, int, int, int]]:
    """A 3-edge path a-b-c-d whose labels satisfy b < d < a < c, if any."""
    adj: dict[int, list[int]] = {}
    for u, v in g.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for b, nbrs in adj.items():
        for a in nbrs:
            for c in nbrs:
                if c == a:
                    continue
                for d in adj[c]:
                    if d in (a, b):
                        continue
                    if b < d < a < c:
                        return (a, b, c, d)
    return None


def _c06_matching_hosts(seed: int) -> tuple[dict, list[str]]:
    """f_n edges run odd -> even with no heavy path; f_n0 avoids the cg 3-path L."""
    failures: list[str] = []
    for n in (8, 16, 32, 64):
        g = f_n(n)
        for u, v in g.edges:
            if u % 2 == 0 or v % 2 == 1:
                failures.append(f"f_n({n}) edge ({u},{v}) is not odd-to-even")
        found = _heavy_path(g)
        if found is not None:
            failures.append(f"f_n({n}) has heavy path {found}")
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

    The agreement half runs the one-witness detector against the brute-force
    enumeration of all 4-edge walks on a generated family of small colored
    graphs (f_n(8), every union of color classes of f_n(16), and seeded
    random properly-colored bipartite graphs with at most 14 edges), under
    all three kind/start-side settings.
    """
    failures: list[str] = []
    for entry in _load_golden("extraction_sizes.json")["entries"]:
        g = ColoredBipartite.from_colored_graph(f_n(entry["n"]))
        ext = extract_walk_free(g, entry["kind"], entry["start"], seed=entry["seed"])
        label = f"extract(f_n({entry['n']}), {entry['kind']}, {entry['start']})"
        for key, got in (
            ("size", ext.size),
            ("method", ext.method),
            ("bound", ext.bound),
            ("largest_class", ext.largest_class),
            ("edges", [list(e) for e in ext.subgraph.edges]),
        ):
            if got != entry[key]:
                failures.append(f"{label}: {key}={got!r}, golden {entry[key]!r}")
        if ext.size < size_bound(len(g.edges), g.d):
            failures.append(f"{label}: size {ext.size} below the guarantee")
        if ext.size < ext.largest_class:
            failures.append(f"{label}: size below the largest color class")
        witness = find_forbidden_walk(ext.subgraph, entry["kind"], entry["start"])
        if witness is not None:
            failures.append(f"{label}: not walk-free, found {witness}")

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
    pool = list(combinations(range(1, n + 1), 2))
    picked = rng.sample(pool, num_edges)
    return CgGraph(n, picked) if cyclic else OrderedGraph(n, picked)


def _c09_dense_embedding(seed: int) -> tuple[dict, list[str]]:
    """Above the edge threshold embed_dense always succeeds; on gstar it finds nothing.

    1000 seeded hosts per cell, each paired round-robin with a decomposed
    (cg) z-tree of the cell's edge count.  The negative half feeds
    gstar(n, a, b, c) the matching double-star z-tree: embed_dense must
    return None, and (as the hosts are small) a full containment check
    confirms the tree is genuinely absent.
    """
    failures: list[str] = []
    rng = random.Random(f"{seed}-c09")
    embeds = 0

    lin = {k: [(t, z_decompose(t)) for t in _z_trees(k)] for k in (3, 4)}
    for k in (3, 4):
        for n in (6, 7, 8):
            threshold = (k - 1) * n - k * (k - 1) // 2
            top = n * (n - 1) // 2
            for trial in range(1000):
                host = _random_subgraph(
                    rng, n, rng.randint(threshold + 1, top), cyclic=False
                )
                tree, dec = lin[k][trial % len(lin[k])]
                if embed_dense(host, dec) is None:
                    failures.append(
                        f"no embedding of {tree.edges} in a {len(host.edges)}-edge "
                        f"ordered host on {n} vertices (trial {trial})"
                    )
                embeds += 1

    cyc = {k: [(t, cg_z_decompose(t)) for t in _cg_z_trees(k)] for k in (2, 3)}
    for k, n in ((2, 8), (3, 12)):
        threshold = 2 * (k - 1) * n
        top = n * (n - 1) // 2
        for trial in range(1000):
            host = _random_subgraph(
                rng, n, rng.randint(threshold + 1, top), cyclic=True
            )
            tree, dec = cyc[k][trial % len(cyc[k])]
            if embed_dense(host, dec) is None:
                failures.append(
                    f"no embedding of cg {tree.edges} in a {len(host.edges)}-edge "
                    f"host on {n} vertices (trial {trial})"
                )
            embeds += 1

    negatives = 0
    for k in range(2, 5):
        for a in range(1, k + 1):
            for b in range(0, k - a + 1):
                c = k - a - b
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
    """Branch-and-bound equals full 2^C(n,2) enumeration for n <= 5."""
    failures: list[str] = []
    patterns: list[OrderedGraph] = list(derive_obstructions(4))
    for k in (1, 2, 3):
        patterns.extend(_z_trees(k))
    comparisons = 0
    for pat in patterns:
        for n in range(max(2, pat.n), 6):
            fast = extremal_number(n, pat).value
            naive = extremal_number(n, pat, naive=True).value
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
    full quadratic pairing is redundant.
    """
    failures: list[str] = []
    instances = 0
    ordered: dict[int, list[OrderedGraph]] = {}
    for k in range(1, 6):
        ordered[k] = list(enumerate_trees(k, "linear", "all"))
        for t in ordered[k]:
            m = mirror(t)
            instances += 1
            if chi_interval(t) != chi_interval(m):
                failures.append(f"chi_interval changed under mirror: {t.edges}")
            if is_z_tree(t) != is_z_tree(m):
                failures.append(f"z-tree status changed under mirror: {t.edges}")
            if _verdict_key(classify_tree(t)) != _verdict_key(classify_tree(m)):
                failures.append(f"verdict changed under mirror: {t.edges}")

    cyclic: dict[int, list[CgGraph]] = {}
    for k in range(1, 6):
        cyclic[k] = list(enumerate_trees(k, "cyclic", "all"))
        for t in cyclic[k]:
            chi = chi_cyclic(t)
            zt = bool(is_cg_z_tree(t))
            key = _verdict_key(classify_tree(t))
            instances += 1
            for r in range(1, t.n):
                rt = rotate(t, r)
                if chi_cyclic(rt) != chi or bool(is_cg_z_tree(rt)) != zt:
                    failures.append(f"rotation by {r} changed {t.edges}")
            rf = reflect(t)
            if chi_cyclic(rf) != chi or bool(is_cg_z_tree(rf)) != zt:
                failures.append(f"reflection changed {t.edges}")
            if _verdict_key(classify_tree(rf)) != key:
                failures.append(f"verdict changed under reflection: {t.edges}")

    rng = random.Random(f"{seed}-c11")
    samples = 0
    for _ in range(300):
        host = rng.choice(ordered[5])
        pat = rng.choice(ordered[rng.randint(1, 3)])
        samples += 1
        if contains(host, pat) != contains(mirror(host), mirror(pat)):
            failures.append(f"ordered containment broke under mirror: {host.edges}")
    for _ in range(300):
        host = rng.choice(cyclic[5])
        pat = rng.choice(cyclic[rng.randint(1, 3)])
        expected = contains(host, pat)
        r, s = rng.randrange(host.n), rng.randrange(pat.n)
        samples += 1
        if contains(rotate(host, r), rotate(pat, s)) != expected:
            failures.append(f"cyclic containment broke under rotation: {host.edges}")
        if contains(reflect(host), reflect(pat)) != expected:
            failures.append(f"cyclic containment broke under reflection: {host.edges}")
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


def run_check(check_id: str, seed: int = 0) -> CheckResult:
    """Run one check; unexpected exceptions fail it rather than the suite."""
    if check_id not in CHECKS:
        raise InputError(f"unknown check {check_id!r}; expected one of {CHECK_IDS}")
    name, fn = CHECKS[check_id]
    start = time.perf_counter()
    try:
        measured, failures = fn(seed)
    except Exception:
        return CheckResult(
            check_id,
            name,
            "fail",
            {},
            time.perf_counter() - start,
            traceback.format_exc(limit=3).strip().splitlines()[-1],
        )
    hidden = len(failures) - _DETAIL_CAP
    detail = "; ".join(failures[:_DETAIL_CAP])
    if hidden > 0:
        detail += f"; ... {hidden} more"
    return CheckResult(
        check_id,
        name,
        "pass" if not failures else "fail",
        measured,
        time.perf_counter() - start,
        detail,
    )


def run_suite(
    check_ids: Optional[Iterable[str]] = None,
    *,
    jobs: Optional[int] = None,
    seed: int = 0,
) -> list[CheckResult]:
    """Run the requested checks in worker processes; results come back in id order."""
    ids = list(check_ids) if check_ids is not None else list(CHECK_IDS)
    for cid in ids:
        if cid not in CHECKS:
            raise InputError(f"unknown check {cid!r}; expected one of {CHECK_IDS}")
    workers = jobs if jobs is not None else min(4, os.cpu_count() or 1)
    if workers < 1:
        raise InputError("jobs must be positive")
    workers = min(workers, len(ids))
    if workers <= 1:
        results = [run_check(cid, seed) for cid in ids]
    else:
        # Imported here: the process machinery would otherwise add to every
        # import of the package.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            results = list(pool.map(functools.partial(run_check, seed=seed), ids))
    return sorted(results, key=lambda r: r.check_id)


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
