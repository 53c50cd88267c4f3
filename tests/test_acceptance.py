"""Release gate: every shipped claim, one test per check.

Runs the same suite as ``xtrees verify --suite all`` and reports each
check on its own line, so a red criterion is immediately attributable.
"""

import importlib.util
import json
import random
import shutil
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

from xtrees import constructions, trees, verify
from xtrees.errors import InputError
from xtrees.order import CgGraph, OrderedGraph
from xtrees.trees import ZDecomposition
from xtrees.verify import CHECK_IDS, CHECKS, _random_subgraph, all_passed, run_check, run_suite

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def suite_results():
    results = run_suite(None, seed=0)
    return {r.check_id: r for r in results}


def test_suite_covers_every_registered_check():
    assert len(CHECK_IDS) == 11
    assert list(CHECK_IDS) == sorted(CHECKS)


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_criterion(suite_results, check_id):
    r = suite_results[check_id]
    print(f"{r.check_id} {'PASS' if r.passed else 'FAIL'} {r.name}")
    assert r.passed, f"{r.check_id} {r.name}: {r.detail}"


def test_gate_is_green(suite_results):
    assert all_passed(suite_results.values())


# what each check counts at seed 0; a change here changes a check's domain
MEASURED_AT_SEED_0 = {
    "c01": {"z_tree_reps": 10, "cells": 35},
    "c02": {"trees": 181, "z_trees": 46, "catalog": 5},
    "c03": {"trees": 521, "cg_z_trees": 169},
    "c04": {"pow2_hosts": 63, "containments": 48},
    "c05": {"identities": 652},
    "c06": {"f_n_sizes": 4, "f_n0_hosts": 31},
    "c07": {"types": 24, "zigzag_types": 2, "hosts": 4},
    "c08": {"extractions": 6, "graphs": 88, "agreements": 264},
    "c09": {"embeddings": 8000, "gstar_negatives": 164},
    "c10": {"patterns": 33, "comparisons": 71},
    "c11": {"unary_instances": 2882, "containment_samples": 600},
}


def test_measured_at_seed_0(suite_results):
    assert {cid: r.measured for cid, r in suite_results.items()} == MEASURED_AT_SEED_0


def _flipped_on(order, real):
    return lambda host, *args: (not real(host, *args)) if host.order == order else real(host, *args)


def _none_on(order, real):
    return lambda host, *args: None if host.order == order else real(host, *args)


@pytest.mark.parametrize(
    "cid, target, fault, order",
    [
        ("c02", "contains", _flipped_on, "linear"),
        ("c03", "detect_twin_crossing_paths", _none_on, "cyclic"),
        ("c09", "embed_dense", _none_on, "cyclic"),
        ("c09", "embed_dense", _none_on, "linear"),
        ("c11", "contains", _flipped_on, "cyclic"),
        ("c11", "contains", _flipped_on, "linear"),
    ],
)
def test_fault_in_one_order_fails_its_check_and_names_the_order(
    monkeypatch, cid, target, fault, order
):
    """A check that loops over both vertex orders still catches a fault that
    only one order shows, and its detail says which order broke."""
    monkeypatch.setattr(verify, target, fault(order, getattr(verify, target)))
    r = run_check(cid)
    broken, intact = ("ordered", "cg") if order == "linear" else ("cg", "ordered")
    assert not r.passed
    assert f"{broken} " in r.detail and f"{intact} " not in r.detail, r.detail


def _value_one_high(real):
    def extremal_number(n, pattern):
        r = real(n, pattern)
        return replace(r, value=r.value + 1)
    return extremal_number


def _oracle_one_high(real):
    def oracle_extremal_number(n, pattern):
        value, witness = real(n, pattern)
        return value + 1, witness
    return oracle_extremal_number


def _last_fan_edge_dropped(real):
    def _z_scan(edges):
        dec = real(edges)
        if not isinstance(dec, ZDecomposition) or not dec.b + dec.c:
            return dec
        if dec.c:
            return replace(dec, s_i=dec.s_i[:-1])
        return replace(dec, s_j=dec.s_j[:-1])
    return _z_scan


def _accepts(edges, z_edges):
    """The decomposition route accepts the tree on ``edges``, which has a
    forbidden configuration, with the decomposition of the z-tree on
    ``z_edges``; every other tree decomposes as before."""
    def fault(real):
        return lambda t: real(type(t)(t.n, z_edges)) if t.edges == edges else real(t)
    return fault


STAR5 = ((1, 2), (1, 3), (1, 4), (1, 5))


def _ids(rows):
    """Each row's check id; a check's later rows add the name they fault."""
    first = {}
    return [cid if first.setdefault(cid, target) == target else f"{cid}-{target.lstrip('_')}"
            for cid, _, target, *_ in rows]


# per check: a fault in what it compares, and the start of its detail
ONE_FAULT_PER_CHECK = [
    ("c01", verify, "extremal_number", _value_one_high,
     "value(3, ((1, 2), (1, 3))) = 3, expected 2"),
    ("c02", trees, "_z_scan", _last_fan_edge_dropped,
     "ordered ((1, 2), (1, 3)): invalid decomposition: core and fans do not partition"),
    ("c03", trees, "_z_scan", _last_fan_edge_dropped,
     "cg ((1, 2), (1, 3)): invalid decomposition: core and fans do not partition"),
    # classify_tree trusts the decomposition route: c02 and c03 hold it to the other
    ("c02", trees, "_z_decompose", _accepts(((1, 3), (1, 4), (1, 5), (2, 4)), STAR5),
     "ordered ((1, 3), (1, 4), (1, 5), (2, 4)): decomposes=True, obstructed=True"),
    ("c03", trees, "_cg_z_decompose", _accepts(((1, 2), (1, 3), (2, 5), (4, 5)), STAR5),
     "cg ((1, 2), (1, 3), (2, 5), (4, 5)): decomposes=True, obstructed=True"),
    ("c05", constructions, "_fh_edges", lambda real: lambda s, variant: real(s, variant)[:-1],
     "fh_q(1) edge count != 1"),
    ("c06", verify, "contains", lambda real: lambda host, pattern: True,
     "f_n(8) has a heavy path"),
    ("c07", verify, "contains", lambda real: lambda host, pattern: True,
     "non-zigzag type ((1, 2), (2, 3), (3, 4), (4, 5)) embeds in every host"),
    ("c10", verify, "oracle_extremal_number", _oracle_one_high,
     "value(4, ((1, 3), (1, 4), (2, 4))): branch-and-bound 5 != naive 6"),
]


@pytest.mark.parametrize("cid, module, target, fault, named", ONE_FAULT_PER_CHECK,
                         ids=_ids(ONE_FAULT_PER_CHECK))
def test_fault_fails_its_check_on_its_own_line(monkeypatch, cid, module, target, fault, named):
    """A fault in what a check compares fails that check, and its detail is
    the check's own line for the first broken case, not an error raised
    before the check could compare."""
    monkeypatch.setattr(module, target, fault(getattr(module, target)))
    r = run_check(cid)
    assert not r.passed
    assert r.detail.startswith(named), r.detail


def test_check_that_raises_fails_alone(monkeypatch):
    """A check that raises is one failed result whose detail is the
    exception's last line, and the checks after it still run."""
    def c05(seed):
        raise ValueError("no edge count")

    monkeypatch.setitem(verify.CHECKS, "c05", ("stub", c05))
    broken, after = run_suite(["c05", "c06"])
    assert (broken.check_id, broken.status, broken.measured) == ("c05", "fail", {})
    assert broken.detail == "ValueError: no edge count"
    assert after.check_id == "c06" and after.passed


def test_empty_selection_refused():
    with pytest.raises(InputError, match="no check selected"):
        run_suite([])


@pytest.mark.parametrize("ids", ["c05", ["c05", "c05"], [[]], [None], 1.5, True])
def test_malformed_selection_refused_before_any_check_runs(monkeypatch, ids):
    """A string is not a selection (it would run "c", "0" and "5"), an id is
    named once, and a non-iterable or unhashable id is an InputError."""
    def c05(seed):
        raise AssertionError("a check ran on a malformed selection")

    monkeypatch.setitem(verify.CHECKS, "c05", ("stub", c05))
    with pytest.raises(InputError):
        run_suite(ids)


@pytest.mark.parametrize("cid", [[], None, 5, "c5"])
def test_malformed_check_id_refused(cid):
    with pytest.raises(InputError, match="unknown check"):
        run_check(cid)


@pytest.mark.parametrize("seed", [1.5, True, "x", None])
def test_non_int_seed_refused_before_any_check_runs(monkeypatch, seed):
    def c05(seed):
        raise AssertionError("a check ran with a bad seed")

    monkeypatch.setitem(verify.CHECKS, "c05", ("stub", c05))
    with pytest.raises(InputError, match="seed"):
        run_check("c05", seed=seed)
    with pytest.raises(InputError, match="seed"):
        run_suite(["c05"], seed=seed)


def test_results_come_back_in_id_order():
    assert [r.check_id for r in run_suite(["c06", "c05"])] == ["c05", "c06"]


def test_c09_hosts_equal_their_validated_builds():
    """c09 builds its random hosts unvalidated; each must equal the graph the
    validating constructor makes from the same draw."""
    for i in range(500):
        n = 2 + i % 11
        m = random.Random(-i).randint(0, n * (n - 1) // 2)
        cyclic = bool(i % 2)
        host = _random_subgraph(random.Random(i), n, m, cyclic)
        picked = random.Random(i).sample(list(combinations(range(1, n + 1), 2)), m)
        want = (CgGraph if cyclic else OrderedGraph)(n, picked)
        assert type(host) is type(want)
        assert host == want and repr(host) == repr(want)


# the check that compares each golden file, and leaves to flip in it
GOLDEN_OWNERS = {
    "obstruction_catalog.json": (
        "c02",
        [("patterns", 1, "edges", 0, 1), ("patterns", 0, "provenance")],
    ),
    "fh_obstruction_assignment.json": (
        "c04",
        [("contains", "fh_q", "pair1_a", "32"), ("assignment", "fh_r_pair")],
    ),
    "extremal.json": (
        "c10",
        [("entries", 0, "value"), ("entries", 40, "witness", "edges", 3, 0)],
    ),
    "extraction_sizes.json": ("c08", [("entries", 3, "size"), ("entries", 5, "seed")]),
}


def _flipped(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value + "x"


@pytest.fixture
def golden_copy(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "golden", tmp_path, dirs_exist_ok=True)
    monkeypatch.setattr(verify, "GOLDEN_DIR", tmp_path)
    return tmp_path


def test_unmodified_golden_copy_passes(golden_copy):
    for cid, _ in GOLDEN_OWNERS.values():
        r = run_check(cid)
        assert r.passed, f"{cid}: {r.detail}"


@pytest.mark.parametrize(
    "name, leaf",
    [
        pytest.param(name, leaf, id="/".join([name, *map(str, leaf)]))
        for name, (_, leaves) in GOLDEN_OWNERS.items()
        for leaf in leaves
    ],
)
def test_flipped_golden_leaf_fails_its_check_by_path(golden_copy, name, leaf):
    path = golden_copy / name
    doc = json.loads(path.read_text())
    node = doc
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = _flipped(node[leaf[-1]])
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    r = run_check(GOLDEN_OWNERS[name][0])
    assert not r.passed
    assert "/".join([name, *map(str, leaf)]) + ": recomputed" in r.detail, r.detail


@pytest.mark.parametrize("name", sorted(GOLDEN_OWNERS))
def test_missing_golden_file_fails_its_check(golden_copy, name):
    (golden_copy / name).unlink()
    r = run_check(GOLDEN_OWNERS[name][0])
    assert not r.passed
    assert r.detail.endswith(f"InputError: missing golden file {golden_copy / name}"), r.detail


def test_leaf_diffs_name_other_keys_lengths_and_types():
    got = {"a": [1, 2, 3], "b": {"x": True}, "c": 1}
    want = {"a": [1, 2], "b": {"y": True}, "c": True}
    assert list(verify._leaf_diffs("f.json", got, want)) == [
        "f.json/a: recomputed [1, 2, 3], golden [1, 2]",
        "f.json/b: recomputed {'x': True}, golden {'y': True}",
        "f.json/c: recomputed 1, golden True",
    ]


def _load_freezer():
    spec = importlib.util.spec_from_file_location(
        "freeze_golden", ROOT / "scripts" / "freeze_golden.py"
    )
    freeze = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(freeze)
    return freeze


@pytest.mark.parametrize(
    "cid, name, target, fake",
    [
        ("c04", "fh_obstruction_assignment.json", "xtrees.verify.contains",
         lambda host, pattern: False),
        (
            "c08",
            "extraction_sizes.json",
            "xtrees.walks.find_forbidden_walk",
            lambda graph, kind, start: "a walk",
        ),
    ],
)
def test_broken_golden_rule_fails_its_check_and_the_freezer(
    tmp_path, monkeypatch, cid, name, target, fake
):
    """A builder whose paper rule fails raises; the owning check reports the
    broken rule as one failure and still runs its other half, and the freezer
    writes nothing."""
    (clean,) = run_suite([cid])
    monkeypatch.setattr(target, fake)
    (r,) = run_suite([cid])
    assert not r.passed
    assert r.detail.startswith(f"{name}: "), r.detail
    assert r.measured == clean.measured
    freeze = _load_freezer()
    monkeypatch.setattr(freeze, "GOLDEN", tmp_path)
    with pytest.raises(RuntimeError):
        freeze.main()
    assert not any(tmp_path.iterdir())
