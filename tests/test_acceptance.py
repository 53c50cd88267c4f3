"""Release gate: every shipped claim, one test per check.

Runs the same suite as ``xtrees verify --suite all`` and reports each
check on its own line, so a red criterion is immediately attributable.
"""

import random
from itertools import combinations

import pytest

from xtrees.order import CgGraph, OrderedGraph
from xtrees.verify import CHECK_IDS, CHECKS, _random_subgraph, all_passed, run_suite


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
