"""Release gate: every shipped claim, one test per check.

Runs the same suite as ``xtrees verify --suite all`` and reports each
check on its own line, so a red criterion is immediately attributable.
"""

import pytest

from xtrees.verify import CHECK_IDS, CHECKS, all_passed, run_suite


@pytest.fixture(scope="module")
def suite_results():
    results = run_suite(None, jobs=None, seed=0)
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


def test_processes_match_serial():
    serial = run_suite(["c05", "c06"], jobs=1)
    pooled = run_suite(["c05", "c06"], jobs=2)
    assert [r.check_id for r in pooled] == [r.check_id for r in serial] == ["c05", "c06"]
    assert [r.status for r in pooled] == [r.status for r in serial]
