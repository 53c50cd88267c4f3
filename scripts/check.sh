#!/bin/sh
# Every local check, in order, stopping at the first failure:
#   1. the test suite (tier-1). It runs the release gate in both of its
#      configurations: tests/test_acceptance.py runs every check through
#      run_suite under python, and test_gate_passes_under_optimize in
#      tests/test_self_checks.py runs `xtrees verify --suite all` under
#      python -O, which strips assert statements;
#   2. the benchmark's own tests (its smoke mode).
# Run from anywhere: scripts/check.sh
set -eu
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python -m pytest -q --continue-on-collection-errors
python -m pytest -q perfbench
