#!/bin/sh
# Every local check, in order, stopping at the first failure:
#   1. the test suite (tier-1);
#   2. the release gate, `xtrees verify --suite all`, under python;
#   3. the same gate under python -O, which strips assert statements;
#   4. the benchmark's own tests (its smoke mode).
# Run from anywhere: scripts/check.sh
set -eu
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python -m pytest -q --continue-on-collection-errors
python -m xtrees.cli verify --suite all
python -O -m xtrees.cli verify --suite all
python -m pytest -q perfbench
