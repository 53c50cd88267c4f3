"""Hypothesis settings for the suite.

The suite runs under the "tier1" profile: each @given test draws the same
examples on every run (derandomize, seeded from the test itself) and keeps
no database, so a commit gets one verdict. scripts/check.sh then reruns the
@given tests under the "fresh" profile, with a new seed that it prints and
five times each test's examples, so new hosts keep being drawn:

    python -m pytest -m hypothesis --hypothesis-profile=fresh --hypothesis-seed=N
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fresh", database=None)
settings.load_profile("tier1")

FRESH_FACTOR = 5


def pytest_collection_modifyitems(items):
    """Under the fresh profile, give each @given test FRESH_FACTOR times the
    examples its own @settings ask for (once per test function, however
    many parameters it has)."""
    if settings.get_current_profile_name() != "fresh":
        return
    seen = set()
    for item in items:
        fn = getattr(getattr(item, "obj", None), "__func__", getattr(item, "obj", None))
        own = getattr(fn, "_hypothesis_internal_use_settings", None)
        if own is None or id(fn) in seen:
            continue
        seen.add(id(fn))
        fn._hypothesis_internal_use_settings = settings(
            own, max_examples=own.max_examples * FRESH_FACTOR)
