"""Shared test configuration: one hypothesis profile for every property test.

Examples are derived from each test's source, not drawn at random, and no
example database is kept, so a run is reproducible; no deadline, because
exact arithmetic on large inputs has no fixed time per example."""

from hypothesis import settings

settings.register_profile("hdcalc", derandomize=True, database=None, deadline=None)
settings.load_profile("hdcalc")
