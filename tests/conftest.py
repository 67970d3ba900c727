"""Shared test configuration: one hypothesis profile for every property test.

Examples are derived from each test's source, not drawn at random, and no
example database is kept, so a run is reproducible; no deadline, because
exact arithmetic on large inputs has no fixed time per example."""

import pytest
from hypothesis import settings

from hdcalc import diffring, multicopy

settings.register_profile("hdcalc", derandomize=True, database=None, deadline=None)
settings.load_profile("hdcalc")


@pytest.fixture
def rewrite_steps(monkeypatch):
    """steps(reduce) -> the pairs (t1, t2) that reduce("left") and
    reduce("right") rewrite, in order, recorded at the rule table that the
    ring and its multi-copy form share."""
    seen = []
    resolve = diffring._resolve

    def recorded(n, sigma, t1, t2):
        seen.append((t1, t2))
        return resolve(n, sigma, t1, t2)

    for module in (diffring, multicopy):
        monkeypatch.setattr(module, "_resolve", recorded)

    def steps(reduce):
        out = []
        for strategy in ("left", "right"):
            seen.clear()
            reduce(strategy)
            out.append(list(seen))
        return out
    return steps
