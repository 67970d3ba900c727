"""Shared test configuration: one hypothesis profile for every property test,
and the fixtures that patch the rule table and the R-matrix.

Examples are derived from each test's source, not drawn at random, and no
example database is kept, so a run is reproducible; no deadline, because
exact arithmetic on large inputs has no fixed time per example."""

import pytest
from hypothesis import settings

from hdcalc import diffring, multicopy, rmatrix

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


@pytest.fixture
def mutant(monkeypatch):
    """patch(name, fn) replaces one factored source of rmatrix for one test.
    The component caches are emptied on each patch and after the test, so
    the canonical components, and with them the dense oracles, see the
    same mutant as the sweeps, and no mutant value outlives the test."""
    def clear():
        for fn in vars(rmatrix).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()

    def patch(name, fn):
        monkeypatch.setattr(rmatrix, name, fn)
        clear()

    yield patch
    clear()
