"""Wall-clock smoke test of the vectorized local-view hot path.

The budget is deliberately generous (an order of magnitude above the
typical runtime on a developer machine) so the test only trips on real
regressions — e.g. the fast path silently falling back to the
interpreter — not on CI noise.
"""

import time

import pytest

from repro.apps import hdiff
from repro.tool.session import Session

#: hdiff local view at the paper's interactive sizes, scaled up 2x per
#: axis to make interpreter-level slowdowns unmistakable (~74k events).
SIZES = {"I": 16, "J": 16, "K": 8}
BUDGET_SECONDS = 5.0


@pytest.mark.perf
def test_vectorized_local_view_within_budget():
    session = Session(hdiff.build_sdfg())
    start = time.perf_counter()
    lv = session.local_view(SIZES)
    misses = lv.miss_counts()
    elapsed = time.perf_counter() - start
    assert misses  # the pipeline actually ran
    strided = [b for b in lv.result.blocks if isinstance(b.positions, slice)]
    assert sum(b.count for b in strided) == lv.result.num_events, (
        "hdiff subsets are affine; the fast path must cover the whole trace"
    )
    assert elapsed < BUDGET_SECONDS, (
        f"local-view pipeline took {elapsed:.2f}s "
        f"(budget {BUDGET_SECONDS}s) — fast-path regression?"
    )


@pytest.mark.perf
def test_cached_requery_is_fast():
    session = Session(hdiff.build_sdfg())
    session.local_view(SIZES).miss_counts()  # populate the cache
    start = time.perf_counter()
    session.local_view(SIZES).miss_counts()
    elapsed = time.perf_counter() - start
    hits = session.cache_info()["hits"]
    assert hits >= 1, "repeat query at the same parameter point must hit the cache"
    assert elapsed < BUDGET_SECONDS
