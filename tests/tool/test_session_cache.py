"""Tests for the session-level simulation cache and stage timings."""

from repro.apps import hdiff
from repro.frontend import pmap, program
from repro.sdfg.dtypes import float64
from repro.symbolic import symbols
from repro.tool.session import Session, SimulationCache

I, J = symbols("I J")


def make_session():
    return Session(hdiff.build_sdfg())


SIZES = {"I": 3, "J": 3, "K": 2}
OTHER = {"I": 4, "J": 3, "K": 2}


class TestSimulationCache:
    def test_lru_eviction(self):
        cache = SimulationCache(maxsize=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh "a"
        cache.put(("c",), 3)  # evicts "b", the least recently used
        assert ("b",) not in cache
        assert cache.get(("a",)) == 1 and cache.get(("c",)) == 3

    def test_hit_miss_counters(self):
        cache = SimulationCache()
        assert cache.get(("x",)) is None
        cache.put(("x",), 42)
        assert cache.get(("x",)) == 42
        assert cache.info()["hits"] == 1
        assert cache.info()["misses"] == 1

    def test_bounded(self):
        cache = SimulationCache(maxsize=3)
        for n in range(10):
            cache.put((n,), n)
        assert len(cache) == 3


class TestSessionCaching:
    def test_repeat_query_hits_cache(self):
        session = make_session()
        first = session.local_view(SIZES).result
        second = session.local_view(SIZES).result
        assert second is first  # the simulation was reused, not rerun
        assert session.cache_info()["hits"] >= 1

    def test_different_params_simulate_fresh(self):
        session = make_session()
        a = session.local_view(SIZES).result
        b = session.local_view(OTHER).result
        assert a is not b
        assert len(a.events) != len(b.events)

    def test_fast_and_slow_cached_separately(self):
        session = make_session()
        fast = session.local_view(SIZES, fast=True).result
        slow = session.local_view(SIZES, fast=False).result
        assert fast is not slow

    def test_downstream_results_cached(self):
        session = make_session()
        lv1 = session.local_view(SIZES)
        lv2 = session.local_view(SIZES)
        d1 = lv1._distances()
        d2 = lv2._distances()
        assert d2 is d1

    def test_invalidate_clears_shared_cache(self):
        session = make_session()
        lv = session.local_view(SIZES)
        first = lv.result
        lv.invalidate()
        assert lv.result is not first
        # A fresh view must not resurrect the stale entry either.
        assert session.local_view(SIZES).result is lv.result

    def test_standalone_local_view_unaffected(self):
        from repro.tool.session import LocalView

        sdfg = hdiff.build_sdfg()
        lv = LocalView(sdfg, SIZES, sdfg.start_state)
        assert lv.session_cache is None
        assert lv.result.events  # simulates without a cache attached

    def test_miss_counts_identical_across_paths(self):
        session = make_session()
        fast = session.local_view(SIZES, fast=True).miss_counts()
        slow = session.local_view(SIZES, fast=False).miss_counts()
        assert {k: (v.hits, v.cold, v.capacity) for k, v in fast.items()} == {
            k: (v.hits, v.cold, v.capacity) for k, v in slow.items()
        }


class TestSessionTimings:
    def test_stages_recorded(self):
        session = make_session()
        lv = session.local_view(SIZES)
        lv.miss_counts()
        lv.render_container("in_field", values=lv.miss_heatmap("in_field"))
        recorded = set(session.timings.stages())
        # The analytic engine serves classification, so the enumeration
        # stage spans (layout/stackdist) are replaced by its own span.
        assert {"enumerate", "evaluate", "locality:analytic", "classify", "render"} <= recorded
        assert session.timings.total() > 0

    def test_report_renders(self):
        session = make_session()
        session.local_view(SIZES).miss_counts()
        report = session.timings.report()
        assert "locality:analytic" in report and "ms" in report


def _make_kernel(variant: int):
    """Two same-named, same-signature programs with different access
    patterns — the shape of workload where an ``id()``-keyed cache can
    serve stale results once CPython recycles object ids."""
    if variant == 0:

        @program
        def kernel(A: float64[I], B: float64[J], C: float64[I, J]):
            for i, j in pmap(I, J):
                C[i, j] = A[i] * B[j]

    else:

        @program
        def kernel(A: float64[I], B: float64[J], C: float64[I, J]):
            for i, j in pmap(I, J):
                C[i, j] = C[i, j] + A[i] * B[j]  # also *reads* C

    return kernel


class TestContentBasedCacheKeys:
    """Regression tests for the stale-cache bug: session cache keys used
    ``id(state)`` / ``id(sdfg)``, which CPython reuses after garbage
    collection, so a long-lived session that loads a second program could
    silently serve the first program's results."""

    KERNEL_SIZES = {"I": 3, "J": 4}

    def test_sim_key_is_content_based(self):
        session = make_session()
        key = session.local_view(SIZES)._sim_key()
        assert key[0] == (session.sdfg.name, 0)  # (scope, ...) prefix
        assert key[1] == session.sdfg.start_state.name
        assert id(session.sdfg) not in key
        assert id(session.sdfg.start_state) not in key

    def test_load_bumps_the_cache_generation(self):
        session = make_session()
        before = session.local_view(SIZES)._sim_key()
        session.load(hdiff.build_sdfg())
        after = session.local_view(SIZES)._sim_key()
        assert before != after  # same name, same params — new generation

    def test_reload_never_serves_stale_results(self):
        session = Session(_make_kernel(0))
        first = session.local_view(self.KERNEL_SIZES)
        accesses_v0 = first.result.num_events

        # Same SDFG name, same state labels, same parameters — only the
        # access pattern differs.  Content-based keys must still miss.
        session.load(_make_kernel(1))
        second = session.local_view(self.KERNEL_SIZES)
        accesses_v1 = second.result.num_events
        assert accesses_v1 != accesses_v0  # v1 also reads C: more accesses
        assert second.result is not first.result

    def test_reload_invalidates_sweep_cache_too(self):
        session = Session(_make_kernel(0))
        v0 = session.sweep([self.KERNEL_SIZES])
        session.load(_make_kernel(1))
        misses_before = session.cache.misses
        v1 = session.sweep([self.KERNEL_SIZES])
        assert session.cache.misses > misses_before  # not served from cache
        assert v1[0].total_accesses != v0[0].total_accesses

    def test_sdfg_setter_is_equivalent_to_load(self):
        session = Session(_make_kernel(0))
        session.local_view(self.KERNEL_SIZES).result
        session.sdfg = _make_kernel(1)
        lv = session.local_view(self.KERNEL_SIZES)
        assert lv._sim_key()[0] == (session.sdfg.name, 1)


class TestSimulationCacheByteBudget:
    def test_byte_bound_evicts_before_count_bound(self):
        cache = SimulationCache(maxsize=100, max_bytes=400, sizeof=len)
        for n in range(6):
            cache.put((n,), "x" * 100)
        assert len(cache) < 6  # count bound alone would keep all six
        assert cache.approx_bytes <= 400
        assert (5,) in cache  # newest survives

    def test_lru_order_respected_by_byte_eviction(self):
        cache = SimulationCache(maxsize=100, max_bytes=250, sizeof=len)
        cache.put(("a",), "x" * 100)
        cache.put(("b",), "x" * 100)
        cache.get(("a",))  # refresh: "b" is now least recently used
        cache.put(("c",), "x" * 100)
        assert ("a",) in cache and ("c",) in cache
        assert ("b",) not in cache

    def test_overwrite_replaces_size(self):
        cache = SimulationCache(maxsize=8, max_bytes=10_000, sizeof=len)
        cache.put(("k",), "x" * 5000)
        cache.put(("k",), "x" * 10)
        assert cache.approx_bytes == 10

    def test_info_reports_bytes(self):
        cache = SimulationCache(maxsize=8, max_bytes=1234, sizeof=len)
        cache.put(("k",), "x" * 10)
        info = cache.info()
        assert info["approx_bytes"] == 10
        assert info["max_bytes"] == 1234

    def test_unbounded_bytes_by_default(self):
        cache = SimulationCache(maxsize=3)
        cache.put(("k",), "x" * 100_000)
        assert ("k",) in cache
        assert cache.info()["max_bytes"] == 0  # 0 means "no byte bound"

    def test_sizing_failure_never_breaks_caching(self):
        def broken(value):
            raise RuntimeError("sizeof exploded")

        cache = SimulationCache(maxsize=4, max_bytes=100, sizeof=broken)
        cache.put(("k",), "value")
        assert cache.get(("k",)) == "value"
        assert cache.approx_bytes == 0  # unmeasurable counts as zero
