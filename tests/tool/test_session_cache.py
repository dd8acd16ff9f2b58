"""Tests for the session's result store and stage timings."""

import pytest

from repro.apps import hdiff
from repro.errors import UnknownSymbolError
from repro.frontend import pmap, program
from repro.passes.store import ResultStore, _LRUBacking
from repro.sdfg.dtypes import float64
from repro.sdfg.sdfg import SDFG
from repro.sdfg.serialize import state_fingerprint
from repro.simulation import MemoryModel, per_container_misses, simulate_state
from repro.symbolic import symbols
from repro.tool.session import Session

I, J = symbols("I J")


def make_session():
    return Session(hdiff.build_sdfg())


SIZES = {"I": 3, "J": 3, "K": 2}
OTHER = {"I": 4, "J": 3, "K": 2}


class TestSimulationCache:
    """The session's result cache: the memory tier of its store."""

    def test_bounded(self):
        session = make_session()
        maxsize = session.cache_info()["maxsize"]
        for n in range(maxsize + 10):
            session.store.put((n,), n)
        assert len(session.store) == maxsize
        assert not session.store.contains((0,))  # oldest evicted
        assert session.store.get((maxsize + 9,)) == maxsize + 9


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
        # The session caches the vectorized trace; the interpreter oracle
        # is never a cache entry, and both traces are identical.
        session = make_session()
        fast = session.local_view(SIZES).result
        slow = simulate_state(session.sdfg, SIZES, fast=False)
        assert fast is not slow
        assert session.local_view(SIZES).result is fast
        key = lambda e: (e.data, e.indices, e.kind, e.step, e.execution, e.tasklet, e.point)
        assert [key(e) for e in fast.events] == [key(e) for e in slow.events]

    def test_downstream_results_cached(self):
        session = make_session()
        lv1 = session.local_view(SIZES)
        lv2 = session.local_view(SIZES)
        product = lv1._product("local.analytic")
        assert lv2._product("local.analytic") is product
        # The reuse views read the shared product's memo.
        lv1.reuse_heatmap("in_field")
        assert lv2.reuse_distances("in_field")
        assert list(product._element_cache) == [("in_field", None)]
        assert session.pipeline.runs("local.analytic") == 1

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
        assert lv.result.events  # simulates on its own pipeline

    def test_miss_counts_identical_across_paths(self):
        session = make_session()
        lv = session.local_view(SIZES)
        fast = lv.miss_counts()
        # The oracle: per-event references over the interpreter's trace.
        events = simulate_state(session.sdfg, SIZES, fast=False).events
        memory = MemoryModel(session.sdfg, SIZES, line_size=64)
        slow = per_container_misses(events, memory, lv.cache)
        assert {k: (v.hits, v.cold, v.capacity) for k, v in fast.items()} == {
            k: (v.hits, v.cold, v.capacity) for k, v in slow.items()
        }


class TestViewAcrossTransform:
    """A view kept across ``Session.apply`` answers from the program as
    it is now: the view keeps no memo of its own."""

    def test_reused_view_answers_from_the_transformed_program(self):
        session = make_session()
        sizes = hdiff.LOCAL_VIEW_SIZES
        element = (1, 2, 3)
        lv = session.local_view(sizes)
        before = lv.memory.layout("in_field").strides
        lv.cache_line_neighbors("in_field", element)
        lv.access_heatmap("in_field")

        session.apply(hdiff.apply_reshape, session.sdfg)
        fresh = session.local_view(sizes)
        after = fresh.memory.layout("in_field").strides
        assert after != before
        assert lv.memory.layout("in_field").strides == after
        assert lv.cache_line_neighbors(
            "in_field", element
        ) == fresh.cache_line_neighbors("in_field", element)
        assert lv.result is fresh.result
        assert lv.physical_movement() == fresh.physical_movement()

    def test_neighbors_need_no_simulation(self):
        session = make_session()
        lv = session.local_view(SIZES)
        lv.cache_line_neighbors("in_field", (0, 0, 0))
        assert session.pipeline.runs("local.trace") == 0


class TestSessionTimings:
    def test_stages_recorded(self):
        session = make_session()
        lv = session.local_view(SIZES)
        lv.miss_counts()
        lv.render_container("in_field", values=lv.miss_heatmap("in_field"))
        recorded = {name for name, _, _ in session.tracer.rows()}
        # The analytic engine serves classification, so the enumeration
        # stage spans (layout/stackdist) are replaced by its own span.
        assert {"enumerate", "evaluate", "locality:analytic", "classify", "render"} <= recorded
        assert session.tracer.total() > 0

    def test_report_renders(self):
        session = make_session()
        session.local_view(SIZES).miss_counts()
        report = session.tracer.table()
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
        ctx = session.local_view(SIZES)._context()
        scope = ctx.component("scope")
        assert scope == (session.sdfg.name, 0)
        state = session.sdfg.start_state
        assert ctx.component("state") == state_fingerprint(state)
        assert id(session.sdfg) not in scope
        assert id(state) not in scope

    def test_load_bumps_the_cache_generation(self):
        session = make_session()
        before = session.local_view(SIZES)._context().component("scope")
        session.load(hdiff.build_sdfg())
        after = session.local_view(SIZES)._context().component("scope")
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
        hits = session.metrics.counter("sweep.cache_hits")
        points = session.metrics.counter("sweep.points")
        hits_before, points_before = hits.value, points.value
        v1 = session.sweep([self.KERNEL_SIZES])
        assert hits.value == hits_before  # not served from the store
        assert points.value == points_before + 1  # evaluated afresh
        assert v1[0].total_accesses != v0[0].total_accesses

    def test_sdfg_setter_is_equivalent_to_load(self):
        session = Session(_make_kernel(0))
        session.local_view(self.KERNEL_SIZES).result
        session.sdfg = _make_kernel(1)
        lv = session.local_view(self.KERNEL_SIZES)
        assert lv._context().component("scope") == (session.sdfg.name, 1)

    def test_base_context_never_leaks_cache_settings(self):
        """Regression: ``adopt_components`` copied ``capacity`` (and the
        other configuration components) from the base, so a point run
        through a capacity-512 context keyed its products at the base's
        capacity 4 and a later capacity-4 sweep served the wrong misses."""
        params = {"I": 8, "J": 8, "K": 5}
        session = make_session()
        small = session.point_context(params, capacity_lines=4)
        session.product_key("local.point", small)
        large = session.point_context(params, capacity_lines=512, base=small)
        session.pipeline.run("local.point", large)
        [point] = session.sweep([params], capacity_lines=4)
        [truth] = make_session().sweep([params], capacity_lines=4)
        assert point == truth
        assert point.total_misses == 5888


class TestParameterNamesMustBeSymbols:
    """A name that is not a program symbol would enter the cache key and
    store one computation under many keys; every entry point rejects it
    before any pass runs."""

    @staticmethod
    def _assert_rejected(session, call):
        with pytest.raises(UnknownSymbolError) as caught:
            call()
        assert caught.value.name == "Z"
        assert caught.value.symbols == ["I", "J", "K"]
        assert "'Z'" in str(caught.value) and "'K'" in str(caught.value)
        assert session.metrics.counter("pass.local.analytic.runs").value == 0

    def test_sweep_axis(self):
        session = make_session()
        self._assert_rejected(
            session,
            lambda: session.sweep({"I": [4], "J": [4], "K": [2], "Z": [1, 2, 3]}),
        )

    def test_sweep_point_list(self):
        session = make_session()
        grid = [{"I": 4, "J": 4, "K": 2}, {"I": 4, "J": 4, "K": 2, "Z": 1}]
        self._assert_rejected(session, lambda: session.sweep(grid))

    def test_local_view(self):
        session = make_session()
        self._assert_rejected(
            session, lambda: session.local_view({**SIZES, "Z": 7})
        )

    def test_point_context(self):
        session = make_session()
        self._assert_rejected(
            session, lambda: session.point_context({**SIZES, "Z": 7})
        )

    def test_tune(self):
        session = make_session()
        self._assert_rejected(
            session, lambda: session.tune({**SIZES, "Z": 7}, budget=2)
        )

    def test_declared_symbols_skip_the_free_symbol_walk(self, monkeypatch):
        calls = []
        free_symbols = SDFG.free_symbols

        def spy(sdfg):
            calls.append(sdfg)
            return free_symbols(sdfg)

        monkeypatch.setattr(SDFG, "free_symbols", spy)
        session = make_session()
        grid = {"I": [3, 4], "J": [3], "K": [2]}
        session.sweep(grid)
        calls.clear()
        # Warm: every point comes from the store, and every name is a
        # declared symbol that no map binds.
        session.sweep(grid)
        session.point_context(SIZES)
        session.local_view(SIZES)
        assert calls == []
        with pytest.raises(UnknownSymbolError):
            session.local_view({**SIZES, "Z": 7})
        assert len(calls) == 1

    def test_check_agrees_with_free_symbols(self):
        """The shortcut never changes the verdict of the full walk."""
        session = make_session()
        session.sdfg.symbols.discard("K")  # undeclared, yet free: shapes use it
        session.local_view(SIZES)
        param = sorted(session.sdfg.map_params())[0]
        session.sdfg.symbols.add(param)  # declared, yet bound by a map
        with pytest.raises(UnknownSymbolError):
            session.local_view({**SIZES, param: 2})

    def test_follows_a_loaded_program(self):
        session = make_session()
        session.load(_make_kernel(0))
        with pytest.raises(UnknownSymbolError):
            session.sweep([{"I": 3, "J": 4, "K": 2}])
        session.sweep([{"I": 3, "J": 4}])


def _value_len(cell):
    """Size of a stored value: the store wraps each value in a one-tuple cell."""
    return len(cell[0])


def _sized_store(maxsize, max_bytes=None, sizeof=_value_len):
    """A store over the session's memory-tier LRU with a custom sizeof."""
    return ResultStore(backing=_LRUBacking(maxsize, max_bytes=max_bytes, sizeof=sizeof))


class TestSimulationCacheByteBudget:
    def test_byte_bound_evicts_before_count_bound(self):
        store = _sized_store(maxsize=100, max_bytes=400)
        for n in range(6):
            store.put((n,), "x" * 100)
        assert len(store) < 6  # count bound alone would keep all six
        assert store.info()["approx_bytes"] <= 400
        assert store.contains((5,))  # newest survives

    def test_overwrite_replaces_size(self):
        store = _sized_store(maxsize=8, max_bytes=10_000)
        store.put(("k",), "x" * 5000)
        store.put(("k",), "x" * 10)
        assert store.info()["approx_bytes"] == 10

    def test_info_reports_bytes(self):
        store = _sized_store(maxsize=8, max_bytes=1234)
        store.put(("k",), "x" * 10)
        info = store.info()
        assert info["approx_bytes"] == 10
        assert info["max_bytes"] == 1234

    def test_unbounded_bytes_by_default(self):
        session = make_session()
        session.store.put(("k",), "x" * 100_000)
        assert session.store.contains(("k",))
        assert session.cache_info()["max_bytes"] == 0  # 0 means "no byte bound"

    def test_sizing_failure_never_breaks_caching(self):
        def broken(value):
            raise RuntimeError("sizeof exploded")

        store = _sized_store(maxsize=4, max_bytes=100, sizeof=broken)
        store.put(("k",), "value")
        assert store.get(("k",)) == "value"
        assert store.info()["approx_bytes"] == 0  # unmeasurable counts as zero
