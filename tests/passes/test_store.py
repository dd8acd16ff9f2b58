"""Tests for the pass-result store's default LRU backing.

The pipeline-facing behavior (memoization, invalidation) is covered in
``test_pipeline.py``; this file exercises the backing cache itself —
in particular the approximate byte accounting that bounds a store whose
entry count alone would underestimate its footprint.
"""

from repro.passes.store import ResultStore, _LRUBacking


class TestLRUBacking:
    def test_lru_eviction(self):
        backing = _LRUBacking(maxsize=2)
        backing.put(("a",), 1)
        backing.put(("b",), 2)
        assert backing.get(("a",)) == 1  # refresh "a"
        backing.put(("c",), 3)  # evicts "b", the least recently used
        assert ("b",) not in backing
        assert backing.get(("a",)) == 1 and backing.get(("c",)) == 3

    def test_hit_miss_counters(self):
        backing = _LRUBacking(maxsize=4)
        assert backing.get(("x",)) is None
        backing.put(("x",), 42)
        assert backing.get(("x",)) == 42
        assert backing.info()["hits"] == 1
        assert backing.info()["misses"] == 1


class TestLRUBackingBytes:
    def test_byte_bound_is_a_second_eviction_trigger(self):
        backing = _LRUBacking(maxsize=100, max_bytes=350, sizeof=len)
        for n in range(5):
            backing.put((n,), "x" * 100)
        assert len(backing) <= 3  # 100-entry count bound never fired
        assert backing.approx_bytes <= 350
        assert (4,) in backing

    def test_lru_order_respected_by_byte_eviction(self):
        backing = _LRUBacking(maxsize=100, max_bytes=250, sizeof=len)
        backing.put(("a",), "x" * 100)
        backing.put(("b",), "x" * 100)
        backing.get(("a",))  # refresh: "b" is now least recently used
        backing.put(("c",), "x" * 100)
        assert ("a",) in backing and ("c",) in backing
        assert ("b",) not in backing

    def test_count_bound_still_applies(self):
        backing = _LRUBacking(maxsize=2, max_bytes=10_000_000, sizeof=len)
        for n in range(5):
            backing.put((n,), "small")
        assert len(backing) == 2

    def test_bytes_tracked_through_overwrite_and_eviction(self):
        backing = _LRUBacking(maxsize=8, max_bytes=None, sizeof=len)
        backing.put(("a",), "x" * 30)
        backing.put(("b",), "x" * 70)
        assert backing.approx_bytes == 100
        backing.put(("a",), "x" * 5)  # overwrite: size replaced, not added
        assert backing.approx_bytes == 75
        backing.clear()
        assert backing.approx_bytes == 0

    def test_info_surfaces_byte_accounting(self):
        backing = _LRUBacking(maxsize=4, max_bytes=9000, sizeof=len)
        backing.put(("k",), "x" * 42)
        info = backing.info()
        assert info["approx_bytes"] == 42
        assert info["max_bytes"] == 9000

    def test_no_byte_bound_reports_zero(self):
        backing = _LRUBacking(maxsize=4)
        backing.put(("k",), "x" * 100_000)
        assert ("k",) in backing  # no byte bound: only the count evicts
        assert backing.info()["max_bytes"] == 0

    def test_default_sizeof_orders_by_magnitude(self):
        backing = _LRUBacking(maxsize=4)  # default approx_sizeof
        backing.put(("small",), [1])
        small = backing.approx_bytes
        backing.put(("large",), list(range(10_000)))
        assert backing.approx_bytes > small * 10

    def test_sizing_failure_falls_back_to_zero(self):
        def broken(value):
            raise TypeError("unsizable")

        backing = _LRUBacking(maxsize=4, max_bytes=10, sizeof=broken)
        backing.put(("k",), "a perfectly good value")
        assert backing.get(("k",)) == "a perfectly good value"
        assert backing.approx_bytes == 0  # unmeasurable counts as zero


class TestResultStorePassthrough:
    def test_max_bytes_forwarded_to_default_backing(self):
        store = ResultStore(maxsize=64, max_bytes=77)
        assert store.info()["max_bytes"] == 77

    def test_byte_evicted_entry_is_a_miss(self):
        store = ResultStore(maxsize=64, max_bytes=120)
        store.put(("big",), "x" * 5000)
        store.put(("bigger",), "y" * 5000)
        assert ResultStore.is_miss(store.get(("big",)))
        assert store.get(("bigger",)) == "y" * 5000

    def test_single_oversized_entry_survives(self):
        # Evicting the only (oversized) entry would put the pipeline in
        # a put/miss recompute loop, so the newest entry is exempt.
        store = ResultStore(maxsize=64, max_bytes=16)
        store.put(("huge",), "z" * 100_000)
        assert store.get(("huge",)) == "z" * 100_000
