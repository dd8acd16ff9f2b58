"""Tests for the crash-safe persistent cache: normal operation.

Fault injection (corruption, degradation, races) lives in
``test_fault_injection.py``; session-level wiring in
``test_session_disk.py``.
"""

import errno
import gc
import os
import pickle
import threading
import time
import types

import numpy as np
import pytest

from repro.apps import bert
from repro.errors import LockTimeout
from repro.locality import analyze_locality
from repro.obs import MetricsRegistry, Tracer
from repro.passes.store import ResultStore, _LRUBacking
from repro.storage import (
    DiskCache,
    FileLock,
    TieredBacking,
    approx_sizeof,
    key_digest,
)


class TestKeyDigest:
    def test_stable_across_instances(self):
        key = ("local.trace", ("fp", "abc123"), (("env", (("I", 8),)),))
        assert key_digest(key) == key_digest(key)
        assert len(key_digest(key)) == 64

    def test_distinct_keys_distinct_digests(self):
        assert key_digest(("a", 1)) != key_digest(("a", 2))
        assert key_digest(("a",)) != key_digest(("b",))

    def test_set_order_canonicalized(self):
        assert key_digest(frozenset({"x", "y", "z"})) == key_digest(
            frozenset({"z", "x", "y"})
        )

    def test_dict_order_canonicalized(self):
        assert key_digest({"a": 1, "b": 2}) == key_digest({"b": 2, "a": 1})

    def test_str_int_not_conflated(self):
        assert key_digest(("1",)) != key_digest((1,))


class TestDiskCacheRoundtrip:
    def test_roundtrip_same_instance(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(("k", 1), {"result": [1, 2, 3]})
        assert cache.get(("k", 1)) == {"result": [1, 2, 3]}

    def test_roundtrip_across_instances(self, tmp_path):
        DiskCache(tmp_path).put(("k", 1), ("value", 42))
        fresh = DiskCache(tmp_path)
        assert fresh.get(("k", 1)) == ("value", 42)

    def test_miss_returns_none(self, tmp_path):
        assert DiskCache(tmp_path).get(("absent",)) is None

    def test_none_is_a_legal_value_via_result_store(self, tmp_path):
        # The backing protocol reserves None for misses; the cell
        # convention of ResultStore makes None a storable product.
        store = ResultStore(backing=DiskCache(tmp_path))
        store.put(("k",), None)
        fresh = ResultStore(backing=DiskCache(tmp_path))
        assert fresh.get(("k",)) is None
        assert not ResultStore.is_miss(fresh.get(("k",)))

    def test_existing_entry_not_rewritten(self, tmp_path):
        metrics = MetricsRegistry()
        cache = DiskCache(tmp_path, metrics=metrics)
        cache.put(("k",), "v")
        cache.put(("k",), "v")
        assert metrics.counter("disk.writes").value == 1

    def test_contains_len_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert ("a",) in cache
        assert ("c",) not in cache
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.get(("a",)) is None

    def test_info(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=12345)
        cache.put(("a",), "x" * 100)
        info = cache.info()
        assert info["entries"] == 1
        assert info["bytes"] > 100
        assert info["max_bytes"] == 12345
        assert info["disabled"] is False
        assert info["degraded_reason"] is None


class TestCountersAndSpans:
    def test_hit_miss_counters(self, tmp_path):
        metrics = MetricsRegistry()
        cache = DiskCache(tmp_path, metrics=metrics)
        cache.get(("absent",))
        cache.put(("k",), 1)
        cache.get(("k",))
        cache.get(("k",))
        assert metrics.counter("disk.misses").value == 1
        assert metrics.counter("disk.hits").value == 2

    def test_storage_spans_emitted(self, tmp_path):
        tracer = Tracer()
        cache = DiskCache(tmp_path, tracer=tracer)
        cache.put(("k",), "payload")
        cache.get(("k",))
        assert tracer.count("storage:write") == 1
        assert tracer.count("storage:read") == 1
        (write,) = tracer.spans("storage:write")
        assert write.attributes["bytes"] > 0

    def test_no_collectors_is_fine(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(("k",), 1)
        assert cache.get(("k",)) == 1


class TestEviction:
    def test_byte_budget_evicts_oldest(self, tmp_path):
        metrics = MetricsRegistry()
        cache = DiskCache(tmp_path, max_bytes=4096, metrics=metrics)
        blob = "x" * 1500
        for index in range(4):
            cache.put(("k", index), blob)
            time.sleep(0.01)  # distinct mtimes for deterministic LRU order
        assert cache.total_bytes() <= 4096
        assert metrics.counter("disk.evictions").value >= 1
        assert metrics.counter("disk.evicted_bytes").value > 0
        # The newest entry always survives (the keep exemption).
        assert ("k", 3) in cache
        assert ("k", 0) not in cache

    def test_read_refreshes_lru_position(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=4096)
        blob = "x" * 1500
        cache.put(("old",), blob)
        time.sleep(0.01)
        cache.put(("mid",), blob)
        time.sleep(0.01)
        cache.get(("old",))  # touch: now newer than ("mid",)
        time.sleep(0.01)
        cache.put(("new",), blob)  # pushes past budget
        assert ("old",) in cache
        assert ("mid",) not in cache

    def test_oversized_single_entry_survives(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=64)
        cache.put(("big",), "x" * 1000)
        assert cache.get(("big",)) == "x" * 1000

    def test_eviction_span(self, tmp_path):
        tracer = Tracer()
        cache = DiskCache(tmp_path, max_bytes=2048, tracer=tracer)
        for index in range(3):
            cache.put(("k", index), "x" * 1500)
            time.sleep(0.01)
        assert tracer.count("storage:evict") >= 1


class TestByteLedger:
    """The ledger keeps the budget without walking the directory per put."""

    @staticmethod
    def _spy_walks(cache, monkeypatch) -> list:
        calls = []
        walk = cache._entry_files

        def spy(*args, **kwargs):
            calls.append(1)
            return walk(*args, **kwargs)

        monkeypatch.setattr(cache, "_entry_files", spy)
        return calls

    def test_puts_under_budget_walk_once(self, tmp_path, monkeypatch):
        metrics = MetricsRegistry()
        cache = DiskCache(tmp_path, metrics=metrics)
        walks = self._spy_walks(cache, monkeypatch)
        for index in range(200):
            cache.put(("k", index), index)
        assert len(walks) == 1  # the first write's re-baseline
        assert metrics.counter("disk.scans").value == 1
        assert metrics.counter("disk.writes").value == 200
        assert cache._read_ledger() == cache.total_bytes()

    def test_two_instances_share_the_budget(self, tmp_path):
        """Two writers on one directory, each with its own lock as two
        processes would have: a total kept per writer would let the
        directory grow to twice the budget."""
        budget = 4096
        metrics = MetricsRegistry()
        writers = [
            DiskCache(tmp_path, max_bytes=budget, metrics=metrics)
            for _ in range(2)
        ]
        assert writers[0]._lock is not writers[1]._lock
        for index in range(30):
            writers[index % 2].put(("k", index), "x" * 500)
            assert writers[0].total_bytes() <= budget
        assert metrics.counter("disk.evictions").value > 0
        assert writers[1]._read_ledger() == writers[0].total_bytes()

    def test_oversized_entry_is_the_only_excess(self, tmp_path):
        writers = [DiskCache(tmp_path, max_bytes=1024) for _ in range(2)]
        writers[0].put(("small",), "x" * 200)
        writers[1].put(("big",), "x" * 3000)
        assert len(writers[0]) == 1  # one entry that alone exceeds it
        writers[0].put(("small", 2), "x" * 200)
        assert writers[0].total_bytes() <= 1024

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: path.unlink(),
            lambda path: path.write_bytes(path.read_bytes()[:5]),
            lambda path: path.write_bytes(b"not a ledger record"),
            lambda path: path.write_bytes(bytes(16)),
        ],
        ids=["deleted", "truncated", "garbage", "zeroed"],
    )
    def test_damaged_record_is_rebuilt_by_a_walk(self, tmp_path, damage):
        budget = 4096
        metrics = MetricsRegistry()
        cache = DiskCache(tmp_path, max_bytes=budget, metrics=metrics)
        for index in range(2):
            cache.put(("k", index), "x" * 1500)
        scans = metrics.counter("disk.scans").value
        damage(cache._ledger)
        cache.put(("k", 2), "x" * 1500)  # past the budget: must evict
        assert metrics.counter("disk.scans").value == scans + 1
        assert cache.total_bytes() <= budget
        assert cache._read_ledger() == cache.total_bytes()

    def test_undercounting_record_evicts_on_first_write(self, tmp_path):
        filler = DiskCache(tmp_path)
        for index in range(10):
            filler.put(("k", index), "x" * 1500)
        filler._write_ledger(0)  # e.g. a crash between publish and update
        metrics = MetricsRegistry()
        fresh = DiskCache(tmp_path, max_bytes=4096, metrics=metrics)
        fresh.put(("new",), "x" * 100)
        assert fresh.total_bytes() <= 4096
        assert metrics.counter("disk.evictions").value > 0
        assert fresh._read_ledger() == fresh.total_bytes()

    def test_clear_resets_the_record(self, tmp_path):
        metrics = MetricsRegistry()
        cache = DiskCache(tmp_path, max_bytes=4096, metrics=metrics)
        for index in range(3):
            cache.put(("old", index), "x" * 1500)
        cache.clear()
        assert cache._read_ledger() == 0
        evictions = metrics.counter("disk.evictions").value
        scans = metrics.counter("disk.scans").value
        cache.put(("new", 0), "x" * 1500)
        cache.put(("new", 1), "x" * 1500)
        assert metrics.counter("disk.evictions").value == evictions
        assert metrics.counter("disk.scans").value == scans  # no walk
        assert len(cache) == 2

    def test_failed_write_leaves_record_unchanged(self, tmp_path, monkeypatch):
        metrics = MetricsRegistry()
        cache = DiskCache(tmp_path, metrics=metrics)
        cache.put(("k",), "value")
        before = cache._read_ledger()

        def flaky(src, dst, **kwargs):
            raise OSError(errno.EIO, "input/output error", str(dst))

        monkeypatch.setattr(os, "replace", flaky)
        cache.put(("k2",), "value")
        assert metrics.counter("disk.io_errors").value == 1
        assert not cache.disabled
        assert cache._read_ledger() == before

    def test_key_published_meanwhile_is_not_counted_twice(self, tmp_path, monkeypatch):
        metrics = MetricsRegistry()
        first = DiskCache(tmp_path, metrics=metrics)
        other = DiskCache(tmp_path)
        first.put(("seed",), "x")
        acquire = first._lock.acquire

        def racing_acquire():
            other.put(("k",), "v" * 100)  # another process wins the race
            return acquire()

        monkeypatch.setattr(first._lock, "acquire", racing_acquire)
        first.put(("k",), "v" * 100)
        assert metrics.counter("disk.writes").value == 1  # ("seed",) only
        assert first._read_ledger() == first.total_bytes()

    def test_info_walks_once(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        cache.put(("a",), "x" * 100)
        cache.put(("b",), "y" * 300)
        walks = self._spy_walks(cache, monkeypatch)
        info = cache.info()
        assert len(walks) == 1
        files = list(tmp_path.glob("??/*.rpc"))
        assert info["entries"] == len(files) == 2
        assert info["bytes"] == sum(f.stat().st_size for f in files)



class TestStrayTempFiles:
    """A writer that dies between creating its temp file and publishing
    it leaves the file behind; walks under the writer lock remove it."""

    @staticmethod
    def _plant(cache, key, size=100_000):
        path = cache._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        stray = path.parent / ".tmp-99999-0"
        stray.write_bytes(b"x" * size)
        return stray

    def test_rebaseline_removes_a_stray(self, tmp_path):
        metrics = MetricsRegistry()
        cache = DiskCache(tmp_path, metrics=metrics)
        stray = self._plant(cache, ("k",))
        cache.put(("k",), "value")  # first write: re-baseline walk
        assert not stray.exists()
        assert metrics.counter("disk.tmp_removed").value == 1
        assert cache._read_ledger() == cache.total_bytes()

    def test_eviction_removes_a_stray_the_budget_never_counts(self, tmp_path):
        metrics = MetricsRegistry()
        cache = DiskCache(tmp_path, max_bytes=4096, metrics=metrics)
        cache.put(("a",), "x" * 1500)
        stray = self._plant(cache, ("b",), size=10_000)
        cache.put(("b",), "x" * 1500)  # under budget: no walk
        assert stray.exists()
        assert cache._read_ledger() == cache.total_bytes() <= 4096
        assert cache.info()["bytes"] == cache.total_bytes()
        cache.put(("c",), "x" * 1500)  # past the budget: the walk evicts
        assert not stray.exists()
        assert metrics.counter("disk.tmp_removed").value == 1
        assert len(cache) == 2  # the stray's bytes evicted nothing extra

    def test_clear_removes_a_stray(self, tmp_path):
        metrics = MetricsRegistry()
        cache = DiskCache(tmp_path, metrics=metrics)
        cache.put(("a",), "value")
        stray = self._plant(cache, ("a",))
        cache.clear()
        assert not stray.exists()
        assert metrics.counter("disk.tmp_removed").value == 1
        assert cache._read_ledger() == 0

    def test_unlocked_walks_leave_temp_files(self, tmp_path):
        """``info`` and ``len`` walk without the lock, where a temp file
        may be a live writer's."""
        cache = DiskCache(tmp_path)
        cache.put(("a",), "value")
        stray = self._plant(cache, ("a",))
        assert len(cache) == 1
        cache.info()
        cache.total_bytes()
        assert stray.exists()


class TestFileLock:
    def test_mutual_exclusion_times_out(self, tmp_path):
        path = tmp_path / "x.lock"
        first = FileLock(path, timeout=5.0)
        second = FileLock(path, timeout=0.1)
        with first:
            with pytest.raises(LockTimeout):
                second.acquire()

    def test_release_allows_reacquire(self, tmp_path):
        path = tmp_path / "x.lock"
        lock = FileLock(path, timeout=0.5)
        with lock:
            pass
        with FileLock(path, timeout=0.5):
            pass

    def test_contended_threads_serialize(self, tmp_path):
        path = tmp_path / "x.lock"
        active = []
        overlap = []

        def worker():
            with FileLock(path, timeout=10.0):
                active.append(1)
                overlap.append(len(active))
                time.sleep(0.01)
                active.pop()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert max(overlap) == 1


class TestTieredBacking:
    def _tiers(self, tmp_path):
        memory = _LRUBacking(maxsize=8)
        disk = DiskCache(tmp_path)
        return memory, disk, TieredBacking(memory, disk)

    def test_write_through_both_tiers(self, tmp_path):
        memory, disk, tiered = self._tiers(tmp_path)
        tiered.put(("k",), ("cell",))
        assert memory.get(("k",)) == ("cell",)
        assert disk.get(("k",)) == ("cell",)

    def test_disk_hit_promoted_to_memory(self, tmp_path):
        memory, disk, tiered = self._tiers(tmp_path)
        disk.put(("k",), ("cell",))
        assert tiered.get(("k",)) == ("cell",)
        assert ("k",) in memory

    def test_clear_drops_memory_only(self, tmp_path):
        memory, disk, tiered = self._tiers(tmp_path)
        tiered.put(("k",), ("cell",))
        tiered.clear()
        assert ("k",) not in memory
        assert disk.get(("k",)) == ("cell",)
        # ... and the tiered view still serves it (via promotion).
        assert tiered.get(("k",)) == ("cell",)

    def test_info_merges_disk_stats(self, tmp_path):
        _, _, tiered = self._tiers(tmp_path)
        tiered.put(("k",), ("cell",))
        info = tiered.info()
        assert info["entries"] == 1
        assert info["disk"]["entries"] == 1


class TestApproxSizeof:
    def test_scales_with_content(self):
        assert approx_sizeof("x" * 10000) > approx_sizeof("x")
        assert approx_sizeof(list(range(1000))) > approx_sizeof([1])

    def test_walks_containers_and_objects(self):
        class Holder:
            def __init__(self):
                self.payload = "y" * 5000

        assert approx_sizeof({"k": Holder()}) > 5000

    def test_shared_substructure_counted_once(self):
        shared = "z" * 10000
        assert approx_sizeof([shared, shared]) < 2 * approx_sizeof(shared)

    def test_self_reference_terminates(self):
        loop: list = []
        loop.append(loop)
        assert approx_sizeof(loop) > 0

    def test_counts_arrays_at_any_depth(self):
        array = np.zeros(100_000)
        nested: list = [array]
        for _ in range(10_000):  # deeper than the interpreter stack allows
            nested = [nested]
        assert approx_sizeof(nested) >= array.nbytes

    def test_charges_a_view_its_base(self):
        array = np.zeros(100_000)
        assert approx_sizeof([array[::2]]) >= array.nbytes
        unpickled = pickle.loads(pickle.dumps(array, protocol=4))
        assert unpickled.base is not None  # wraps the pickle's bytes
        assert approx_sizeof(unpickled) >= array.nbytes

    def test_analytic_product_counts_every_array(self):
        """The engine keeps its per-region arrays four levels down, and a
        product shipped from a pool worker arrives unpickled."""
        product = analyze_locality(
            bert.build_sdfg(), {"B": 1, "H": 2, "SM": 4, "EMB": 8, "FF": 8, "P": 4}
        )
        shipped = pickle.loads(pickle.dumps(product))
        for value in (product, shipped):
            arrays = _arrays(value)
            assert len(arrays) > 100
            assert approx_sizeof(value) >= sum(a.nbytes for a in arrays)


def _arrays(obj) -> list:
    """Every NumPy array reachable from *obj*, found through the garbage
    collector's referents rather than the walk under test."""
    shared = (type, types.FunctionType, types.ModuleType)
    seen: set[int] = set()
    found = []
    layer = [obj]
    while layer:
        fresh = []
        for value in layer:
            if id(value) not in seen and not isinstance(value, shared):
                seen.add(id(value))
                fresh.append(value)
        found += [v for v in fresh if isinstance(v, np.ndarray)]
        layer = gc.get_referents(*fresh)
    return found
