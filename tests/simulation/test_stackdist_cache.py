"""Tests for stack distances and the cache model (incl. key equivalences)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation import (
    CacheModel,
    MissKind,
    classify_accesses,
    count_misses,
    simulate_lru,
    stack_distances,
    stack_distances_bruteforce,
)
from repro.simulation.cache import simulate_set_associative

INF = math.inf


class TestStackDistances:
    def test_all_cold(self):
        assert stack_distances([1, 2, 3]) == [INF, INF, INF]

    def test_immediate_reuse(self):
        assert stack_distances([1, 1]) == [INF, 0.0]

    def test_textbook_example(self):
        # Trace a b c b a: d(b@3)=1 (c), d(a@4)=2 (b, c distinct).
        dists = stack_distances([1, 2, 3, 2, 1])
        assert dists == [INF, INF, INF, 1.0, 2.0]

    def test_repeated_interleaving(self):
        dists = stack_distances([1, 2, 1, 2, 1])
        assert dists == [INF, INF, 1.0, 1.0, 1.0]

    def test_duplicates_between_counted_once(self):
        # a b b b a: only one distinct line between the two a's.
        dists = stack_distances([1, 2, 2, 2, 1])
        assert dists[-1] == 1.0

    def test_empty(self):
        assert stack_distances([]) == []


class TestBruteforceEquivalence:
    @given(st.lists(st.integers(0, 9), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_fenwick_matches_bruteforce(self, lines):
        assert stack_distances(lines) == stack_distances_bruteforce(lines)

    @given(st.lists(st.integers(0, 3), max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_small_alphabet(self, lines):
        assert stack_distances(lines) == stack_distances_bruteforce(lines)


#: Sizes around powers of two and the counter's dense bases (16 ranks
#: per base node, all pairs up to 256 warm positions).
KERNEL_LENGTHS = [15, 16, 17, 255, 256, 257, 4095, 4096, 4097]


@st.composite
def kernel_traces(draw):
    """Line traces for the array kernel: uniform, cyclic (long reuse
    times, no repeats), runs of immediate repeats, all-cold, one-line
    and reuse (n distinct lines, then all of them again in random order:
    exactly n warm positions) shapes, over dense small ids or sparse,
    negative int64 ids."""
    n = draw(st.one_of(st.integers(0, 300), st.sampled_from(KERNEL_LENGTHS)))
    shape = draw(st.sampled_from(
        ["uniform", "cyclic", "runs", "all_cold", "one_line", "reuse"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = max(1, int(rng.integers(1, max(2, n // 2) + 1)))
    if shape == "uniform":
        ids = rng.integers(0, k, n)
    elif shape == "cyclic":
        ids = np.arange(n) % max(2, k)
    elif shape == "runs":
        ids = np.repeat(rng.integers(0, k, n), rng.integers(1, 40, n))[:n]
    elif shape == "all_cold":
        ids = rng.permutation(n)
    elif shape == "reuse":
        ids = np.concatenate([np.arange(n), rng.permutation(n)])
    else:
        ids = np.zeros(n, dtype=np.int64)
    if draw(st.booleans()):  # sparse, negative int64 line ids
        size = int(ids.max()) + 1 if ids.size else 1
        ids = rng.choice(2**62, size=size, replace=False)[ids] - 2**61
    return ids.astype(np.int64)


class TestArrayKernel:
    """The NumPy stack-distance kernel vs. the pure-Python oracle."""

    @given(kernel_traces())
    @settings(max_examples=200, deadline=None)
    def test_array_kernel_matches_olken(self, lines):
        from repro.simulation import stack_distances_array

        arr = stack_distances_array(lines)
        assert arr.dtype == np.float64
        assert arr.tolist() == stack_distances(lines.tolist())

    @given(
        st.lists(st.integers(-5, 5), max_size=200),
        st.sampled_from([1, 2, 7, 64, 1024]),
    )
    @settings(max_examples=100, deadline=None)
    def test_chunked_fenwick_route_matches(self, lines, chunk):
        from repro.simulation import stack_distances_array

        arr = stack_distances_array(np.asarray(lines, dtype=np.int64), chunk=chunk)
        assert arr.tolist() == stack_distances(lines)

    def test_empty_trace(self):
        from repro.simulation import stack_distances_array

        out = stack_distances_array(np.array([], dtype=np.int64))
        assert out.size == 0 and out.dtype == np.float64

    @given(kernel_traces())
    @settings(max_examples=100, deadline=None)
    def test_partition_counter_equals_fenwick(self, lines):
        """The two private counting engines agree wherever the count is
        used: at every warm position (a line's second or later access)."""
        from repro.simulation.stackdist import (
            _earlier_smaller_counts,
            _prefix_dominance_counts_fenwick,
            _previous_occurrences,
        )

        prev = _previous_occurrences(lines)
        warm = np.flatnonzero(prev >= 0)
        counter = _earlier_smaller_counts(prev[warm])
        fenwick = _prefix_dominance_counts_fenwick(prev, 16)[warm]
        assert counter.tolist() == fenwick.tolist()


class TestFenwickRangeSum:
    def test_lo_zero_is_prefix_sum(self):
        from repro.simulation.stackdist import _Fenwick

        tree = _Fenwick(8)
        for i, value in enumerate([3, 1, 4, 1, 5, 9, 2, 6]):
            tree.add(i, value)
        assert tree.range_sum(0, 7) == 31
        assert tree.range_sum(0, 0) == 3
        assert tree.range_sum(0, 2) == 8

    def test_empty_range_is_zero(self):
        from repro.simulation.stackdist import _Fenwick

        tree = _Fenwick(4)
        tree.add(2, 5)
        assert tree.range_sum(3, 2) == 0
        assert tree.range_sum(2, 1) == 0
        assert tree.range_sum(0, -1) == 0

    def test_interior_range(self):
        from repro.simulation.stackdist import _Fenwick

        tree = _Fenwick(6)
        for i in range(6):
            tree.add(i, i + 1)
        assert tree.range_sum(2, 4) == 3 + 4 + 5


class TestElementStackDistances:
    def make_trace(self):
        from repro.sdfg.sdfg import SDFG
        from repro.sdfg import dtypes
        from repro.sdfg.memlet import Memlet
        from repro.simulation import MemoryModel, simulate_state

        sdfg = SDFG("esd")
        sdfg.add_array("A", [4, 4], dtypes.float64)
        sdfg.add_array("B", [4, 4], dtypes.float64)
        state = sdfg.add_state("main")
        state.add_mapped_tasklet(
            "compute",
            {"i": "0:4", "j": "0:4"},
            inputs={"a": Memlet("A", "i, j"), "b": Memlet("A", "j, i")},
            code="out = a + b",
            outputs={"out": Memlet("B", "i, j")},
        )
        result = simulate_state(sdfg, {}, fast=True)
        return result, MemoryModel(sdfg, {}, line_size=32)

    def test_precomputed_distances_reused(self):
        from repro.simulation import element_stack_distances, stack_distances
        from repro.simulation.stackdist import line_trace

        result, memory = self.make_trace()
        distances = stack_distances(line_trace(result.events, memory))
        fresh = element_stack_distances(result.events, memory)
        reused = element_stack_distances(result.events, memory, distances=distances)
        assert reused == fresh
        # Sentinel distances prove the precomputed values are actually used.
        sentinel = [float(i) for i in range(len(result.events))]
        tagged = element_stack_distances(result.events, memory, distances=sentinel)
        assert sorted(v for vs in tagged.values() for v in vs) == sentinel

    def test_data_filter_with_precomputed(self):
        from repro.simulation import element_stack_distances, stack_distances
        from repro.simulation.stackdist import line_trace

        result, memory = self.make_trace()
        distances = stack_distances(line_trace(result.events, memory))
        only_a = element_stack_distances(
            result.events, memory, data="A", distances=distances
        )
        assert only_a
        assert all(name == "A" for name, _ in only_a)
        full = element_stack_distances(result.events, memory, distances=distances)
        assert only_a == {k: v for k, v in full.items() if k[0] == "A"}


class TestCacheModel:
    def test_classification(self):
        model = CacheModel(line_size=64, capacity_lines=4)
        assert model.classify(INF) is MissKind.COLD
        assert model.classify(3.0) is MissKind.HIT
        assert model.classify(4.0) is MissKind.CAPACITY
        assert model.classify(100.0) is MissKind.CAPACITY

    def test_count_misses(self):
        model = CacheModel(capacity_lines=2)
        counts = count_misses([INF, INF, 0.0, 2.0, 1.0], model)
        assert (counts.hits, counts.cold, counts.capacity) == (2, 2, 1)
        assert counts.misses == 3
        assert counts.miss_rate == pytest.approx(0.6)

    def test_capacity_bytes(self):
        assert CacheModel(64, 512).capacity_bytes == 32768

    def test_invalid_params(self):
        with pytest.raises(SimulationError):
            CacheModel(line_size=0)
        with pytest.raises(SimulationError):
            CacheModel(capacity_lines=0)

    def test_classify_accesses(self):
        model = CacheModel(capacity_lines=8)
        kinds = classify_accesses([INF, 1.0], model)
        assert kinds == [MissKind.COLD, MissKind.HIT]


class TestLRUSimulator:
    def test_basic(self):
        misses = simulate_lru([1, 2, 1, 3, 2], capacity_lines=2)
        assert misses == [True, True, False, True, True]

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            simulate_lru([1], 0)

    @given(
        st.lists(st.integers(0, 9), max_size=200),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_threshold_model_equals_exact_lru(self, lines, capacity):
        """The paper's justification: distance >= C  <=>  LRU miss.

        This is the McKinley/Temam & Beyls/D'Hollander argument for
        estimating misses from stack distances under full associativity.
        """
        model = CacheModel(capacity_lines=capacity)
        predicted = [model.classify(d).is_miss for d in stack_distances(lines)]
        assert predicted == simulate_lru(lines, capacity)

    def test_conflict_misses_on_same_set_pattern(self):
        """Lines mapping to one set conflict even in an underfull cache."""
        # Lines 0 and 4 both map to set 0 of a 4-set direct-mapped cache.
        lines = [0, 4, 0, 4]
        sa = simulate_set_associative(lines, num_sets=4, ways=1)
        fa = simulate_lru(lines, capacity_lines=4)
        assert sum(sa) == 4  # every access conflicts
        assert sum(fa) == 2  # fully associative: both fit
        assert sum(sa) > sum(fa)

    def test_fully_associative_is_one_set(self):
        lines = [1, 5, 1, 9, 5, 1]
        assert simulate_set_associative(lines, 1, 3) == simulate_lru(lines, 3)

    @given(
        st.lists(st.integers(0, 15), max_size=150),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_set_equals_lru(self, lines, ways):
        """A single set holding *ways* lines IS a fully-associative LRU
        cache of that capacity — the set-associative backend must degrade
        to ``simulate_lru`` exactly."""
        assert simulate_set_associative(lines, 1, ways) == simulate_lru(lines, ways)


class TestVectorizedLineTraces:
    """``stack_distances`` on traces produced by the vectorized fast path."""

    @given(
        st.integers(1, 4),  # I extent
        st.integers(1, 4),  # J extent
        st.integers(1, 2),  # memlet coefficient on i
        st.integers(8, 96),  # line size
    )
    @settings(max_examples=40, deadline=None)
    def test_fenwick_matches_bruteforce_on_vectorized_traces(
        self, ni, nj, coeff, line_size
    ):
        from repro.sdfg import dtypes
        from repro.sdfg.memlet import Memlet
        from repro.sdfg.sdfg import SDFG
        from repro.simulation import MemoryModel, build_array_trace, simulate_state

        sdfg = SDFG("vectrace")
        sdfg.add_array("A", [32, 32], dtypes.float64)
        sdfg.add_array("B", [32, 32], dtypes.float64)
        state = sdfg.add_state("main")
        state.add_mapped_tasklet(
            "compute",
            {"i": f"0:{ni}", "j": f"0:{nj}"},
            inputs={"a": Memlet("A", f"{coeff}*i, j"), "b": Memlet("A", "j, i")},
            code="out = a + b",
            outputs={"out": Memlet("B", "i, j")},
        )
        result = simulate_state(sdfg, {}, fast=True)
        assert all(isinstance(b.positions, slice) for b in result.blocks)
        memory = MemoryModel(sdfg, {}, line_size=line_size)
        lines = build_array_trace(result, memory).lines.tolist()
        assert stack_distances(lines) == stack_distances_bruteforce(lines)
