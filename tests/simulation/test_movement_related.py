"""Tests for physical-movement estimation and related accesses."""

import pytest

from repro.frontend import pmap, program
from repro.sdfg.dtypes import float64
from repro.simulation import (
    CacheModel,
    MemoryModel,
    container_physical_movement,
    edge_physical_movement,
    related_access_counts,
    simulate_state,
)
from repro.simulation.movement import per_container_misses, per_element_misses
from repro.symbolic import symbols

I, J, K = symbols("I J K")


@program
def outer_product(A: float64[I], B: float64[J], C: float64[I, J]):
    for i, j in pmap(I, J):
        C[i, j] = A[i] * B[j]


@program
def sweep_rows(A: float64[I, J], B: float64[I, J]):
    for i, j in pmap(I, J):
        B[i, j] = A[i, j] * 2.0


def simulate(prog, env):
    sdfg = prog.to_sdfg()
    result = simulate_state(sdfg, env)
    memory = MemoryModel(sdfg, env, line_size=64)
    return sdfg, result, memory


class TestContainerMisses:
    def test_streaming_misses_once_per_line(self):
        # 8x8 doubles = 8 lines per container; streaming access with a big
        # cache => cold misses only, one per line.
        sdfg, result, memory = simulate(sweep_rows, {"I": 8, "J": 8})
        model = CacheModel(line_size=64, capacity_lines=1024)
        misses = per_container_misses(result.events, memory, model)
        assert misses["A"].cold == 8
        assert misses["A"].capacity == 0
        assert misses["B"].cold == 8

    def test_small_cache_causes_capacity_misses(self):
        sdfg, result, memory = simulate(outer_product, {"I": 8, "J": 64})
        # B rows: 64 doubles = 8 lines; cache of 2 lines thrashes B.
        model = CacheModel(line_size=64, capacity_lines=2)
        misses = per_container_misses(result.events, memory, model)
        assert misses["B"].capacity > 0

    def test_big_cache_no_capacity_misses(self):
        sdfg, result, memory = simulate(outer_product, {"I": 8, "J": 8})
        model = CacheModel(line_size=64, capacity_lines=10_000)
        misses = per_container_misses(result.events, memory, model)
        for counts in misses.values():
            assert counts.capacity == 0

    def test_per_element_misses(self):
        sdfg, result, memory = simulate(sweep_rows, {"I": 4, "J": 8})
        model = CacheModel(line_size=64, capacity_lines=1024)
        elem = per_element_misses(result.events, memory, model, "A")
        # First element of each 8-double row is the cold miss.
        assert elem[(0, 0)].cold == 1
        assert elem[(0, 1)].cold == 0
        assert elem[(0, 1)].hits == 1


class TestPhysicalMovement:
    def test_streaming_volume_is_container_size(self):
        sdfg, result, memory = simulate(sweep_rows, {"I": 8, "J": 8})
        model = CacheModel(line_size=64, capacity_lines=1024)
        moved = container_physical_movement(result.events, memory, model)
        # 8x8 doubles = 512 bytes: each line fetched exactly once.
        assert moved["A"] == 512
        assert moved["B"] == 512

    def test_physical_at_most_logical(self):
        sdfg, result, memory = simulate(outer_product, {"I": 8, "J": 8})
        model = CacheModel(line_size=64, capacity_lines=1024)
        moved = container_physical_movement(result.events, memory, model)
        logical_a = result.total_accesses("A") * 8
        assert moved["A"] <= logical_a

    def test_edge_movement_keys(self):
        sdfg, result, memory = simulate(outer_product, {"I": 4, "J": 4})
        model = CacheModel(line_size=64, capacity_lines=64)
        state = sdfg.start_state
        misses = per_container_misses(result.events, memory, model)
        edge_est = edge_physical_movement(state, misses, model)
        assert len(edge_est) == len(list(state.all_memlets()))
        assert all(v >= 0 for v in edge_est.values())

    def test_movement_shrinks_with_bigger_cache(self):
        sdfg, result, memory = simulate(outer_product, {"I": 8, "J": 64})
        small = container_physical_movement(
            result.events, memory, CacheModel(64, 2)
        )
        large = container_physical_movement(
            result.events, memory, CacheModel(64, 4096)
        )
        assert large["B"] <= small["B"]


class TestRelatedAccesses:
    def test_outer_product_related(self):
        # Fig. 4c: selecting C[i0, :] relates A[i0] and all of B.
        sdfg = outer_product.to_sdfg()
        result = simulate_state(sdfg, {"I": 4, "J": 3})
        counts = related_access_counts(
            result, [("C", (2, 0)), ("C", (2, 1)), ("C", (2, 2))]
        )
        assert counts[("A", (2,))] == 3  # A[2] in all 3 executions
        assert counts[("B", (0,))] == 1
        assert counts[("B", (1,))] == 1
        assert ("A", (0,)) not in counts

    def test_restrict_to_container(self):
        sdfg = outer_product.to_sdfg()
        result = simulate_state(sdfg, {"I": 2, "J": 2})
        counts = related_access_counts(result, [("B", (0,))], data="C")
        assert set(k[0] for k in counts) == {"C"}
        assert counts[("C", (0, 0))] == 1
        assert counts[("C", (1, 0))] == 1

    def test_empty_selection(self):
        sdfg = outer_product.to_sdfg()
        result = simulate_state(sdfg, {"I": 2, "J": 2})
        assert related_access_counts(result, []) == {}
