"""Differential tests: array-native locality pipeline vs. the object pipeline.

The array pipeline (ArrayTrace + NumPy kernels) must produce *exactly*
the same distances, miss labels and per-element aggregates as the
per-event object pipeline, on the example apps and on random affine
programs.  It must also never force the lazy event trace to materialize.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.apps import bert, cloudsc, conv, hdiff, linalg
from repro.simulation import (
    CacheModel,
    MemoryModel,
    build_array_trace,
    container_physical_movement,
    container_physical_movement_array,
    count_misses,
    count_misses_array,
    element_stack_distances,
    miss_masks,
    per_container_misses,
    per_container_misses_array,
    per_element_misses,
    per_element_misses_array,
    simulate_state,
    stack_distances,
    stack_distances_array,
)
from repro.simulation.arrays import element_distance_lists, per_container_outcomes
from repro.simulation.cache import MissCounts, MissKind, classify_three_way
from repro.simulation.stackdist import line_trace

from tests.simulation.test_vectorized_differential import (
    random_programs,
    single_map_sdfg,
)


def hdiff_reshaped():
    """hdiff after the paper's reshape: a quarter of its accesses repeat
    the line just accessed."""
    sdfg = hdiff.build_sdfg()
    hdiff.apply_reshape(sdfg)
    return sdfg


APP_CASES = [
    pytest.param(hdiff.build_sdfg, hdiff.LOCAL_VIEW_SIZES, id="hdiff"),
    pytest.param(hdiff_reshaped, hdiff.LOCAL_VIEW_SIZES, id="hdiff-reshape"),
    pytest.param(conv.build_conv, conv.FIG4_SIZES, id="conv"),
    pytest.param(linalg.build_matmul, {"I": 5, "J": 4, "K": 3}, id="matmul"),
    pytest.param(
        bert.build_sdfg,
        {"B": 1, "H": 2, "SM": 2, "EMB": 2, "FF": 2, "P": 2},
        id="bert",
    ),
    pytest.param(cloudsc.build_sdfg, {"NBLOCKS": 32, "KLEV": 16}, id="cloudsc"),
]


def pipeline_inputs(sdfg, sizes, line_size=64):
    result = simulate_state(sdfg, sizes, fast=True)
    memory = MemoryModel(sdfg, sizes, line_size=line_size)
    trace = build_array_trace(result, memory)
    return result, memory, trace


def assert_pipelines_agree(sdfg, sizes, capacity_lines=16):
    result, memory, trace = pipeline_inputs(sdfg, sizes)
    model = CacheModel(line_size=64, capacity_lines=capacity_lines)
    if trace is None:
        return None  # interpreted portions: object pipeline only
    assert not result.events_materialized(), (
        "building the array trace must not materialize AccessEvents"
    )
    ref_lines = line_trace(result.events, memory)
    assert trace.lines.dtype == np.int64
    assert trace.lines.tolist() == ref_lines

    dist_ref = stack_distances(ref_lines)
    dist_arr = stack_distances_array(trace.lines)
    assert dist_arr.tolist() == dist_ref

    assert count_misses_array(dist_arr, model) == count_misses(dist_ref, model)

    pc_ref = per_container_misses(result.events, memory, model, dist_ref)
    pc_arr = per_container_misses_array(trace, dist_arr, model)
    assert pc_arr == pc_ref
    assert list(pc_arr) == list(pc_ref)  # first-access container order

    for name in trace.containers:
        pe_ref = per_element_misses(result.events, memory, model, name, dist_ref)
        pe_arr = per_element_misses_array(trace, dist_arr, model, name)
        assert pe_arr == pe_ref

    ed_ref = element_stack_distances(result.events, memory, distances=dist_ref)
    ed_arr = element_distance_lists(trace, dist_arr)
    assert ed_arr == ed_ref

    mv_ref = container_physical_movement(result.events, memory, model, dist_ref)
    mv_arr = container_physical_movement_array(trace, dist_arr, model)
    assert mv_arr == mv_ref
    return trace


class TestExampleApps:
    @pytest.mark.parametrize("build, sizes", APP_CASES)
    def test_full_pipeline_equality(self, build, sizes):
        trace = assert_pipelines_agree(build(), sizes)
        assert trace is not None, "example apps must take the array path"

    @pytest.mark.parametrize("capacity", [1, 4, 64, 4096])
    def test_capacity_sweep_on_hdiff(self, capacity):
        assert_pipelines_agree(
            hdiff.build_sdfg(), hdiff.LOCAL_VIEW_SIZES, capacity_lines=capacity
        )

    def test_single_container_query(self):
        sdfg = hdiff.build_sdfg()
        result, memory, trace = pipeline_inputs(sdfg, hdiff.LOCAL_VIEW_SIZES)
        dist = stack_distances_array(trace.lines)
        for name in trace.containers:
            ref = element_stack_distances(
                result.events, memory, data=name, distances=dist.tolist()
            )
            assert element_distance_lists(trace, dist, data=name) == ref

    def test_unknown_container_is_empty(self):
        _, _, trace = pipeline_inputs(hdiff.build_sdfg(), hdiff.LOCAL_VIEW_SIZES)
        model = CacheModel(64, 16)
        dist = stack_distances_array(trace.lines)
        assert per_element_misses_array(trace, dist, model, "nope") == {}


class TestArrayTraceConstruction:
    def test_interpreted_trace_returns_none(self):
        # i*i is non-affine: the vectorized path falls back in-scope and
        # records no strided blocks, so no array trace exists.
        sdfg = single_map_sdfg(["i*i, j"], {"i": "0:4", "j": "0:3"})
        result = simulate_state(sdfg, {}, fast=True)
        memory = MemoryModel(sdfg, {}, line_size=64)
        assert not result.vector_blocks
        assert build_array_trace(result, memory) is None

    def test_interpreter_result_returns_none(self):
        sdfg = hdiff.build_sdfg()
        result = simulate_state(sdfg, hdiff.LOCAL_VIEW_SIZES, fast=False)
        memory = MemoryModel(sdfg, hdiff.LOCAL_VIEW_SIZES, line_size=64)
        assert build_array_trace(result, memory) is None

    def test_containers_in_first_access_order(self):
        result, _, trace = pipeline_inputs(hdiff.build_sdfg(), hdiff.LOCAL_VIEW_SIZES)
        seen: list[str] = []
        for event in result.events:
            if event.data not in seen:
                seen.append(event.data)
        assert trace.containers == seen

    def test_unflatten_roundtrip(self):
        result, _, trace = pipeline_inputs(hdiff.build_sdfg(), hdiff.LOCAL_VIEW_SIZES)
        for container, name in enumerate(trace.containers):
            member = np.flatnonzero(trace.container_ids == container)
            tuples = trace.unflatten_keys(container, trace.element_keys[member])
            events = [e for e in result.events if e.data == name]
            assert tuples == [e.indices for e in events]


class TestMissMasks:
    def test_masks_match_enum_classification(self):
        model = CacheModel(64, 4)
        d = np.array([np.inf, 0.0, 3.0, 4.0, 100.0, np.inf])
        cold, capacity = miss_masks(d, model)
        for value, is_cold, is_cap in zip(d.tolist(), cold, capacity):
            kind = model.classify(value)
            assert bool(is_cold) == (kind is MissKind.COLD)
            assert bool(is_cap) == (kind is MissKind.CAPACITY)


class TestSetAssociativeOutcomes:
    def test_per_container_outcomes_match_event_loop(self):
        result, memory, trace = pipeline_inputs(
            hdiff.build_sdfg(), hdiff.LOCAL_VIEW_SIZES
        )
        kinds = classify_three_way(trace.lines.tolist(), num_sets=8, ways=2)
        ref: dict[str, MissCounts] = {}
        for event, kind in zip(result.events, kinds):
            counts = ref.setdefault(event.data, MissCounts())
            if kind is MissKind.HIT:
                counts.hits += 1
            elif kind is MissKind.COLD:
                counts.cold += 1
            elif kind is MissKind.CAPACITY:
                counts.capacity += 1
            else:
                counts.conflict += 1
        assert per_container_outcomes(trace, kinds) == ref


class TestLazyMaterialization:
    def test_events_stay_lazy_until_asked(self):
        result, memory, trace = pipeline_inputs(
            hdiff.build_sdfg(), hdiff.LOCAL_VIEW_SIZES
        )
        model = CacheModel(64, 16)
        dist = stack_distances_array(trace.lines)
        per_container_misses_array(trace, dist, model)
        element_distance_lists(trace, dist)
        assert not result.events_materialized()
        assert len(result.events) == result.num_events
        assert result.events_materialized()

    def test_materialized_events_match_interpreter(self):
        sizes = {"I": 4, "J": 4, "K": 3}
        fast = simulate_state(hdiff.build_sdfg(), sizes, fast=True)
        slow = simulate_state(hdiff.build_sdfg(), sizes, fast=False)
        memory = MemoryModel(fast.sdfg, sizes, line_size=64)
        build_array_trace(fast, memory)  # array queries first...
        key = lambda e: (e.data, e.indices, e.kind, e.step, e.execution)
        # ...then the object trace still materializes correctly.
        assert [key(e) for e in fast.events] == [key(e) for e in slow.events]


class TestRandomPrograms:
    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_random_program_pipelines_agree(self, sdfg):
        assert_pipelines_agree(sdfg, {}, capacity_lines=4)

    @given(random_programs())
    @settings(max_examples=15, deadline=None)
    def test_random_program_element_lists_agree(self, sdfg):
        result, memory, trace = pipeline_inputs(sdfg, {})
        if trace is None:
            return
        dist = stack_distances_array(trace.lines)
        ref = element_stack_distances(
            result.events, memory, distances=dist.tolist()
        )
        assert element_distance_lists(trace, dist) == ref
