"""Differential tests: the array-native locality pipeline vs. its oracle.

The array pipeline (ArrayTrace + NumPy kernels) over the simulator's
columnar trace must produce *exactly* the same distances, miss labels and
per-element aggregates as the per-event reference functions applied to
the interpreter's (``fast=False``) event trace — on the example apps, on
interpreted, mixed, nested-SDFG and copy programs, and on random affine
programs.  The local view's queries must equal the same oracle.
"""

import statistics
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from repro.apps import bert, cloudsc, conv, hdiff, linalg
from repro.errors import ReproError, SimulationError
from repro.sdfg import SDFG, Memlet, dtypes
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
from repro.storage.sizing import approx_sizeof
from repro.symbolic import symbols
from repro.tool.session import Session
from repro.viz.histogramview import render_histogram

from tests.sdfg.test_nested import build_outer
from tests.simulation.test_vectorized_differential import (
    random_programs,
    single_map_sdfg,
)

M, N = symbols("M N")


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


def nested_rows_program():
    """A map over rows ``k`` whose body is a nested kernel on row ``k``;
    the kernel's private transient ``tmp`` never reaches the outer trace."""
    inner = SDFG("row_kernel")
    inner.add_array("inp", [1, N], dtypes.float64)
    inner.add_array("outp", [1, N], dtypes.float64)
    inner.add_transient("tmp", [1, N], dtypes.float64)
    body = inner.add_state("body")
    tmp = body.add_access("tmp")
    body.add_mapped_tasklet(
        "scale", {"i": "0:N"},
        inputs={"x": Memlet("inp", "0, i")},
        code="_out = x * 2.0",
        outputs={"_out": Memlet("tmp", "0, i")},
        output_nodes={"tmp": tmp},
    )
    body.add_mapped_tasklet(
        "mirror", {"i": "0:N"},
        inputs={"x": Memlet("tmp", "0, i")},
        code="_out = x + 1.0",
        outputs={"_out": Memlet("outp", "0, N - 1 - i")},
        input_nodes={"tmp": tmp},
    )
    outer = SDFG("rows")
    outer.add_symbol("M")
    outer.add_symbol("N")
    outer.add_array("A", [M, N], dtypes.float64)
    outer.add_array("B", [M, N], dtypes.float64)
    state = outer.add_state("main")
    a, b = state.add_access("A"), state.add_access("B")
    entry, exit_ = state.add_map("rows", {"k": "0:M"})
    nested = state.add_nested_sdfg(inner, ["inp"], ["outp"])
    state.add_memlet_path(a, entry, nested, memlet=Memlet("A", "k, 0:N"), dst_conn="inp")
    state.add_memlet_path(nested, exit_, b, memlet=Memlet("B", "k, 0:N"), src_conn="outp")
    return outer


def copy_program():
    """An access-node copy ``A[1:3, :] -> B`` followed by a map reading B."""
    sdfg = SDFG("copyprog")
    sdfg.add_array("A", [4, 6], dtypes.float64)
    sdfg.add_array("B", [4, 6], dtypes.float64)
    sdfg.add_array("C", [4, 6], dtypes.float64)
    state = sdfg.add_state("main")
    a, b = state.add_access("A"), state.add_access("B")
    state.add_edge(a, None, b, None, Memlet("A", "1:3, 0:6"))
    state.add_mapped_tasklet(
        "use", {"i": "0:4", "j": "0:6"},
        inputs={"x": Memlet("B", "i, j")},
        code="_out = x",
        outputs={"_out": Memlet("C", "j % 4, i")},
        input_nodes={"B": b},
    )
    return sdfg


#: Programs with explicit-position blocks: non-affine and mixed scopes
#: (their subsets evaluated per iteration), and nested SDFG bodies and
#: access-node copies (recorded by the interpreter).
INTERPRETED_CASES = [
    pytest.param(
        lambda: single_map_sdfg(["i*i, j"], {"i": "0:4", "j": "0:3"}), {},
        id="non-affine",
    ),
    pytest.param(
        lambda: single_map_sdfg(["i*i, j", "i, 2*j"], {"i": "0:6", "j": "0:5"}), {},
        id="mixed",
    ),
    pytest.param(build_outer, {"N": 5}, id="nested"),
    pytest.param(nested_rows_program, {"M": 3, "N": 4}, id="nested-in-map"),
    pytest.param(copy_program, {}, id="copy"),
]


def pipeline_inputs(sdfg, sizes, line_size=64):
    result = simulate_state(sdfg, sizes, fast=True)
    memory = MemoryModel(sdfg, sizes, line_size=line_size)
    trace = build_array_trace(result, memory)
    return result, memory, trace


def assert_pipelines_agree(sdfg, sizes, capacity_lines=16):
    """The array pipeline over the simulator's trace equals the per-event
    references over the interpreter's events."""
    _, memory, trace = pipeline_inputs(sdfg, sizes)
    events = simulate_state(sdfg, sizes, fast=False).events
    model = CacheModel(line_size=64, capacity_lines=capacity_lines)
    assert trace is not None
    ref_lines = line_trace(events, memory)
    assert trace.lines.dtype == np.int64
    assert trace.lines.tolist() == ref_lines

    dist_ref = stack_distances(ref_lines)
    dist_arr = stack_distances_array(trace.lines)
    assert dist_arr.tolist() == dist_ref

    assert count_misses_array(dist_arr, model) == count_misses(dist_ref, model)

    pc_ref = per_container_misses(events, memory, model, dist_ref)
    pc_arr = per_container_misses_array(trace, dist_arr, model)
    assert pc_arr == pc_ref
    assert list(pc_arr) == list(pc_ref)  # first-access container order

    for name in trace.containers:
        pe_ref = per_element_misses(events, memory, model, name, dist_ref)
        pe_arr = per_element_misses_array(trace, dist_arr, model, name)
        assert pe_arr == pe_ref

    ed_ref = element_stack_distances(events, memory, distances=dist_ref)
    ed_arr = element_distance_lists(trace, dist_arr)
    assert ed_arr == ed_ref

    mv_ref = container_physical_movement(events, memory, model, dist_ref)
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
    @pytest.mark.parametrize("build, sizes", INTERPRETED_CASES)
    def test_interpreted_trace_equals_oracle(self, build, sizes):
        trace = assert_pipelines_agree(build(), sizes)
        assert trace.num_events > 0

    def test_interpreter_result_equals_vectorized(self):
        sdfg = hdiff.build_sdfg()
        memory = MemoryModel(sdfg, hdiff.LOCAL_VIEW_SIZES, line_size=64)
        slow = build_array_trace(
            simulate_state(sdfg, hdiff.LOCAL_VIEW_SIZES, fast=False), memory
        )
        _, _, fast = pipeline_inputs(sdfg, hdiff.LOCAL_VIEW_SIZES)
        assert slow.containers == fast.containers
        assert slow.key_shapes == fast.key_shapes
        for column in ("container_ids", "element_keys", "lines"):
            assert np.array_equal(getattr(slow, column), getattr(fast, column))

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
        size = approx_sizeof(result)
        events = result.events
        assert len(events) == result.num_events
        # Events are built per read and never kept on the result.
        assert approx_sizeof(result) == size
        assert result.events is not events

    def test_materialized_events_match_interpreter(self):
        sizes = {"I": 4, "J": 4, "K": 3}
        fast = simulate_state(hdiff.build_sdfg(), sizes, fast=True)
        slow = simulate_state(hdiff.build_sdfg(), sizes, fast=False)
        memory = MemoryModel(fast.sdfg, sizes, line_size=64)
        build_array_trace(fast, memory)  # array queries first...
        key = lambda e: (e.data, e.indices, e.kind, e.step, e.execution)
        # ...then the object trace still materializes correctly.
        assert [key(e) for e in fast.events] == [key(e) for e in slow.events]


def oracle_related(events_by_execution, selections, data=None):
    """Fig. 4c by definition: every access of an execution that touches
    a selected element, counted per element."""
    wanted = set(selections)
    counts = {}
    for _, events in events_by_execution:
        if any((e.data, e.indices) in wanted for e in events):
            for e in events:
                if data is None or e.data == data:
                    key = (e.data, e.indices)
                    counts[key] = counts.get(key, 0) + 1
    return counts


#: One non-affine and two nested programs for the local-view queries.
VIEW_CASES = [
    pytest.param(
        lambda: single_map_sdfg(["i*i, j", "i, 2*j"], {"i": "0:5", "j": "0:4"}), {},
        id="mixed",
    ),
    pytest.param(build_outer, {"N": 5}, id="nested"),
    pytest.param(nested_rows_program, {"M": 3, "N": 4}, id="nested-in-map"),
]


class TestViewsMatchOracle:
    """Local-view queries on interpreted traces equal the oracle computed
    from the interpreter's ``.events``."""

    @pytest.mark.parametrize("build, sizes", VIEW_CASES)
    def test_views_equal_oracle(self, build, sizes):
        sdfg = build()
        lv = Session(sdfg).local_view(sizes, capacity_lines=4)
        oracle = simulate_state(sdfg, sizes, fast=False)
        events = oracle.events
        memory = MemoryModel(sdfg, sizes, line_size=64)
        lines = line_trace(events, memory)
        distances = stack_distances(lines)

        for name in oracle.containers():
            expected = Counter(e.indices for e in events if e.data == name)
            assert lv.access_heatmap(name) == dict(expected)
            assert lv.miss_counts(name) == per_element_misses(
                events, memory, lv.cache, name, distances
            )

        for step in range(oracle.num_steps):
            highlights: dict[str, set] = {}
            for e in events:
                if e.step == step:
                    highlights.setdefault(e.data, set()).add(e.indices)
            if not highlights:  # e.g. the step of a map around a nested body
                with pytest.raises(ReproError, match="no accesses"):
                    lv.render_playback_frame(step)
                continue
            expected = {
                name: lv.render_container(name, highlights=highlights[name])
                for name in sorted(highlights)
            }
            assert lv.render_playback_frame(step) == expected

        first = events[0]
        last = events[-1]
        for selections in ([(first.data, first.indices)],
                           [(first.data, first.indices), (last.data, last.indices)]):
            expected = oracle_related(oracle.executions(), selections)
            assert lv.related(selections) == expected
            assert list(lv.related(selections)) == list(expected)
            for name in oracle.containers():
                assert lv.related(selections, data=name) == oracle_related(
                    oracle.executions(), selections, data=name
                )

        assert lv.reuse_distances() == element_stack_distances(
            events, memory, distances=distances
        )

        kinds = classify_three_way(lines, num_sets=2, ways=2)
        expected: dict[str, MissCounts] = {}
        for event, kind in zip(events, kinds):
            counts = expected.setdefault(event.data, MissCounts())
            if kind is MissKind.HIT:
                counts.hits += 1
            elif kind is MissKind.COLD:
                counts.cold += 1
            elif kind is MissKind.CAPACITY:
                counts.capacity += 1
            else:
                counts.conflict += 1
        assert lv.miss_counts_set_associative(num_sets=2, ways=2) == expected


def hdiff_reordered():
    """hdiff after the paper's reshape and map reorder."""
    sdfg = hdiff_reshaped()
    hdiff.apply_reorder(sdfg)
    return sdfg


def hdiff_padded():
    """hdiff after all three of the paper's tuning steps."""
    sdfg = hdiff_reordered()
    hdiff.apply_padding(sdfg)
    return sdfg


#: The five apps (hdiff variants at sizes the engine folds and ones it
#: enumerates), a nested SDFG, an access-node copy and transients:
#: ``(build, sizes, include_transients, folds)``.
ENGINE_VIEW_CASES = [
    pytest.param(hdiff.build_sdfg, {"I": 4, "J": 4, "K": 3}, False, False,
                 id="hdiff-enumerated"),
    pytest.param(hdiff.build_sdfg, {"I": 28, "J": 18, "K": 8}, False, True,
                 id="hdiff-folded"),
    pytest.param(hdiff_reshaped, {"I": 31, "J": 20, "K": 8}, False, True,
                 id="hdiff-reshaped-folded"),
    pytest.param(hdiff_padded, {"I": 28, "J": 18, "K": 8}, False, True,
                 id="hdiff-padded-folded"),
    pytest.param(hdiff_reordered, {"I": 28, "J": 18, "K": 8}, False, True,
                 id="hdiff-reordered-folded"),
    pytest.param(hdiff.build_sdfg, {"I": 4, "J": 4, "K": 3}, True, False,
                 id="hdiff-transients"),
    pytest.param(bert.build_sdfg, {"B": 1, "H": 2, "SM": 4, "EMB": 8, "FF": 8, "P": 4},
                 False, False, id="bert"),
    pytest.param(cloudsc.build_sdfg, {"NBLOCKS": 32, "KLEV": 16}, False, False,
                 id="cloudsc"),
    pytest.param(conv.build_conv, {"Cout": 2, "Cin": 2, "H": 6, "W": 6, "KY": 3, "KX": 3},
                 False, False, id="conv"),
    pytest.param(linalg.build_matmul, {"I": 5, "J": 4, "K": 3}, False, False, id="matmul"),
    pytest.param(build_outer, {"N": 5}, False, False, id="nested"),
    pytest.param(copy_program, {}, False, False, id="copy"),
]


class TestEngineViewsMatchOracle:
    """The local view's per-element counts and reuse distances come from
    the analytic engine's arrays; they must equal the enumeration oracle
    (``SimulationResult.access_counts``, ``per_element_misses_array`` and
    ``element_distance_lists``) at two capacities, with the containers in
    first-access order, and no view may simulate the whole trace."""

    @pytest.mark.parametrize("build, sizes, transients, folds", ENGINE_VIEW_CASES)
    def test_heatmaps_equal_enumeration(self, build, sizes, transients, folds):
        sdfg = build()
        result = simulate_state(sdfg, sizes, include_transients=transients)
        trace = build_array_trace(result, MemoryModel(sdfg, sizes, line_size=64))
        distances = stack_distances_array(trace.lines)
        lists = element_distance_lists(trace, distances)
        session = Session(sdfg)
        for capacity in (4, 512):
            lv = session.local_view(
                sizes, capacity_lines=capacity, include_transients=transients
            )
            assert lv.containers() == result.containers()
            for name in result.containers():
                oracle = per_element_misses_array(trace, distances, lv.cache, name)
                assert lv.access_heatmap(name) == result.access_counts(name), name
                assert lv.miss_counts(name) == oracle, name
                assert lv.miss_heatmap(name) == {
                    idx: counts.misses for idx, counts in oracle.items()
                }, name
            assert lv.reuse_distances() == lists
            for name in result.containers():
                own = {key: value for key, value in lists.items() if key[0] == name}
                assert lv.reuse_distances(name) == own, name
                finite = {
                    idx: [d for d in values if d != float("inf")]
                    for (_, idx), values in own.items()
                }
                for stat, reduce in (
                    ("min", min), ("median", statistics.median), ("max", max)
                ):
                    assert lv.reuse_heatmap(name, stat) == {
                        idx: float(reduce(values))
                        for idx, values in finite.items() if values
                    }, (name, stat)
                (_, idx), values = max(own.items(), key=lambda item: len(item[1]))
                label = f"{name}[{', '.join(map(str, idx))}]"
                assert lv.render_reuse_histogram(name, idx) == render_histogram(
                    values, title=f"reuse distances of {label}"
                ), name
        assert session.pipeline.runs("local.trace") == 0
        folded = session.metrics.counter("locality.analytic.hits").value
        assert bool(folded) == folds


class TestNegativeIndices:
    """A negative element index is a SimulationError naming the
    container, the dimension and the index — not a NumPy error from a
    per-element query."""

    def test_local_view_queries_raise_simulation_error(self):
        sdfg = single_map_sdfg(["i - 1, j"], {"i": "0:4", "j": "0:3"})
        lv = Session(sdfg).local_view({})
        with pytest.raises(SimulationError, match=r"'A' .* index -1 in dimension 0"):
            lv.miss_counts("A")
        with pytest.raises(SimulationError, match=r"'A' .* index -1 in dimension 0"):
            lv.miss_heatmap("A")
        with pytest.raises(SimulationError, match=r"'A' .* index -1 in dimension 0"):
            lv.access_heatmap("A")


class TestRandomPrograms:
    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_random_program_pipelines_agree(self, sdfg):
        assert_pipelines_agree(sdfg, {}, capacity_lines=4)

    @given(random_programs())
    @settings(max_examples=15, deadline=None)
    def test_random_program_element_lists_agree(self, sdfg):
        _, memory, trace = pipeline_inputs(sdfg, {})
        dist = stack_distances_array(trace.lines)
        ref = element_stack_distances(
            simulate_state(sdfg, {}, fast=False).events, memory,
            distances=dist.tolist(),
        )
        assert element_distance_lists(trace, dist) == ref
