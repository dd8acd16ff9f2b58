"""Differential tests: analytic locality engine vs. exact enumeration.

The engine's contract is *exact* equality with the enumeration pipeline
(simulate → line trace → stack distances → classify) at every size where
enumeration is feasible — including sizes where the closed-form fold
engages, where the result must stay indistinguishable from brute force.
Every test computes both sides and compares miss counts, reuse-distance
histograms, cold counts, and per-element heatmaps.
"""

import pickle

import numpy as np
import pytest

from repro.apps import bert, cloudsc, conv, hdiff, linalg
from repro.locality import ElementMap, analyze_locality
from repro.sdfg import dtypes
from repro.sdfg.memlet import Memlet
from repro.sdfg.sdfg import SDFG
from repro.simulation import MemoryModel, simulate_state
from repro.simulation.arrays import (
    build_array_trace,
    per_container_misses_array,
    per_element_misses_array,
)
from repro.simulation.cache import CacheModel
from repro.simulation.movement import per_container_misses, per_element_misses
from repro.simulation.simulator import simulate_region
from repro.simulation.stackdist import stack_distances_array

from tests.sdfg.test_nested import build_outer
from tests.simulation.test_array_pipeline import copy_program, nested_rows_program
from tests.simulation.test_vectorized_differential import single_map_sdfg

#: A tiny and a realistic modeled cache — classification must agree at both.
CAPACITIES = (4, 512)
LINE = 64


def enumeration_reference(sdfg, env, include_transients=False):
    """The exact pipeline the engine must reproduce."""
    result = simulate_state(sdfg, env, include_transients=include_transients)
    memory = MemoryModel(sdfg, env, line_size=LINE)
    trace = build_array_trace(result, memory)
    assert trace is not None, "reference requires the vectorized trace"
    distances = stack_distances_array(trace.lines)
    return trace, distances


def reference_histograms(trace, distances):
    """Per-container finite-distance histograms and cold counts."""
    hists, cold = {}, {}
    for container, name in enumerate(trace.containers):
        d = distances[trace.container_ids == container]
        finite = d[np.isfinite(d)].astype(np.int64)
        values, counts = np.unique(finite, return_counts=True)
        hists[name] = {int(v): int(c) for v, c in zip(values, counts)}
        cold[name] = int(np.sum(~np.isfinite(d)))
    return hists, cold


def assert_engine_exact(sdfg, env, per_element=True, include_transients=False):
    """Assert the engine equals enumeration on every observable product."""
    trace, distances = enumeration_reference(sdfg, env, include_transients)
    analytic = analyze_locality(
        sdfg, env, line_size=LINE, include_transients=include_transients
    )

    assert analytic.total_events == trace.num_events
    assert sorted(analytic.containers) == sorted(trace.containers)
    per_container = np.bincount(
        trace.container_ids, minlength=len(trace.containers)
    )
    assert analytic.events_per_container == {
        name: int(per_container[i]) for i, name in enumerate(trace.containers)
    }

    ref_hists, ref_cold = reference_histograms(trace, distances)
    assert analytic.cold_misses() == ref_cold
    for name in analytic.containers:
        assert analytic.histogram(name) == ref_hists[name], name

    for capacity in CAPACITIES:
        model = CacheModel(LINE, capacity)
        assert analytic.miss_counts(capacity) == per_container_misses_array(
            trace, distances, model
        )
        if per_element:
            for name in analytic.containers:
                oracle = per_element_misses_array(trace, distances, model, name)
                assert analytic.per_element_misses(name, capacity) == oracle, name
                counts = analytic.element_counts(name, capacity)
                assert ElementMap(counts, counts.misses) == {
                    idx: c.misses for idx, c in oracle.items()
                }, name
                assert ElementMap(counts, counts.total) == {
                    idx: c.total for idx, c in oracle.items()
                }, name
    return analytic


#: Every other program kind the enumeration chain ever served: CLOUDSC's
#: nested maps, nested-SDFG bodies, an access-node copy, a scope mixing
#: affine and non-affine subsets, and transients kept in the trace.
PROGRAM_KINDS = [
    pytest.param(cloudsc.build_sdfg, {"NBLOCKS": 32, "KLEV": 16}, False, id="cloudsc"),
    pytest.param(build_outer, {"N": 5}, False, id="nested"),
    pytest.param(nested_rows_program, {"M": 3, "N": 4}, False, id="nested-in-map"),
    pytest.param(copy_program, {}, False, id="copy"),
    pytest.param(
        lambda: single_map_sdfg(["i*i, j", "i, 2*j"], {"i": "0:6", "j": "0:5"}),
        {}, False, id="mixed",
    ),
    pytest.param(hdiff.build_sdfg, {"I": 4, "J": 4, "K": 3}, True, id="hdiff-transients"),
]


class TestExampleApps:
    """All four paper applications, at enumeration-feasible sizes."""

    def test_hdiff(self):
        assert_engine_exact(hdiff.build_sdfg(), {"I": 4, "J": 4, "K": 3})

    @pytest.mark.parametrize("build, env, include_transients", PROGRAM_KINDS)
    def test_program_kinds(self, build, env, include_transients):
        assert_engine_exact(build(), env, include_transients=include_transients)

    def test_conv(self):
        assert_engine_exact(
            conv.build_conv(),
            {"Cout": 2, "Cin": 2, "H": 7, "W": 7, "KY": 3, "KX": 3},
        )

    def test_linalg_outer_product(self):
        assert_engine_exact(linalg.build_outer_product(), {"M": 6, "N": 6})

    def test_linalg_matmul(self):
        assert_engine_exact(linalg.build_matmul(), {"I": 4, "J": 4, "K": 4})

    def test_bert_multi_region_stitching(self):
        """bert decomposes into dozens of regions; the cross-region
        composition must resolve region-first accesses exactly."""
        analytic = assert_engine_exact(
            bert.build_sdfg(),
            {"B": 1, "H": 2, "SM": 4, "EMB": 8, "FF": 8, "P": 4},
            per_element=False,  # covered per-app above; bert has many arrays
        )
        assert analytic.analytic_regions + analytic.fallback_regions > 10


class TestProductSize:
    """The product crosses the pool's pipe and sits in the session store,
    so an enumerated region keeps only what the queries read."""

    #: Pickled size of the product below while every enumerated region
    #: still kept its per-event line ids and container ids.
    UNTRIMMED_BYTES = 1_213_470

    def test_multi_region_product_is_trimmed(self):
        analytic = assert_engine_exact(
            bert.build_sdfg(),
            {"B": 1, "H": 2, "SM": 8, "EMB": 8, "FF": 16, "P": 4},
            per_element=False,
        )
        assert analytic.fallback_regions > 10
        size = len(pickle.dumps(analytic, protocol=pickle.HIGHEST_PROTOCOL))
        assert size <= 0.75 * self.UNTRIMMED_BYTES


class TestFoldEngagement:
    """Sizes where the closed-form window fold actually fires."""

    HDIFF_FOLD = {"I": 64, "J": 16, "K": 8}

    def test_hdiff_folds_and_stays_exact(self):
        analytic = assert_engine_exact(hdiff.build_sdfg(), dict(self.HDIFF_FOLD))
        assert analytic.analytic_regions == 1
        assert analytic.fallback_regions == 0
        assert analytic.symbolic is not None

    def test_hdiff_symbolic_metadata(self):
        analytic = analyze_locality(hdiff.build_sdfg(), dict(self.HDIFF_FOLD))
        symbolic = analytic.symbolic
        assert symbolic.outer_param == "i"
        assert symbolic.valid_from <= self.HDIFF_FOLD["I"]
        assert set(symbolic.total) == set(analytic.containers)
        assert set(symbolic.cold) == set(analytic.containers)

    def test_synthetic_stencil_folds(self):
        sdfg = stencil_1d(600)
        analytic = assert_engine_exact(sdfg, {})
        assert analytic.analytic_regions == 1

    @pytest.fixture
    def simulated(self, monkeypatch):
        """The ``outer_slice`` of every region simulation the engine and
        the fold make (``None`` = the whole region)."""
        from repro.locality import engine, fold

        calls = []

        def counting(*args, outer_slice=None, **kwargs):
            calls.append(outer_slice)
            return simulate_region(*args, outer_slice=outer_slice, **kwargs)

        monkeypatch.setattr(engine, "simulate_region", counting)
        monkeypatch.setattr(fold, "simulate_region", counting)
        return calls

    @pytest.mark.parametrize(
        "build, env, phases",
        [
            (hdiff.build_sdfg, HDIFF_FOLD, 1),
            (lambda: stencil_1d(600), {}, 8),
        ],
        ids=["hdiff-P1", "stencil-P8"],
    )
    def test_fold_simulates_one_window(self, simulated, build, env, phases):
        """The guards are decided before simulating; the fold then
        simulates one window holding the prefix and every phase."""
        analytic = assert_engine_exact(build(), dict(env))
        assert analytic.analytic_regions == 1
        summary = analytic._summaries[0]
        assert summary.p_joint == phases
        assert simulated == [(0, summary.delta_max + summary.p_joint)]

    @pytest.mark.parametrize(
        "build, env, guard",
        [
            (hdiff.build_sdfg, hdiff.LOCAL_VIEW_SIZES, "economic"),
            (lambda: hdiff_variant(1), {"I": 28, "J": 18, "K": 8}, "caps"),
            (lambda: hdiff_variant(3), {"I": 28, "J": 18, "K": 8}, "shared_line"),
            (bert.build_sdfg, {"B": 1, "H": 2, "SM": 4, "EMB": 8, "FF": 8, "P": 4},
             "multi_region"),
        ],
        ids=["economic", "caps", "shared_line", "multi_region"],
    )
    def test_declined_region_is_simulated_once(self, simulated, build, env, guard):
        """Enumeration is a declined region's only simulation."""
        analytic = analyze_locality(build(), dict(env))
        assert analytic.analytic_regions == 0
        assert set(analytic.declined) == {guard}
        assert simulated == [None] * analytic.fallback_regions

    def test_declined_fold_falls_back_exactly(self):
        # At 12 outer iterations matmul's window of Δmax + P = 7 blocks
        # makes the fold uneconomic; the engine must decline and
        # enumerate, still exact.
        analytic = assert_engine_exact(
            linalg.build_matmul(), {"I": 12, "J": 8, "K": 8}
        )
        assert analytic.analytic_regions == 0
        assert analytic.declined == {"economic": 1}

    @pytest.mark.parametrize(
        "build, env",
        [
            (linalg.build_matmul, {"I": 32, "J": 8, "K": 8}),
            (lambda: hdiff_variant(2), {"I": 28, "J": 18, "K": 8}),
            (lambda: hdiff_variant(2), {"I": 31, "J": 20, "K": 8}),
        ],
        ids=["matmul", "hdiff-v2-28", "hdiff-v2-31"],
    )
    def test_window_sized_economic_bound_folds_exactly(self, build, env):
        """Folds that the economic bound ``n ≥ 2·(Δmax + P)`` admits
        and the one charging per-phase windows declined."""
        analytic = assert_engine_exact(build(), dict(env))
        assert analytic.analytic_regions == 1
        summary = analytic._summaries[0]
        n = summary.n
        assert 2 * (summary.delta_max + summary.p_joint) <= n < 2 * (
            summary.delta_max + summary.p_joint * (summary.delta_max + 1)
        )


def hdiff_variant(level):
    """hdiff after the first *level* of the paper's three tuning steps:
    reshape (K-major), reorder (outer ``k``), pad rows to a line."""
    sdfg = hdiff.build_sdfg()
    for step in (hdiff.apply_reshape, hdiff.apply_reorder, hdiff.apply_padding)[:level]:
        step(sdfg)
    return sdfg


def stencil_1d(n):
    """A 1-D three-point stencil with a large outer extent — the shape
    of nest the window fold is designed for.  Array sizes are rounded up
    to whole cache lines so the two allocations do not share a line
    (shared lines merge containers into one sweep group whose diameter
    exceeds the window cap, correctly declining the fold)."""
    size = ((n + 3 + 7) // 8) * 8  # 8 float64 per 64-byte line
    sdfg = SDFG("stencil1d")
    sdfg.add_array("A", [size], dtypes.float64)
    sdfg.add_array("B", [size], dtypes.float64)
    state = sdfg.add_state("main")
    state.add_mapped_tasklet(
        "stencil",
        {"i": f"0:{n}"},
        inputs={"a": Memlet("A", "i:i+3")},
        code="out = a",
        outputs={"out": Memlet("B", "i")},
    )
    return sdfg


def nonaffine_sdfg():
    sdfg = SDFG("nonaffine")
    sdfg.add_array("A", [64, 64], dtypes.float64)
    sdfg.add_array("B", [64, 64], dtypes.float64)
    state = sdfg.add_state("main")
    state.add_mapped_tasklet(
        "compute",
        {"i": "0:6", "j": "0:4"},
        inputs={"a": Memlet("A", "i*i, j")},
        code="out = a",
        outputs={"out": Memlet("B", "i, j")},
    )
    return sdfg


class TestFallbacks:
    """Non-affine and interpreter-path regions fall back per-region to
    exact enumeration, stitched into the same products."""

    def test_nonaffine_subset_falls_back(self):
        sdfg = nonaffine_sdfg()
        analytic = analyze_locality(sdfg, {})
        assert analytic.analytic_regions == 0
        assert analytic.fallback_regions == 1

        result = simulate_state(sdfg, {})
        memory = MemoryModel(sdfg, {}, line_size=LINE)
        assert analytic.total_events == result.num_events
        for capacity in CAPACITIES:
            model = CacheModel(LINE, capacity)
            assert analytic.miss_counts(capacity) == per_container_misses(
                result.events, memory, model
            )
            for name in analytic.containers:
                assert analytic.per_element_misses(
                    name, capacity
                ) == per_element_misses(result.events, memory, model, name)

    def test_mixed_affine_nonaffine_stitching(self):
        """Two sequential maps — one affine, one not — share containers;
        cross-region reuse must survive the per-region fallback."""
        sdfg = SDFG("mixed")
        sdfg.add_array("A", [64, 64], dtypes.float64)
        sdfg.add_array("B", [64, 64], dtypes.float64)
        sdfg.add_array("C", [64, 64], dtypes.float64)
        state = sdfg.add_state("main")
        state.add_mapped_tasklet(
            "affine",
            {"i": "0:6", "j": "0:4"},
            inputs={"a": Memlet("A", "i, j")},
            code="out = a",
            outputs={"out": Memlet("B", "i, j")},
        )
        state.add_mapped_tasklet(
            "squares",
            {"i": "0:6", "j": "0:4"},
            inputs={"b": Memlet("B", "i*i, j")},
            code="out = b",
            outputs={"out": Memlet("C", "i, j")},
        )
        analytic = analyze_locality(sdfg, {})
        assert analytic.fallback_regions >= 1

        result = simulate_state(sdfg, {})
        memory = MemoryModel(sdfg, {}, line_size=LINE)
        for capacity in CAPACITIES:
            model = CacheModel(LINE, capacity)
            assert analytic.miss_counts(capacity) == per_container_misses(
                result.events, memory, model
            )

    def test_cross_region_reuse_is_not_double_cold(self):
        """A container touched by two regions is cold only once per line."""
        sdfg = SDFG("tworegions")
        sdfg.add_array("A", [32], dtypes.float64)
        sdfg.add_array("B", [32], dtypes.float64)
        sdfg.add_array("C", [32], dtypes.float64)
        state = sdfg.add_state("main")
        state.add_mapped_tasklet(
            "first",
            {"i": "0:32"},
            inputs={"a": Memlet("A", "i")},
            code="out = a",
            outputs={"out": Memlet("B", "i")},
        )
        state.add_mapped_tasklet(
            "second",
            {"i": "0:32"},
            inputs={"a": Memlet("A", "i")},
            code="out = a",
            outputs={"out": Memlet("C", "i")},
        )
        analytic = analyze_locality(sdfg, {})
        assert analytic.fallback_regions == 2
        # 32 float64 elements = 4 cache lines; the second region's reads
        # of A reuse lines that are already resident, not cold.
        assert analytic.cold_misses()["A"] == 4
        trace, distances = enumeration_reference(sdfg, {})
        ref_hists, ref_cold = reference_histograms(trace, distances)
        assert analytic.cold_misses() == ref_cold
        for name in analytic.containers:
            assert analytic.histogram(name) == ref_hists[name]


class TestProductionScaleSmoke:
    """The engine's reason to exist: local views where enumeration is
    intractable.  Kept small enough for CI while still exercising the
    folded path end to end at a size with >10^5 events."""

    def test_folded_large_extent_consistency(self):
        sizes = {"I": 512, "J": 16, "K": 8}
        analytic = analyze_locality(hdiff.build_sdfg(), sizes)
        assert analytic.analytic_regions == 1
        counts = analytic.miss_counts(512)
        totals = analytic.events_per_container
        assert analytic.total_events == sum(totals.values())
        for name, mc in counts.items():
            assert mc.hits + mc.cold + mc.capacity == totals[name], name
            assert mc.hits >= 0 and mc.cold > 0
        # Cold misses are bounded by the container footprint in lines.
        hist_events = {
            name: sum(analytic.histogram(name).values()) for name in counts
        }
        for name in counts:
            assert hist_events[name] + analytic.cold_misses()[name] == totals[name]
