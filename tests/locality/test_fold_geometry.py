"""The fold's static guards against a simulated block 0.

:func:`~repro.locality.fold.fold_geometry` decides every guard that
precedes the fold's window — index bounds, the clusters and their byte
deltas, the shared-line separation, the period ``P``, the block span
``Δmax`` and the decision — from the candidate's access boxes and the
memory layout.  :func:`block0_oracle` derives the same values from a
simulated outer block 0, by brute force; every candidate the engine
meets on the example apps, the hdiff variants, the tuner's candidates,
the served view sizes and random programs must agree with it.
"""

import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.apps import bert, cloudsc, conv, hdiff, linalg
from repro.locality import analyze_locality, engine, fold
from repro.locality.fold import DECLINE_GUARDS, DELTA_MAX_CAP, P_JOINT_MAX, fold_geometry
from repro.locality.regions import extract_regions, fold_statics, region_columns
from repro.simulation.layout import MemoryModel
from repro.simulation.simulator import AccessPatternSimulator, simulate_region
from repro.tool import Session

from tests.locality.test_analytic_differential import (
    assert_engine_exact,
    hdiff_variant,
    stencil_1d,
)
from tests.locality.test_analytic_property import cluster_layouts, random_programs

LINE = 64

#: The closing tune of the interactive workload.
TUNE_SETTINGS = {
    "transforms": ["permute_array_layout", "reorder_map", "pad_strides_to_multiple"],
    "beam": 3,
    "depth": 4,
    "budget": 200,
    "line_size": 64,
    "capacity_lines": 4,
}

#: The workload's slider space: I 24-31, J 16-20, K 8.
SLIDER_POINTS = [
    {"I": i, "J": j, "K": 8} for i, j in itertools.product(range(24, 32), range(16, 21))
]

#: The slider's corners and centre.
SLIDER_SIZES = [
    {"I": 24, "J": 16, "K": 8},
    {"I": 28, "J": 18, "K": 8},
    {"I": 31, "J": 20, "K": 8},
]

#: The served view sizes (``/v1/local/view`` probes and views).
SERVE_SIZES = [
    {"I": i, "J": j, "K": k}
    for i in range(3, 11) for j in range(3, 10) for k in (1, 2, 3)
]


def _touch_range(lo, hi, delta, line, n):
    """Blocks in which start bytes ``[lo, hi]`` moved by *delta* per block
    meet *line*, block by block: ``(first, last)`` or ``None``."""
    blocks = [
        t for t in range(n)
        if lo + delta * t <= (line + 1) * LINE - 1 and hi + delta * t >= line * LINE
    ]
    return (blocks[0], blocks[-1]) if blocks else None


def block0_oracle(simulator, state, candidate, memory):
    """The fold's guards computed from a simulated outer block 0."""
    result = simulate_region(simulator, state, candidate.entry, outer_slice=(0, 1))
    block = region_columns(result, memory)
    n = candidate.n
    shifts = candidate.container_shifts
    oracle = {
        "events": block.num_events, "bounds": {}, "deltas": {},
        "clusters": [], "tags": None, "shared": [], "p_joint": None,
        "delta_max": None, "guard": None,
    }
    for name in block.containers:
        layout = memory.layout(name)
        matrix = block.index_matrices[name]
        oracle["bounds"][name] = [
            (int(matrix[:, d].min()), int(matrix[:, d].max()))
            for d in range(matrix.shape[1])
        ]
        for (lo, hi), shift, extent in zip(oracle["bounds"][name], shifts[name], layout.shape):
            if lo + min(0, shift * (n - 1)) < 0 or hi + max(0, shift * (n - 1)) >= extent:
                oracle["guard"] = "bounds"
    if oracle["guard"]:
        return oracle

    # Clusters: a container's distinct start bytes, split wherever the gap
    # exceeds the drift over n blocks (a stationary container is one).
    clusters = []
    for name in block.containers:
        layout = memory.layout(name)
        delta = layout.itemsize * sum(
            stride * s for stride, s in zip(layout.strides, shifts[name])
        )
        addresses = np.unique(layout.element_addresses(block.index_matrices[name])).tolist()
        oracle["deltas"][name] = delta
        runs = [[addresses[0], addresses[0]]]
        for a in addresses[1:]:
            if delta == 0 or a - runs[-1][1] <= abs(delta) * (n - 1):
                runs[-1][1] = a
            else:
                runs.append([a, a])
        clusters += [(lo + min(0, delta * (n - 1)), name, lo, hi) for lo, hi in runs]
    clusters.sort()
    oracle["clusters"] = [(name, lo, hi) for _, name, lo, hi in clusters]
    deltas = [oracle["deltas"][name] for name, _, _ in oracle["clusters"]]

    # Every line two clusters can both touch, with the blocks they touch it in.
    pairs = []
    for (i, (_, lo_i, hi_i)), (j, (_, lo_j, hi_j)) in itertools.combinations(
        enumerate(oracle["clusters"]), 2
    ):
        lines_i = set(range(
            (lo_i + min(0, deltas[i] * (n - 1))) // LINE,
            (hi_i + max(0, deltas[i] * (n - 1))) // LINE + 1,
        ))
        lines_j = set(range(
            (lo_j + min(0, deltas[j] * (n - 1))) // LINE,
            (hi_j + max(0, deltas[j] * (n - 1))) // LINE + 1,
        ))
        for line in sorted(lines_i & lines_j):
            touch_i = _touch_range(lo_i, hi_i, deltas[i], line, n)
            touch_j = _touch_range(lo_j, hi_j, deltas[j], line, n)
            if touch_i and touch_j:
                pairs.append((line, i, j, touch_i, touch_j))

    # Clusters with one delta that touch a line within delta_max blocks
    # merge; with different deltas they decline.
    component = list(range(len(clusters)))
    while True:
        spans = [1]
        for c in set(component):
            members = [k for k in range(len(clusters)) if component[k] == c]
            delta = deltas[members[0]]
            if delta:
                lo = min(oracle["clusters"][k][1] for k in members) // LINE
                hi = max(oracle["clusters"][k][2] for k in members) // LINE
                spans.append(((hi - lo + 2) * LINE) // abs(delta) + 1)
        delta_max = max(spans)
        merged = False
        for _, i, j, (a0, a1), (b0, b1) in pairs:
            if component[i] == component[j] or b0 - a1 > delta_max or a0 - b1 > delta_max:
                continue
            if deltas[i] != deltas[j]:
                oracle["guard"] = "shared_line"
                return oracle
            old = component[j]
            component = [component[i] if c == old else c for c in component]
            merged = True
        if not merged:
            break
    order = list(dict.fromkeys(component))
    oracle["tags"] = [order.index(c) for c in component]
    oracle["shared"] = sorted(
        (line, i, j) for line, i, j, _, _ in pairs if component[i] != component[j]
    )
    p_joint = 1
    for delta in oracle["deltas"].values():
        if delta:
            p_joint = math.lcm(p_joint, LINE // math.gcd(abs(delta), LINE))
    guard = None
    if p_joint > P_JOINT_MAX or delta_max > DELTA_MAX_CAP:
        guard = "caps"
    elif n < 2 * (delta_max + p_joint):
        guard = "economic"
    oracle.update(p_joint=p_joint, delta_max=delta_max, guard=guard)
    return oracle


def assert_geometry_matches(simulator, state, candidate, memory):
    geometry = fold_geometry(candidate, memory)
    oracle = block0_oracle(simulator, state, candidate, memory)
    assert candidate.block_events == oracle["events"]
    assert geometry.index_bounds == oracle["bounds"]
    assert geometry.guard == oracle["guard"]
    if geometry.guard == "bounds":
        return geometry
    assert geometry.deltas == oracle["deltas"]
    assert geometry.clusters == oracle["clusters"]
    assert geometry.tags == oracle["tags"]
    assert sorted(geometry.shared) == oracle["shared"]
    assert geometry.p_joint == oracle["p_joint"]
    assert geometry.delta_max == oracle["delta_max"]
    return geometry


@pytest.fixture
def checked(monkeypatch):
    """Check every fold the engine attempts against the oracle; the
    list holds each attempt's guard (``None`` = folded)."""
    seen = []
    real = engine.try_build_fold

    def checking(simulator, state, candidate, memory):
        geometry = assert_geometry_matches(simulator, state, candidate, memory)
        seen.append(geometry.guard)
        return real(simulator, state, candidate, memory)

    monkeypatch.setattr(engine, "try_build_fold", checking)
    return seen


class TestStaticGeometry:
    def test_example_apps(self, checked):
        analyze_locality(conv.build_conv(),
                         {"Cout": 2, "Cin": 2, "H": 7, "W": 7, "KY": 3, "KX": 3})
        analyze_locality(linalg.build_outer_product(), {"M": 6, "N": 6})
        analyze_locality(linalg.build_matmul(), {"I": 32, "J": 8, "K": 8})
        analyze_locality(hdiff.build_sdfg(), {"I": 64, "J": 16, "K": 8})
        analyze_locality(stencil_1d(600), {})
        attempts = len(checked)
        # BERT has many regions and CLOUDSC a nested map: neither reaches
        # the fold's guards.
        analyze_locality(bert.build_sdfg(),
                         {"B": 1, "H": 2, "SM": 4, "EMB": 8, "FF": 8, "P": 4})
        analyze_locality(cloudsc.build_sdfg(), {"NBLOCKS": 32, "KLEV": 16})
        assert len(checked) == attempts
        assert None in checked

    @pytest.mark.parametrize("level", range(4), ids=["v0", "v1", "v2", "v3"])
    def test_hdiff_variants_at_slider_sizes(self, checked, level):
        for env in SLIDER_SIZES:
            assert_engine_exact(hdiff_variant(level), env)
        assert len(checked) == len(SLIDER_SIZES)

    def test_tune_candidates(self, checked):
        result = Session(hdiff.build_sdfg()).tune(
            hdiff.LOCAL_VIEW_SIZES, **TUNE_SETTINGS
        )
        assert len(result.trajectory) > 1
        assert len(checked) >= 100
        assert set(checked) <= {"shared_line", "caps", "economic"}

    def test_served_view_sizes(self, checked):
        sdfg = hdiff.build_sdfg()
        for env in SERVE_SIZES:
            analyze_locality(sdfg, env)
        assert len(checked) == len(SERVE_SIZES)
        assert set(checked) <= {"shared_line", "economic"}

    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_random_programs(self, sdfg):
        (region,) = extract_regions(sdfg)
        candidate = fold_statics(sdfg, region.state, region.node, {})
        if candidate is not None:
            memory = MemoryModel(sdfg, {}, line_size=LINE)
            assert_geometry_matches(
                AccessPatternSimulator(sdfg, {}), region.state, candidate, memory
            )

    @given(cluster_layouts(max_extent=6))
    @settings(max_examples=40, deadline=None)
    def test_cluster_layouts(self, sdfg):
        (region,) = extract_regions(sdfg)
        candidate = fold_statics(sdfg, region.state, region.node, {})
        memory = MemoryModel(sdfg, {}, line_size=LINE)
        assert_geometry_matches(
            AccessPatternSimulator(sdfg, {}), region.state, candidate, memory
        )


class TestSliderCensus:
    """What :func:`fold_geometry` alone decides for the workload's 40
    slider points on each hdiff variant (``-s`` prints the table)."""

    EXPECTED = {
        "v0": {"folded": 40},
        "v1": {"folded": 32, "economic": 8},
        "v2": {"folded": 24, "economic": 16},
        "v3": {"folded": 40},
    }

    def test_census(self):
        census = {}
        for level, name in enumerate(self.EXPECTED):
            sdfg = hdiff_variant(level)
            (region,) = extract_regions(sdfg)
            guards = collections.Counter()
            windows = []
            for env in SLIDER_POINTS:
                candidate = fold_statics(sdfg, region.state, region.node, env)
                geometry = fold_geometry(candidate, MemoryModel(sdfg, env, line_size=LINE))
                guards[geometry.guard or "folded"] += 1
                if geometry.guard is None:
                    windows.append((geometry.delta_max + geometry.p_joint) / candidate.n)
            census[name] = dict(guards)
            window = f"{np.median(windows):.2f}" if windows else "-"
            print(f"{name}: {dict(guards)}, median window/n {window}")
        assert census == self.EXPECTED


class TestNamedDeclines:
    def test_guards_sum_to_enumerated_regions(self):
        """Every enumerated region is named by exactly one guard."""
        for sdfg, env, guards in [
            (bert.build_sdfg(), {"B": 1, "H": 2, "SM": 4, "EMB": 8, "FF": 8, "P": 4},
             {"multi_region"}),
            (cloudsc.build_sdfg(), {"NBLOCKS": 32, "KLEV": 16}, {"statics"}),
            (hdiff.build_sdfg(), hdiff.LOCAL_VIEW_SIZES, {"economic"}),
            (hdiff.build_sdfg(), {"I": 64, "J": 16, "K": 8}, set()),
        ]:
            analytic = analyze_locality(sdfg, env)
            assert set(analytic.declined) == guards <= set(DECLINE_GUARDS)
            assert sum(analytic.declined.values()) == analytic.fallback_regions

    def test_a_disagreeing_window_declines_exactly(self, monkeypatch):
        """A static value the window contradicts costs the fold, never
        exactness: the region enumerates."""
        real = fold.fold_geometry

        def skewed(candidate, memory):
            geometry = real(candidate, memory)
            name = next(iter(geometry.index_bounds))
            (lo, hi), *rest = geometry.index_bounds[name]
            geometry.index_bounds[name] = [(lo, hi + 1), *rest]
            return geometry

        monkeypatch.setattr(fold, "fold_geometry", skewed)
        analytic = assert_engine_exact(hdiff.build_sdfg(), {"I": 64, "J": 16, "K": 8})
        assert analytic.analytic_regions == 0
        assert analytic.declined == {"window": 1}

    @pytest.mark.parametrize("level", [1, 3], ids=["v1", "v3"])
    @pytest.mark.parametrize("skew", [(0, 8), (8, 0)], ids=["wider", "narrower"])
    def test_a_skewed_cluster_bound_declines_exactly(self, monkeypatch, level, skew):
        """A cluster bound the window contradicts declines (``window``)
        and the region enumerates, exactly."""
        real = fold.fold_geometry

        def skewed(candidate, memory):
            geometry = real(candidate, memory)
            name, lo, hi = geometry.clusters[1]
            geometry.clusters[1] = (name, lo + skew[1], hi + skew[0])
            return geometry

        monkeypatch.setattr(fold, "fold_geometry", skewed)
        analytic = assert_engine_exact(hdiff_variant(level), {"I": 28, "J": 18, "K": 8})
        assert analytic.analytic_regions == 0
        assert analytic.declined == {"window": 1}

    def test_pass_report_splits_declines(self):
        session = Session(hdiff.build_sdfg())
        session.local_view(dict(hdiff.LOCAL_VIEW_SIZES)).miss_counts()
        assert session.metrics.counter("locality.fold.declined.economic").value == 1
        assert "fold declined by: economic 1" in session.pass_report()
