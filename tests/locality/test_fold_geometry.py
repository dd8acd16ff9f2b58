"""The fold's static guards against a simulated block 0.

:func:`~repro.locality.fold.fold_geometry` decides every guard that
precedes the fold's window — index bounds, line-sharing groups and
their byte deltas, the period ``P``, the block span ``Δmax`` and the
decision — from the candidate's access boxes and the memory layout.
:func:`block0_oracle` derives the same values the way the engine once
did, from a simulated outer block 0; every candidate the engine meets
on the example apps, the hdiff variants, the tuner's candidates, the
served view sizes and random programs must agree with it.
"""

import math

import pytest
from hypothesis import given, settings

from repro.apps import bert, cloudsc, conv, hdiff, linalg
from repro.locality import analyze_locality, engine, fold
from repro.locality.fold import DECLINE_GUARDS, DELTA_MAX_CAP, P_JOINT_MAX, fold_geometry
from repro.locality.regions import region_columns
from repro.simulation.simulator import simulate_region
from repro.tool import Session

from tests.locality.test_analytic_differential import (
    assert_engine_exact,
    hdiff_variant,
    stencil_1d,
)
from tests.locality.test_analytic_property import random_programs

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

#: The slider's corners and centre (the workload views I 24-31, J 16-20, K 8).
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


def block0_oracle(sdfg, env, state, candidate, memory, include_transients):
    """The fold's guards computed from a simulated outer block 0."""
    result = simulate_region(
        sdfg, env, state, candidate.entry,
        include_transients=include_transients, outer_slice=(0, 1),
    )
    block = region_columns(result, memory)
    n = candidate.n
    line_size = memory.line_size
    shifts = candidate.container_shifts
    guard = None
    bounds = {}
    for name in block.containers:
        layout = memory.layout(name)
        matrix = block.index_matrices[name]
        bounds[name] = [
            (int(matrix[:, d].min()), int(matrix[:, d].max()))
            for d in range(matrix.shape[1])
        ]
        for (lo, hi), shift, extent in zip(bounds[name], shifts[name], layout.shape):
            if lo + min(0, shift * (n - 1)) < 0 or hi + max(0, shift * (n - 1)) >= extent:
                guard = guard or "bounds"
    intervals = sorted(
        (
            memory.layout(name).base_address // line_size,
            (memory.layout(name).end_address() - 1) // line_size,
            name,
        )
        for name in block.containers
    )
    groups = [[intervals[0][2]]]
    reach = intervals[0][1]
    for start, end, name in intervals[1:]:
        if start <= reach:
            groups[-1].append(name)
            reach = max(reach, end)
        else:
            groups.append([name])
            reach = end

    def delta_bytes(name):
        layout = memory.layout(name)
        return layout.itemsize * sum(
            stride * s for stride, s in zip(layout.strides, shifts[name])
        )

    deltas = [{delta_bytes(name) for name in group} for group in groups]
    lines = []
    for group in groups:
        member = [block.lines[block.positions[name]] for name in group]
        lines.append((
            min(int(m.min()) for m in member), max(int(m.max()) for m in member)
        ))
    oracle = {
        "events": block.num_events, "bounds": bounds, "groups": groups,
        "deltas": deltas, "lines": lines, "p_joint": None, "delta_max": None,
    }
    if any(len(d) != 1 for d in deltas):
        oracle["guard"] = guard or "shared_line"
        return oracle
    delta_max = p_joint = 1
    for (delta,), (lo, hi) in zip(deltas, lines):
        if delta:
            p_joint = math.lcm(p_joint, line_size // math.gcd(abs(delta), line_size))
            delta_max = max(delta_max, ((hi - lo + 2) * line_size) // abs(delta) + 1)
    if guard is None and (p_joint > P_JOINT_MAX or delta_max > DELTA_MAX_CAP):
        guard = "caps"
    if guard is None and n < 2 * (delta_max + p_joint):
        guard = "economic"
    oracle.update(p_joint=p_joint, delta_max=delta_max, guard=guard)
    return oracle


def assert_geometry_matches(sdfg, env, state, candidate, memory, include_transients):
    geometry = fold_geometry(candidate, memory)
    oracle = block0_oracle(sdfg, env, state, candidate, memory, include_transients)
    assert candidate.block_events == oracle["events"]
    assert geometry.index_bounds == oracle["bounds"]
    assert geometry.groups == oracle["groups"]
    assert geometry.deltas == oracle["deltas"]
    assert [
        (
            min(geometry.line_bounds[name][0] for name in group),
            max(geometry.line_bounds[name][1] for name in group),
        )
        for group in geometry.groups
    ] == oracle["lines"]
    assert geometry.p_joint == oracle["p_joint"]
    assert geometry.delta_max == oracle["delta_max"]
    assert geometry.guard == oracle["guard"]
    return geometry


@pytest.fixture
def checked(monkeypatch):
    """Check every fold the engine attempts against the oracle; the
    list holds each attempt's guard (``None`` = folded)."""
    seen = []
    real = engine.try_build_fold

    def checking(sdfg, env, state, candidate, memory, include_transients=False,
                 timings=None):
        geometry = assert_geometry_matches(
            sdfg, env, state, candidate, memory, include_transients
        )
        seen.append(geometry.guard)
        return real(sdfg, env, state, candidate, memory,
                    include_transients=include_transients, timings=timings)

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
            analyze_locality(hdiff_variant(level), env)
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
        from repro.locality.regions import extract_regions, fold_statics
        from repro.simulation.layout import MemoryModel

        (region,) = extract_regions(sdfg)
        candidate = fold_statics(sdfg, region.state, region.node, {})
        if candidate is not None:
            memory = MemoryModel(sdfg, {}, line_size=LINE)
            assert_geometry_matches(sdfg, {}, region.state, candidate, memory, False)


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
            name = next(iter(geometry.line_bounds))
            lo, hi = geometry.line_bounds[name]
            geometry.line_bounds[name] = (lo, hi + 1)
            return geometry

        monkeypatch.setattr(fold, "fold_geometry", skewed)
        analytic = assert_engine_exact(hdiff.build_sdfg(), {"I": 64, "J": 16, "K": 8})
        assert analytic.analytic_regions == 0
        assert analytic.declined == {"window": 1}

    def test_pass_report_splits_declines(self):
        session = Session(hdiff.build_sdfg())
        session.local_view(dict(hdiff.LOCAL_VIEW_SIZES)).miss_counts()
        assert session.metrics.counter("locality.fold.declined.economic").value == 1
        assert "fold declined by: economic 1" in session.pass_report()
