"""Acceptance tests for content-addressed incremental analysis.

On each example application (hdiff, conv, linalg, bert) the pass-run
counters must *prove* that after a single symbol rebind or one applied
transformation only the downstream-affected passes re-execute — and the
incremental results must exactly equal a cold-pipeline run over the same
graph content.
"""

import pytest

from repro.apps import bert, conv, hdiff, linalg
from repro.sdfg.serialize import dumps, loads
from repro.tool.session import Session
from repro.transforms import (
    MapFusion,
    pad_strides_to_multiple,
    permute_array_layout,
)

LOCAL_CHAIN = (
    "local.analytic",
    "local.classify",
    "local.physmove",
)

#: The simulated trace feeds only the views that replay events:
#: miss-count queries never execute it.
ENUMERATION_CHAIN = ("local.trace",)

#: app name -> (builder, small sizes, the same sizes with one symbol rebound,
#:              a non-transient multi-dim array to pad)
APPS = {
    "hdiff": (
        hdiff.build_sdfg,
        {"I": 4, "J": 4, "K": 3},
        {"I": 5, "J": 4, "K": 3},
        "in_field",
    ),
    "conv": (
        conv.build_conv,
        {"Cout": 2, "Cin": 2, "H": 7, "W": 7, "KY": 3, "KX": 3},
        {"Cout": 3, "Cin": 2, "H": 7, "W": 7, "KY": 3, "KX": 3},
        None,
    ),
    "linalg": (
        linalg.build_matmul,
        {"I": 4, "J": 4, "K": 4},
        {"I": 4, "J": 6, "K": 4},
        "A",
    ),
    "bert": (
        bert.build_sdfg,
        {"B": 1, "H": 2, "SM": 4, "EMB": 8, "FF": 8, "P": 4},
        {"B": 1, "H": 2, "SM": 6, "EMB": 8, "FF": 8, "P": 4},
        None,
    ),
}


def app_case(name):
    builder, sizes, rebound, pad_array = APPS[name]
    sdfg = builder()
    if pad_array is None:
        pad_array = next(
            n
            for n, d in sdfg.arrays.items()
            if not d.transient and len(d.shape) >= 2
        )
    return sdfg, sizes, rebound, pad_array


def chain_runs(session):
    return {
        p: session.pipeline.runs(p) for p in LOCAL_CHAIN + ENUMERATION_CHAIN
    }


def query_local(session, sizes):
    lv = session.local_view(sizes)
    return lv.miss_counts(), lv.physical_movement()


def miss_tuples(misses):
    return {k: (v.hits, v.cold, v.capacity) for k, v in misses.items()}


@pytest.mark.parametrize("app", sorted(APPS))
class TestIncrementalCounters:
    def test_repeat_query_runs_no_pass(self, app):
        sdfg, sizes, _, _ = app_case(app)
        session = Session(sdfg)
        query_local(session, sizes)
        before = chain_runs(session)
        query_local(session, sizes)
        assert chain_runs(session) == before

    def test_symbol_rebind_reruns_local_chain_only(self, app):
        sdfg, sizes, rebound, _ = app_case(app)
        session = Session(sdfg)
        gv = session.global_view()
        gv.movement_heatmap(sizes)
        query_local(session, sizes)
        before = chain_runs(session)
        assert session.pipeline.runs("global.movement") == 1

        gv.movement_heatmap(rebound)
        query_local(session, rebound)

        after = chain_runs(session)
        for product in LOCAL_CHAIN:
            assert after[product] == before[product] + 1, product
        # The analytic engine serves classification, so the enumeration
        # chain never ran at all — at either size.
        for product in ENUMERATION_CHAIN:
            assert after[product] == 0, product
        # The symbolic movement expressions do not depend on the symbol
        # values: only the evaluation pass re-ran.
        assert session.pipeline.runs("global.movement") == 1
        assert session.pipeline.runs("global.movement.eval") == 2

    def test_capacity_change_reuses_trace_and_distances(self, app):
        sdfg, sizes, _, _ = app_case(app)
        session = Session(sdfg)
        query_local(session, sizes)
        before = chain_runs(session)

        lv = session.local_view(sizes, capacity_lines=8)
        lv.miss_counts()
        lv.physical_movement()

        after = chain_runs(session)
        # Capacity is not a key component of the analytic product (it
        # carries full histograms), nor of the enumeration chain.
        for product in ("local.analytic",) + ENUMERATION_CHAIN:
            assert after[product] == before[product], product
        for product in ("local.classify", "local.physmove"):
            assert after[product] == before[product] + 1, product

    def test_stride_padding_keeps_trace_cached(self, app):
        sdfg, sizes, _, pad_array = app_case(app)
        session = Session(sdfg)
        query_local(session, sizes)
        assert chain_runs(session)["local.trace"] == 0
        # The set-associative view replays the simulated trace.
        session.local_view(sizes).miss_counts_set_associative(num_sets=4, ways=2)
        before = chain_runs(session)
        assert before["local.trace"] == 1

        report = session.apply(pad_strides_to_multiple, sdfg, pad_array, 8)
        assert report.layout_only
        query_local(session, sizes)
        padded = session.local_view(sizes).miss_counts_set_associative(num_sets=4, ways=2)

        after = chain_runs(session)
        # The trace is keyed by logical descriptors, so it stays cached;
        # the analytic product is keyed by physical ones (strides
        # changed), so it re-runs and keeps serving classification.
        assert after["local.trace"] == before["local.trace"]
        for product in ("local.analytic", "local.classify"):
            assert after[product] == before[product] + 1, product
        # The cached trace is laid out anew: the padded strides count.
        cold = Session(loads(dumps(sdfg))).local_view(sizes)
        assert padded == cold.miss_counts_set_associative(num_sets=4, ways=2)

    def test_incremental_equals_cold_pipeline(self, app):
        sdfg, sizes, rebound, pad_array = app_case(app)
        session = Session(sdfg)
        # Warm the pipeline, rebind a symbol, apply a transform — the
        # incremental session mixes cached and recomputed products.
        query_local(session, sizes)
        session.apply(pad_strides_to_multiple, sdfg, pad_array, 8)
        misses, moved = query_local(session, rebound)
        heat = session.global_view().movement_heatmap(rebound)

        # The cold session analyzes the same content from scratch.
        cold = Session(loads(dumps(sdfg)))
        cold_misses, cold_moved = query_local(cold, rebound)
        cold_heat = cold.global_view().movement_heatmap(rebound)

        assert miss_tuples(misses) == miss_tuples(cold_misses)
        assert moved == cold_moved
        # Heatmaps are keyed by edge objects, which are not shared across
        # the serialization round trip — compare the value multisets.
        assert sorted(heat.values.values()) == sorted(cold_heat.values.values())


def build_fusable_chain():
    """A -> map -> B(transient) -> map -> C: one fusion opportunity."""
    from repro.sdfg import SDFG, Memlet, dtypes
    from repro.symbolic import symbols

    (N,) = symbols("N")
    sdfg = SDFG("chain")
    sdfg.add_array("A", [N], dtypes.float64)
    sdfg.add_transient("B", [N], dtypes.float64)
    sdfg.add_array("C", [N], dtypes.float64)
    state = sdfg.add_state("main")
    state.add_mapped_tasklet(
        "scale",
        {"i": "0:N"},
        inputs={"x": Memlet("A", "i")},
        code="_out = x * 2.0",
        outputs={"_out": Memlet("B", "i")},
    )
    b_node = next(n for n in state.data_nodes() if n.data == "B")
    state.add_mapped_tasklet(
        "offset",
        {"j": "0:N"},
        inputs={"x": Memlet("B", "j")},
        code="_out = x + 1.0",
        outputs={"_out": Memlet("C", "j")},
        input_nodes={"B": b_node},
    )
    sdfg.validate()
    return sdfg


class TestStaleAnalysisRegression:
    """The bug the content-addressed store eliminates: views serving
    results computed for a pre-transformation graph."""

    ENV = {"N": 16}

    def test_movement_heatmap_reflects_map_fusion(self):
        sdfg = build_fusable_chain()
        session = Session(sdfg)
        gv = session.global_view()
        before = gv.movement_heatmap(self.ENV)

        match = MapFusion.find_matches(sdfg, sdfg.start_state)[0]
        report = session.apply(match)
        assert report.transform == "MapFusion"

        # Same (long-lived) view object, no explicit invalidation: the
        # next query fingerprints the fused graph and recomputes.
        after = gv.movement_heatmap(self.ENV)
        assert after.values != before.values
        assert gv.total_movement(self.ENV) < (
            Session(build_fusable_chain()).global_view().total_movement(self.ENV)
        )

    def test_local_view_not_stale_after_layout_transform(self):
        sdfg = linalg.build_matmul()
        sizes = {"I": 8, "J": 8, "K": 8}
        session = Session(sdfg)
        before = session.local_view(
            sizes, line_size=16, capacity_lines=4
        ).physical_movement()

        # Transposing B's layout changes its traversal locality.
        session.apply(permute_array_layout, sdfg, "B", [1, 0])
        after = session.local_view(
            sizes, line_size=16, capacity_lines=4
        ).physical_movement()

        assert after != before
        cold = Session(loads(dumps(sdfg)))
        assert (
            cold.local_view(sizes, line_size=16, capacity_lines=4)
            .physical_movement() == after
        )

    def test_sweep_not_stale_after_transform(self):
        sdfg = linalg.build_matmul()
        grid = [{"I": 8, "J": 8, "K": 8}, {"I": 8, "J": 8, "K": 6}]
        session = Session(sdfg)
        before = session.sweep(grid, line_size=16, capacity_lines=4)

        session.apply(permute_array_layout, sdfg, "B", [1, 0])
        after = session.sweep(grid, line_size=16, capacity_lines=4)

        assert [p.moved_bytes for p in after] != [p.moved_bytes for p in before]

    def test_pass_report_names_the_transform(self):
        sdfg = build_fusable_chain()
        session = Session(sdfg)
        gv = session.global_view()
        gv.movement_heatmap(self.ENV)
        match = MapFusion.find_matches(sdfg, sdfg.start_state)[0]
        session.apply(match)
        gv.movement_heatmap(self.ENV)
        report = session.pass_report()
        assert "global.movement" in report
        assert "MapFusion" in report


def test_rendered_heatmap_view_never_simulates():
    """The slider loop's view — movement, a miss heatmap and its rendered
    container — at sizes where the analytic window fold engages: the
    engine answers it all, so the access trace is never simulated."""
    session = Session(hdiff.build_sdfg())
    lv = session.local_view({"I": 24, "J": 16, "K": 8}, capacity_lines=32)
    lv.physical_movement()
    svg = lv.render_container("in_field", values=lv.miss_heatmap("in_field"))
    assert svg.startswith("<svg")
    assert session.pipeline.runs("local.analytic") == 1
    assert session.pipeline.runs("local.trace") == 0
