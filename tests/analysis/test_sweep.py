"""Tests for the local-view parametric sweep engine."""

import os
import pickle

import pytest

from repro.analysis.executor import CancelToken, SweepRun
from repro.analysis.parametric import parameter_grid
from repro.apps import hdiff
from repro.errors import AnalysisError, ReproError
from repro.simulation import (
    CacheModel,
    MemoryModel,
    container_physical_movement,
    per_container_misses,
    simulate_state,
)
from repro.tool.session import Session

GRID_SPEC = {"I": [3, 4], "J": [3, 4], "K": [2, 3]}  # 8 points


def _counter(session, name: str) -> int:
    return session.metrics.counter(name).value


@pytest.fixture(scope="module")
def sdfg():
    return hdiff.build_sdfg()


class TestParameterGrid:
    def test_cross_product_order(self):
        grid = parameter_grid({"I": [8, 16], "J": [4]})
        assert grid == [{"I": 8, "J": 4}, {"I": 16, "J": 4}]

    def test_last_axis_varies_fastest(self):
        grid = parameter_grid({"A": [0, 1], "B": [5, 6]})
        assert [g["B"] for g in grid] == [5, 6, 5, 6]

    def test_empty_spec(self):
        assert parameter_grid({}) == [{}]


class TestSweepLocalViews:
    """Swept points equal the session's own views and the interpreter."""

    def test_serial_sweep_matches_local_view(self, sdfg):
        grid = parameter_grid(GRID_SPEC)
        points = Session(sdfg).sweep(grid, capacity_lines=16)
        assert [p.params for p in points] == grid
        # Differential: each point equals the session's own pipeline.
        session = Session(sdfg)
        for point in points:
            lv = session.local_view(point.params, capacity_lines=16)
            assert point.misses == lv.miss_counts()
            assert point.moved_bytes == lv.physical_movement()
            assert point.total_accesses == lv.result.num_events
            assert point.seconds >= 0

    def test_parallel_equals_serial(self, sdfg):
        grid = parameter_grid(GRID_SPEC)
        serial = Session(sdfg).sweep(grid, capacity_lines=16)
        parallel = Session(sdfg).sweep(
            grid, workers=4, adaptive=False, capacity_lines=16
        )
        assert parallel == serial
        assert [p.params for p in parallel] == grid

    def test_interpreter_path_agrees(self, sdfg):
        params = {"I": 3, "J": 3, "K": 2}
        [point] = Session(sdfg).sweep([params])
        # The oracle: per-event references over the interpreter's trace.
        events = simulate_state(sdfg, params, fast=False).events
        memory = MemoryModel(sdfg, params, line_size=64)
        model = CacheModel(line_size=64, capacity_lines=512)
        assert point.misses == per_container_misses(events, memory, model)
        assert point.moved_bytes == container_physical_movement(events, memory, model)
        assert point.total_accesses == len(events)

    def test_point_is_picklable(self, sdfg):
        point = Session(sdfg).sweep([{"I": 3, "J": 3, "K": 2}])[0]
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point
        assert clone.total_misses == point.total_misses
        assert clone.total_moved_bytes == point.total_moved_bytes


class TestSessionSweep:
    def test_mapping_expands_to_grid(self, sdfg):
        session = Session(sdfg)
        points = session.sweep(GRID_SPEC, capacity_lines=16)
        assert len(points) == 8
        assert [p.params for p in points] == parameter_grid(GRID_SPEC)

    def test_explicit_point_list(self, sdfg):
        session = Session(sdfg)
        grid = [{"I": 3, "J": 3, "K": 2}, {"I": 4, "J": 4, "K": 3}]
        points = session.sweep(grid)
        assert [p.params for p in points] == grid

    def test_resweep_hits_cache(self, sdfg):
        session = Session(sdfg)
        first = session.sweep(GRID_SPEC, capacity_lines=16)
        hits_before = _counter(session, "sweep.cache_hits")
        second = session.sweep(GRID_SPEC, capacity_lines=16)
        assert _counter(session, "sweep.cache_hits") - hits_before == len(first)
        assert all(a is b for a, b in zip(first, second))

    def test_refined_grid_only_pays_for_new_points(self, sdfg):
        session = Session(sdfg)
        session.sweep({"I": [3], "J": [3], "K": [2]})
        points_before = _counter(session, "sweep.points")
        session.sweep({"I": [3, 4], "J": [3], "K": [2]})
        assert _counter(session, "sweep.points") - points_before == 1  # only I=4 is new

    def test_config_is_part_of_the_key(self, sdfg):
        session = Session(sdfg)
        small = session.sweep({"I": [3], "J": [3], "K": [2]}, capacity_lines=2)
        large = session.sweep({"I": [3], "J": [3], "K": [2]}, capacity_lines=4096)
        assert small[0].total_misses > large[0].total_misses

    def test_fanout_and_merge_timed(self, sdfg):
        session = Session(sdfg)
        session.sweep({"I": [3], "J": [3], "K": [2]})
        assert session.tracer.count("fanout") == 1
        assert session.tracer.count("merge") == 1

    @pytest.mark.skipif(
        not os.cpu_count() or os.cpu_count() < 2,
        reason="parallel speedup needs multiple cores",
    )
    def test_parallel_sweep_usable_from_session(self, sdfg):
        session = Session(sdfg)
        points = session.sweep(GRID_SPEC, workers=2, capacity_lines=16)
        assert len(points) == 8


class TestSessionSweepFaultTolerance:
    BAD_GRID = [
        {"I": 3, "J": 3, "K": 2},
        {"I": 3, "J": 3},  # K missing: deterministic SimulationError
        {"I": 4, "J": 3, "K": 2},
    ]

    def test_raise_mode_names_the_failing_point(self, sdfg):
        session = Session(sdfg)
        with pytest.raises(AnalysisError, match="'I': 3"):
            session.sweep(self.BAD_GRID)

    def test_record_mode_returns_partial_results(self, sdfg):
        session = Session(sdfg)
        run = session.sweep(self.BAD_GRID, on_error="record")
        assert isinstance(run, SweepRun)
        assert run.completed == 2
        [error] = run.errors
        assert error.params == {"I": 3, "J": 3}
        assert error.kind == "error"
        assert error.error_type == "SimulationError"
        # Grid order is preserved around the failure.
        assert run.points[0].params == self.BAD_GRID[0]
        assert run.points[1] is None
        assert run.points[2].params == self.BAD_GRID[2]

    def test_completed_points_cached_across_a_failure(self, sdfg):
        """Re-sweeping after a partial failure never re-runs completed
        points: only the failed point is evaluated again."""
        session = Session(sdfg)
        session.sweep(self.BAD_GRID, on_error="record")
        points_before = _counter(session, "sweep.points")
        run = session.sweep(self.BAD_GRID, on_error="record")
        assert _counter(session, "sweep.points") - points_before == 1  # only the bad point
        assert run.completed == 2

    def test_raise_mode_still_caches_the_good_points(self, sdfg):
        session = Session(sdfg)
        with pytest.raises(AnalysisError):
            session.sweep(self.BAD_GRID)
        points_before = _counter(session, "sweep.points")
        good = [p for p in self.BAD_GRID if "K" in p]
        points = session.sweep(good)
        assert _counter(session, "sweep.points") == points_before  # all served from the store
        assert [p.params for p in points] == good

    def test_unknown_on_error_mode_rejected(self, sdfg):
        with pytest.raises(ReproError):
            Session(sdfg).sweep(GRID_SPEC, on_error="ignore")

    def test_cancellation_marks_remaining_points(self, sdfg):
        session = Session(sdfg)
        token = CancelToken()
        token.cancel()  # cancelled before the sweep even starts
        run = session.sweep(GRID_SPEC, on_error="record", cancel=token)
        assert run.completed == 0
        assert all(e.kind == "cancelled" for e in run.errors)


class TestSessionSweepStoredProducts:
    """A point whose ``local.analytic`` product is stored only classifies:
    the session answers it in process, with the executor's contract."""

    GRID = [{"I": 3, "J": 3, "K": 2}, {"I": 4, "J": 3, "K": 2}]

    def _swept(self, sdfg):
        session = Session(sdfg)
        session.sweep(self.GRID, capacity_lines=16)
        return session

    def test_capacity_resweep_skips_the_executor(self, sdfg):
        session = self._swept(sdfg)
        points_before = _counter(session, "sweep.points")
        streamed = {}
        points = session.sweep(
            self.GRID, capacity_lines=4, on_result=streamed.__setitem__
        )
        assert _counter(session, "sweep.points") == points_before
        assert _counter(session, "sweep.classified") == 2
        assert session.pipeline.runs("local.analytic") == 2  # the first sweep's
        assert streamed == dict(enumerate(points))
        fresh = Session(sdfg).sweep(self.GRID, capacity_lines=4)
        assert [p.misses for p in points] == [p.misses for p in fresh]

    def test_cancelled_resweep_marks_the_points(self, sdfg):
        session = self._swept(sdfg)
        token = CancelToken()
        token.cancel("client disconnected")
        run = session.sweep(
            self.GRID, capacity_lines=4, on_error="record", cancel=token
        )
        assert run.completed == 0
        assert all(e.kind == "cancelled" for e in run.errors)
        assert run.errors[0].message == "sweep cancelled: client disconnected"
        assert _counter(session, "sweep.cancelled") == 2

    def test_classification_errors_follow_on_error(self, sdfg, monkeypatch):
        from repro.passes.local_passes import ClassifyPass

        session = self._swept(sdfg)

        def fail(self, ctx, inputs):
            raise AnalysisError("classification failed")

        monkeypatch.setattr(ClassifyPass, "run", fail)
        run = session.sweep(self.GRID, capacity_lines=4, on_error="record")
        assert [e.params for e in run.errors] == self.GRID
        assert {e.error_type for e in run.errors} == {"AnalysisError"}
        with pytest.raises(AnalysisError, match="'I': 3"):
            session.sweep(self.GRID, capacity_lines=4)


class TestSessionSweepObservability:
    def test_trace_spans_cover_the_sweep(self, sdfg):
        session = Session(sdfg)
        session.sweep({"I": [3, 4], "J": [3], "K": [2]})
        [sweep_span] = session.tracer.spans("sweep")
        assert sweep_span.attributes == {"points": 2}
        [fanout] = session.tracer.spans("fanout")
        assert fanout.parent_id == sweep_span.span_id
        assert session.tracer.count("sweep.point") == 2
        # The flat per-name table sits alongside the tree.
        assert ("fanout", 1) in [(n, c) for n, c, _ in session.tracer.rows()]

    def test_metrics_count_points_and_cache_hits(self, sdfg):
        session = Session(sdfg)
        grid = {"I": [3, 4], "J": [3], "K": [2]}
        session.sweep(grid)
        session.sweep(grid)  # second run: all points from cache
        counters = session.metrics.to_dict()["counters"]
        assert counters["sweep.points"] == 2  # only uncached points dispatched
        assert counters["sweep.completed"] == 2
        assert counters["sweep.cache_hits"] == 2
        assert session.metrics.to_dict()["gauges"]["cache.entries"] >= 2

    def test_exports_write_valid_json(self, sdfg, tmp_path):
        import json

        session = Session(sdfg)
        session.sweep({"I": [3], "J": [3], "K": [2]})
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        session.export_trace(str(trace_path))
        session.export_metrics(str(metrics_path))
        trace = json.loads(trace_path.read_text())
        assert any(s["name"] == "sweep" for s in trace["spans"])
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["sweep.points"] == 1
        assert metrics["histograms"]["sweep.point_seconds"]["count"] == 1

    def test_pooled_sweep_counts_locality_like_a_serial_one(self, sdfg):
        grid = {"I": [5, 6, 7, 8], "J": [5], "K": [2]}

        def locality(workers):
            session = Session(sdfg)
            session.sweep(grid, workers=workers, adaptive=False)
            counters = session.metrics.to_dict()["counters"]
            lines = [
                line for line in session.pass_report().splitlines()
                if line.lstrip().startswith(("analytic locality", "fold declined"))
            ]
            spawns = counters.get("sweep.pool_spawns", 0)
            return spawns, lines, {
                name: count for name, count in counters.items()
                if name.startswith("locality.")
            }

        serial_spawns, serial_lines, serial = locality(None)
        pooled_spawns, pooled_lines, pooled = locality(2)
        assert serial_spawns == 0 and pooled_spawns >= 1
        assert serial["locality.analytic.fallbacks"] == 4
        assert serial["locality.fold.declined.economic"] == 3
        assert serial["locality.fold.declined.shared_line"] == 1
        assert pooled == serial
        assert pooled_lines == serial_lines
        assert serial_lines[0].startswith("analytic locality: ")
