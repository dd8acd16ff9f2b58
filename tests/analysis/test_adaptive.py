"""Adaptive serial-vs-pool choice of the sweep executor.

With ``adaptive=True`` the executor times the first grid point serially
and only spawns a worker pool when the measured per-point cost predicts
a wall-clock win over just finishing serially — a cheap grid must never
pay process-pool startup (the regression that made an 8-point sweep
*slower* with workers than without).  Point functions live at module
level so they pickle across process boundaries.
"""

import os
import time

import pytest

import repro.analysis.executor as executor_module
from repro.analysis.executor import SweepExecutor
from repro.apps import hdiff
from repro.obs import MetricsRegistry, Tracer
from tests.analysis.grid_points import grid_points, in_process


@pytest.fixture(scope="module")
def sdfg():
    return hdiff.build_sdfg()


def _echo_point(sdfg_text, params, *cfg):
    return dict(params)


def _sleepy_point(sdfg_text, params, *cfg):
    time.sleep(params.get("sleep", 0))
    return dict(params)


def pin(monkeypatch, cores, pool_overhead=0.5):
    """Fix the cost model's core count and pool overhead."""
    monkeypatch.setattr(executor_module, "_usable_cores", lambda: cores)
    monkeypatch.setattr(executor_module, "POOL_OVERHEAD", pool_overhead)


class TestChoosePool:
    """Unit tests of the cost model, with pinned cores and overhead."""

    @staticmethod
    def make(monkeypatch, workers=4, cores=4, pool_overhead=0.5):
        pin(monkeypatch, cores, pool_overhead)
        return SweepExecutor(workers=workers, adaptive=True)

    def test_expensive_points_choose_pool(self, monkeypatch):
        # serial: 4 x 1s = 4s; pool: 0.5 + ceil(4/4) x 1s = 1.5s.
        assert self.make(monkeypatch)._choose_pool(1.0, remaining=4) is True

    def test_cheap_points_stay_serial(self, monkeypatch):
        # serial: 4 x 10ms = 40ms; pool overhead alone is 0.5s.
        assert self.make(monkeypatch)._choose_pool(0.01, remaining=4) is False

    def test_single_core_never_pools(self, monkeypatch):
        executor = self.make(monkeypatch, cores=1)
        assert executor._choose_pool(10.0, remaining=100) is False

    def test_single_worker_never_pools(self, monkeypatch):
        executor = self.make(monkeypatch, workers=1)
        assert executor._choose_pool(10.0, remaining=100) is False

    def test_no_remaining_points_never_pools(self, monkeypatch):
        assert self.make(monkeypatch)._choose_pool(10.0, remaining=0) is False

    def test_default_cores_follow_the_affinity_mask(self, monkeypatch):
        # A cpuset or ``taskset`` leaves this process one CPU, whatever
        # ``os.cpu_count()`` says about the host.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        executor = SweepExecutor(workers=4, adaptive=True)
        assert executor._choose_pool(10.0, remaining=100) is False

    def test_effective_workers_capped_by_remaining(self, monkeypatch):
        # 2 remaining on 8 workers: pool = 0.5 + 1s, serial = 2s -> pool;
        # with a 2s overhead the pool can no longer win.
        executor = self.make(monkeypatch, workers=8)
        assert executor._choose_pool(1.0, remaining=2) is True
        executor = self.make(monkeypatch, workers=8, pool_overhead=2.0)
        assert executor._choose_pool(1.0, remaining=2) is False


class TestAdaptiveRuns:
    def test_cheap_grid_never_spawns_a_pool(self, sdfg, monkeypatch):
        monkeypatch.setattr(executor_module, "_usable_cores", lambda: 4)
        metrics = MetricsRegistry()
        tracer = Tracer()
        executor = SweepExecutor(
            workers=4,
            adaptive=True,
            point_fn=_echo_point,
            metrics=metrics,
            tracer=tracer,
        )
        grid = [{"idx": i} for i in range(8)]
        run = executor.run(grid_points(sdfg, grid), in_process(_echo_point))
        assert run.points == grid  # order preserved, probe included
        counters = metrics.to_dict()["counters"]
        assert counters.get("sweep.pool_spawns", 0) == 0
        assert counters["sweep.adaptive.serial_chosen"] == 1
        assert "sweep.adaptive.pool_chosen" not in counters
        [root] = tracer.spans("sweep.run")
        assert root.attributes["adaptive"] == "serial"
        assert metrics.gauge("sweep.adaptive.point_seconds").value >= 0.0

    def test_expensive_grid_spawns_a_pool(self, sdfg, monkeypatch):
        pin(monkeypatch, cores=2, pool_overhead=0.05)
        metrics = MetricsRegistry()
        tracer = Tracer()
        executor = SweepExecutor(
            workers=2,
            adaptive=True,
            point_fn=_sleepy_point,
            metrics=metrics,
            tracer=tracer,
        )
        grid = [{"idx": i, "sleep": 0.3} for i in range(3)]
        run = executor.run(grid_points(sdfg, grid), in_process(_sleepy_point))
        assert [p["idx"] for p in run.points] == [0, 1, 2]
        counters = metrics.to_dict()["counters"]
        assert counters["sweep.adaptive.pool_chosen"] == 1
        assert counters["sweep.pool_spawns"] == 1
        [root] = tracer.spans("sweep.run")
        assert root.attributes["adaptive"] == "pool"

    def test_adaptive_off_keeps_unconditional_pool(self, sdfg):
        metrics = MetricsRegistry()
        executor = SweepExecutor(
            workers=2, point_fn=_echo_point, metrics=metrics
        )
        grid = [{"idx": i} for i in range(4)]
        run = executor.run(grid_points(sdfg, grid), in_process(_echo_point))
        assert run.points == grid
        assert metrics.to_dict()["counters"]["sweep.pool_spawns"] == 1


class TestWarmCacheRegression:
    def test_fully_warm_disk_cache_never_spawns_a_pool(self, tmp_path):
        """A re-sweep served entirely from disk must not build a pool."""
        from repro.tool.session import Session

        grid = {"I": [8, 16], "J": [8], "K": [4]}
        warm = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        first = warm.sweep(grid, workers=None)
        assert len(first) == 2

        fresh = Session(hdiff.build_sdfg(), cache_dir=tmp_path)
        again = fresh.sweep(grid, workers=4)
        assert again == first
        counters = fresh.metrics.to_dict()["counters"]
        assert counters.get("sweep.pool_spawns", 0) == 0
        assert counters["sweep.cache_hits"] == 2


class TestStoredProductRegression:
    def test_points_with_a_stored_product_skip_the_executor(self, sdfg):
        """A re-sweep at another capacity classifies in process the
        points whose analytic product is stored: only new points reach
        the executor, so its adaptive probe times a point that needs the
        engine, not a classification."""
        from repro.tool.session import Session

        a, b, c, d = ({"I": 8, "J": 8, "K": k} for k in (3, 4, 5, 6))
        session = Session(sdfg)
        session.sweep([a, b], workers=2, adaptive=False, capacity_lines=16)
        points = session.metrics.counter("sweep.points")
        before = points.value
        session.sweep([a, b, c, d], workers=2, capacity_lines=4)
        assert points.value - before == 2
