"""Chaos-driven executor tests: pool breaker, serial degradation.

The chaos harness injects the faults; the assertions are about the
executor's *reaction* — serial fallback, breaker transitions, crash
records — all deterministic because the triggers are counter-based.
"""

import pytest

from repro.analysis.executor import SweepExecutor
from repro.apps import hdiff
from repro.obs import MetricsRegistry
from repro.resilience import chaos as chaos_mod
from repro.resilience.breaker import CircuitBreaker
from tests.analysis.grid_points import grid_points, in_process

GRID = [{"idx": i} for i in range(4)]


@pytest.fixture(scope="module")
def sdfg():
    return hdiff.build_sdfg()


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def _echo_point(sdfg_text, params, *cfg):
    return dict(params)


class TestEvalChaos:
    def test_injected_eval_error_is_retried_as_transient(self, sdfg):
        # eval.error raises OSError(EIO) once; the serial retry loop
        # treats it exactly like any other transient fault.
        chaos_mod.install("eval.error:times=1")
        metrics = MetricsRegistry()
        executor = SweepExecutor(retries=2, backoff=0.001, metrics=metrics)
        run = executor.run(grid_points(sdfg, GRID), in_process(_echo_point))
        assert run.ok
        assert metrics.counter("sweep.retries").value == 1

    def test_exhausted_chaos_errors_become_records(self, sdfg):
        chaos_mod.install("eval.error")  # every call fails
        executor = SweepExecutor(retries=1, backoff=0.001)
        run = executor.run(grid_points(sdfg, GRID[:2]), in_process(_echo_point))
        assert [e.kind for e in run.errors] == ["error", "error"]
        assert all("chaos" in e.message for e in run.errors)


class TestPoolBreaker:
    def test_spawn_chaos_falls_back_serial_and_trips_breaker(self, sdfg):
        chaos_mod.install("pool.spawn")
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(
            "pool", failure_threshold=1, reset_timeout=30.0, clock=FakeClock()
        )
        executor = SweepExecutor(
            workers=2, point_fn=_echo_point, metrics=metrics, breaker=breaker
        )
        run = executor.run(grid_points(sdfg, GRID), in_process(_echo_point))
        assert run.ok  # degraded, not broken
        assert [p["idx"] for p in run.points] == [0, 1, 2, 3]
        assert metrics.counter("sweep.serial_fallbacks").value == 1
        assert breaker.state == "open"

    def test_open_breaker_skips_pool_entirely(self, sdfg):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "pool", failure_threshold=1, reset_timeout=30.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == "open"
        metrics = MetricsRegistry()
        executor = SweepExecutor(
            workers=2, point_fn=_echo_point, metrics=metrics, breaker=breaker
        )
        run = executor.run(grid_points(sdfg, GRID), in_process(_echo_point))
        assert run.ok
        assert metrics.counter("sweep.breaker.skipped_pool").value == 1
        assert metrics.counter("sweep.pool_spawns").value == 0

    def test_half_open_probe_recovers_pool(self, sdfg):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "pool", failure_threshold=1, reset_timeout=30.0, clock=clock
        )
        breaker.record_failure()
        clock.now += 31.0
        metrics = MetricsRegistry()
        executor = SweepExecutor(
            workers=2, point_fn=_echo_point, metrics=metrics, breaker=breaker
        )
        # The half-open probe, and it works.
        run = executor.run(grid_points(sdfg, GRID), in_process(_echo_point))
        assert run.ok
        assert metrics.counter("sweep.pool_spawns").value == 1
        assert breaker.state == "closed"


class TestWorkerKillChaos:
    def test_persistent_worker_death_degrades_to_serial(self, sdfg, monkeypatch):
        # Workers read REPRO_CHAOS from the environment; every worker
        # SIGKILLs itself before its first point, so the pool never
        # becomes operational — the executor respawns up to the cap,
        # then falls back to serial evaluation (the coordinating process
        # does not hit the worker.kill site) and feeds the breaker.
        # Every point still completes: availability beats parallelism.
        monkeypatch.setenv("REPRO_CHAOS", "worker.kill:kind=kill")
        chaos_mod.uninstall()  # re-read the environment (workers inherit it)
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(
            "pool", failure_threshold=1, reset_timeout=30.0, clock=FakeClock()
        )
        executor = SweepExecutor(
            workers=1, retries=1, backoff=0.001, max_respawns=1,
            point_fn=_echo_point, metrics=metrics, breaker=breaker,
        )
        run = executor.run(grid_points(sdfg, GRID[:3]), in_process(_echo_point))
        assert run.ok
        assert [p["idx"] for p in run.points] == [0, 1, 2]
        assert metrics.counter("sweep.pool_respawns").value >= 1
        assert metrics.counter("sweep.serial_fallbacks").value == 1
        assert breaker.state == "open"

    def test_pooled_tune_under_a_worker_kill_returns_the_serial_trajectory(
        self, monkeypatch
    ):
        # Chaos counters are per process and every worker forks with a
        # fresh one, so each worker dies on its first point: the tuner's
        # sweeps respawn, then finish in the serial fallback.  No
        # candidate may be lost or scored differently on the way.
        from repro.apps import cloudsc
        from repro.tool.session import Session

        settings = dict(
            beam=4, depth=2, budget=20,
            line_size=cloudsc.CACHE["line_size"],
            capacity_lines=cloudsc.CACHE["capacity_lines"],
        )
        serial = Session(cloudsc.build_sdfg()).tune(
            cloudsc.LOCAL_VIEW_SIZES, **settings
        )
        chaos_mod.install("worker.kill:kind=kill:times=1")
        session = Session(cloudsc.build_sdfg())
        pooled = session.tune(cloudsc.LOCAL_VIEW_SIZES, workers=2, **settings)
        counters = session.metrics.to_dict()["counters"]
        assert counters["sweep.pool_respawns"] >= 1
        assert counters.get("tuning.candidates.failed", 0) == 0
        assert pooled.trajectory == serial.trajectory
