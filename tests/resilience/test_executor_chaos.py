"""Chaos-driven executor tests: pool breaker, serial degradation.

The chaos harness injects the faults; the assertions are about the
executor's *reaction* — serial fallback, breaker transitions, crash
records — all deterministic because the triggers are counter-based.
"""

import os
import signal
import time

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


def _killer_point(sdfg_text, params, *cfg):
    """SIGKILL the worker on every attempt at a marked point; sleep
    ``params["sleep"]`` seconds at the others."""
    if params.get("kill"):
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(params.get("sleep", 0))
    return dict(params)


def _logged(evaluated):
    """The in-process evaluator, appending each point's ``idx`` to
    *evaluated*."""

    def evaluate(point):
        evaluated.append(point.env["idx"])
        return dict(point.env)

    return evaluate


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

    def test_a_serial_adaptive_choice_leaves_the_probe_to_a_pooled_run(
        self, sdfg
    ):
        # A cheap grid's adaptive probe picks serial: the half-open
        # breaker's one probe is not spent, so the next pooled run makes
        # it and closes the breaker instead of skipping the pool forever.
        clock = FakeClock()
        breaker = CircuitBreaker(
            "pool", failure_threshold=1, reset_timeout=30.0, clock=clock
        )
        breaker.record_failure()
        clock.now += 31.0
        metrics = MetricsRegistry()
        run = SweepExecutor(
            workers=2, adaptive=True, point_fn=_echo_point, metrics=metrics,
            breaker=breaker,
        ).run(grid_points(sdfg, GRID), in_process(_echo_point))
        assert run.ok
        assert metrics.counter("sweep.adaptive.serial_chosen").value == 1
        assert breaker.state == "half_open"
        run = SweepExecutor(
            workers=2, point_fn=_echo_point, metrics=metrics, breaker=breaker
        ).run(grid_points(sdfg, GRID), in_process(_echo_point))
        assert run.ok
        assert metrics.counter("sweep.breaker.skipped_pool").value == 0
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

    @pytest.mark.parametrize("points", [2, 3])
    @pytest.mark.parametrize("max_respawns", [0, 2])
    @pytest.mark.parametrize("retries", [0, 1, 2])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_pool_that_never_returns_a_point_loses_none(
        self, sdfg, monkeypatch, workers, retries, max_respawns, points
    ):
        # Every worker dies on its first point, so every death is the
        # pool's fault: whether retries or respawns run out first, the
        # one serial fallback evaluates every point, crashed ones too.
        monkeypatch.setenv("REPRO_CHAOS", "worker.kill:kind=kill")
        chaos_mod.uninstall()
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(
            "pool", failure_threshold=1, reset_timeout=30.0, clock=FakeClock()
        )
        evaluated: list[int] = []
        run = SweepExecutor(
            workers=workers, retries=retries, backoff=0.001,
            max_respawns=max_respawns, point_fn=_echo_point,
            metrics=metrics, breaker=breaker,
        ).run(grid_points(sdfg, GRID[:points]), _logged(evaluated))
        assert run.ok, run.errors
        assert [p["idx"] for p in run.points] == list(range(points))
        assert evaluated == list(range(points))
        assert metrics.counter("sweep.serial_fallbacks").value == 1
        assert breaker.state == "open"

    @pytest.mark.parametrize(
        "killers, retries, max_respawns, attempts",
        [
            ((1,), 0, 2, (1,)),
            ((1,), 1, 2, (2,)),
            # The killer's last death also gives the pool up.
            ((1,), 2, 2, (3,)),
            # The respawns run out before the killers' retries do.
            ((1, 2), 2, 2, (2, 1)),
            ((1,), 3, 1, (2,)),
        ],
    )
    def test_a_point_that_kills_its_worker_is_a_crash(
        self, sdfg, killers, retries, max_respawns, attempts
    ):
        # The pool returned point 0 first, so a killer's deaths are its
        # own: it is a crash, retries left or not, and never runs in
        # process.  Every point has an outcome, so nothing falls back.
        grid = [{"idx": i, "kill": i in killers} for i in range(3)]
        evaluated: list[int] = []
        metrics = MetricsRegistry()
        run = SweepExecutor(
            workers=1, retries=retries, backoff=0.001,
            max_respawns=max_respawns, point_fn=_killer_point, metrics=metrics,
        ).run(grid_points(sdfg, grid), _logged(evaluated))
        assert [
            (e.params["idx"], e.kind, e.attempts) for e in run.errors
        ] == [(index, "crash", n) for index, n in zip(killers, attempts)]
        assert evaluated == []
        assert [p["idx"] for p in run.points if p is not None] == [
            i for i in range(3) if i not in killers
        ]
        assert metrics.counter("sweep.serial_fallbacks").value == 0

    def test_a_killers_neighbour_in_flight_is_not_charged(self, sdfg):
        # With two workers the killer breaks the pool while its slower
        # neighbour is still in flight.  That break is charged to neither
        # point: each reruns alone, so only the killer is a crash, and the
        # neighbours complete on the pool.
        grid = [{"idx": i, "kill": i == 0, "sleep": 0.2} for i in range(4)]
        evaluated: list[int] = []
        run = SweepExecutor(
            workers=2, retries=1, backoff=0.001, point_fn=_killer_point,
        ).run(grid_points(sdfg, grid), _logged(evaluated))
        [error] = run.errors
        assert (error.params["idx"], error.kind, error.attempts) == (
            0, "crash", 2
        )
        assert [p["idx"] for p in run.points[1:]] == [1, 2, 3]
        assert evaluated == []

    def test_a_pooled_tune_feeds_the_sessions_pool_breaker(self, monkeypatch):
        # The tuner's rounds share the session's breaker: two rounds whose
        # pool dies open it, and the session's next sweep skips the pool.
        from repro.apps import cloudsc
        from repro.tool.session import Session

        monkeypatch.setenv("REPRO_CHAOS", "worker.kill:kind=kill")
        chaos_mod.uninstall()
        session = Session(cloudsc.build_sdfg())
        session.tune(
            cloudsc.LOCAL_VIEW_SIZES, beam=4, depth=2, budget=20, workers=2,
            line_size=cloudsc.CACHE["line_size"],
            capacity_lines=cloudsc.CACHE["capacity_lines"],
        )
        counters = session.metrics.to_dict()["counters"]
        assert counters["sweep.serial_fallbacks"] >= 2
        assert session.pool_breaker.state == "open"
        session.sweep(
            {"NBLOCKS": [8, 12], "KLEV": [4]}, workers=2, adaptive=False
        )
        counters = session.metrics.to_dict()["counters"]
        assert counters["sweep.breaker.skipped_pool"] == 1
