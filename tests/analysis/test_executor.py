"""Fault-injection tests for the fault-tolerant sweep executor.

The point functions used with worker pools live at module level so they
pickle across process boundaries.  Fault injection is driven through the
parameter dicts themselves (marker/log file paths in ``tmp_path``), which
keeps every scenario deterministic: with ``workers=1`` at most one point
is ever in flight, so kill/retry interleavings cannot race.
"""

import os
import signal
import time

import pytest

from repro.analysis.executor import (
    CancelToken,
    SweepExecutor,
    SweepPointError,
    SweepRun,
)
from repro.analysis.parametric import parameter_grid
from repro.apps import hdiff
from repro.errors import AnalysisError, SimulationError
from repro.obs import MetricsRegistry, Tracer
from repro.tool.session import Session
from tests.analysis.grid_points import grid_points, in_process

GRID = [{"idx": i} for i in range(4)]


@pytest.fixture(scope="module")
def sdfg():
    return hdiff.build_sdfg()


# -- module-level point functions (picklable) ---------------------------------


def _echo_point(sdfg_text, params, *cfg):
    return dict(params)


def _poison_point(sdfg_text, params, *cfg):
    if params.get("poison"):
        raise AnalysisError(f"bad point {params['idx']}")
    return dict(params)


def _sleepy_point(sdfg_text, params, *cfg):
    time.sleep(params.get("sleep", 0))
    return dict(params)


def _logged_kill_once_point(sdfg_text, params, *cfg):
    """Log every attempt; SIGKILL the worker on the first killer attempt."""
    with open(params["log"], "a") as handle:
        handle.write(f"{params['idx']}\n")
    if params.get("kill"):
        marker = params["marker"]
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("killed once")
            os.kill(os.getpid(), signal.SIGKILL)
    return dict(params)


def _brittle_point(sdfg_text, params, *cfg):
    """Raise a non-library error for marked points."""
    if params.get("brittle"):
        raise ValueError(f"brittle point {params['idx']}")
    return dict(params)


def _flaky_point(sdfg_text, params, *cfg):
    """Raise a transient OSError on the first attempt of each point."""
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("failed once")
        raise OSError("transient hiccup")
    return dict(params)


# -- SweepRun / SweepPointError data model ------------------------------------


class TestSweepRun:
    def test_partitions_outcomes_in_grid_order(self):
        error = SweepPointError({"idx": 1}, "error", "ValueError", "boom", 1)
        run = SweepRun(GRID[:3], [{"idx": 0}, error, {"idx": 2}])
        assert run.points == [{"idx": 0}, None, {"idx": 2}]
        assert run.errors == [error]
        assert not run.ok
        assert run.completed == 2
        assert len(run) == 3
        assert run[1] is error
        assert list(run) == run.outcomes

    def test_raise_on_error_names_first_failure(self):
        error = SweepPointError({"idx": 1}, "timeout", None, "too slow", 2)
        run = SweepRun(GRID[:2], [{"idx": 0}, error])
        with pytest.raises(AnalysisError, match=r"\{'idx': 1\}.*timeout"):
            run.raise_on_error()
        SweepRun(GRID[:1], [{"idx": 0}]).raise_on_error()  # no-op when ok

    def test_to_dict(self):
        error = SweepPointError({"idx": 0}, "crash", "BrokenProcessPool", "died", 3)
        doc = SweepRun(GRID[:1], [error]).to_dict()
        assert doc["points"] == 1
        assert doc["completed"] == 0
        assert doc["errors"][0]["kind"] == "crash"
        assert doc["errors"][0]["attempts"] == 3

    def test_error_kinds_validated(self):
        with pytest.raises(ValueError):
            SweepPointError({}, "mystery", None, "?", 1)


# -- serial path --------------------------------------------------------------


class TestSerialExecution:
    def test_partial_results_with_poisoned_point(self, sdfg):
        grid = [dict(p, poison=(p["idx"] == 2)) for p in GRID]
        metrics = MetricsRegistry()
        executor = SweepExecutor(metrics=metrics)
        run = executor.run(grid_points(sdfg, grid), in_process(_poison_point))
        assert run.completed == 3
        [error] = run.errors
        assert error.kind == "error"
        assert error.error_type == "AnalysisError"
        assert error.params["idx"] == 2
        assert error.attempts == 1  # library errors are never retried
        assert run.points[2] is None
        assert metrics.counter("sweep.failed").value == 1
        assert metrics.counter("sweep.completed").value == 3
        assert metrics.counter("sweep.retries").value == 0

    def test_transient_errors_retry_with_backoff(self, sdfg, tmp_path):
        grid = [
            dict(p, marker=str(tmp_path / f"flaky-{p['idx']}")) for p in GRID
        ]
        metrics = MetricsRegistry()
        executor = SweepExecutor(retries=2, backoff=0.001, metrics=metrics)
        run = executor.run(grid_points(sdfg, grid), in_process(_flaky_point))
        assert run.ok
        assert metrics.counter("sweep.retries").value == len(grid)

    def test_exhausted_retries_become_error_records(self, sdfg):
        def always_fails(sdfg_text, params, *cfg):
            raise OSError("permanently flaky")

        executor = SweepExecutor(retries=1, backoff=0.001)
        run = executor.run(grid_points(sdfg, GRID[:2]), in_process(always_fails))
        assert [e.kind for e in run.errors] == ["error", "error"]
        assert all(e.attempts == 2 for e in run.errors)  # 1 try + 1 retry

    def test_cancellation_mid_sweep(self, sdfg):
        token = CancelToken()

        def cancel_after_first(index, outcome):
            token.cancel()

        executor = SweepExecutor()
        run = executor.run(
            grid_points(sdfg, GRID), in_process(_echo_point),
            cancel=token, on_result=cancel_after_first,
        )
        assert run.outcomes[0] == {"idx": 0}
        assert [e.kind for e in run.errors] == ["cancelled"] * 3

    def test_empty_grid(self, sdfg):
        run = SweepExecutor().run([], in_process(_echo_point))
        assert len(run) == 0 and run.ok


# -- pool path ----------------------------------------------------------------


class TestPoolExecution:
    def test_results_come_back_in_grid_order(self, sdfg):
        grid = [
            {"idx": i, "sleep": 0.2 if i == 0 else 0.0} for i in range(4)
        ]
        executor = SweepExecutor(workers=2, point_fn=_sleepy_point)
        run = executor.run(grid_points(sdfg, grid), in_process(_sleepy_point))
        assert run.ok
        assert [p["idx"] for p in run.points] == [0, 1, 2, 3]

    def test_poisoned_point_yields_partial_results(self, sdfg):
        grid = [dict(p, poison=(p["idx"] == 2)) for p in GRID]
        metrics = MetricsRegistry()
        executor = SweepExecutor(
            workers=2, point_fn=_poison_point, metrics=metrics
        )
        run = executor.run(grid_points(sdfg, grid), in_process(_poison_point))
        assert run.completed == 3
        [error] = run.errors
        assert error.params["idx"] == 2
        # A worker's library error comes home as its own point's record.
        assert (error.kind, error.error_type, error.attempts) == (
            "error", "AnalysisError", 1
        )
        assert metrics.counter("sweep.retries").value == 0

    @pytest.mark.parametrize("retries", [0, 1])
    def test_worker_exception_is_retried_then_recorded(self, sdfg, retries):
        """A non-library exception raised in a worker is transient: it is
        retried, then recorded with its type, and its neighbours are
        unaffected."""
        grid = [{"idx": i, "brittle": i == 3} for i in range(8)]
        metrics = MetricsRegistry()
        run = SweepExecutor(
            workers=2, retries=retries, backoff=0.001,
            point_fn=_brittle_point, metrics=metrics,
        ).run(grid_points(sdfg, grid), in_process(_brittle_point))
        [error] = run.errors
        assert error.params["idx"] == 3
        assert (error.kind, error.error_type, error.attempts) == (
            "error", "ValueError", retries + 1
        )
        assert "brittle point 3" in error.message
        assert [p["idx"] for p in run.points if p is not None] == [
            0, 1, 2, 4, 5, 6, 7
        ]
        assert metrics.counter("sweep.retries").value == retries
        assert metrics.counter("sweep.serial_fallbacks").value == 0

    def test_worker_kill_recovers_and_retries_only_unfinished(self, sdfg, tmp_path):
        log = tmp_path / "attempts.log"
        log.touch()
        grid = [
            {
                "idx": i,
                "kill": i == 1,
                "log": str(log),
                "marker": str(tmp_path / "killed"),
            }
            for i in range(4)
        ]
        metrics = MetricsRegistry()
        # One worker => at most one point in flight, so the kill cannot
        # take completed neighbours down with it.
        executor = SweepExecutor(
            workers=1, retries=2, backoff=0.001,
            point_fn=_logged_kill_once_point, metrics=metrics,
        )
        run = executor.run(grid_points(sdfg, grid), in_process(_logged_kill_once_point))
        assert run.ok
        assert [p["idx"] for p in run.points] == [0, 1, 2, 3]
        attempts = [int(line) for line in log.read_text().split()]
        # The killer point ran twice (kill + retry); everyone else exactly
        # once — completed points are never recomputed after the respawn.
        assert sorted(attempts) == [0, 1, 1, 2, 3]
        assert metrics.counter("sweep.pool_respawns").value == 1
        assert metrics.counter("sweep.retries").value == 1
        assert metrics.counter("sweep.serial_fallbacks").value == 0

    def test_per_point_timeout_expires(self, sdfg):
        grid = [
            {"idx": i, "sleep": 1.5 if i == 1 else 0.0} for i in range(3)
        ]
        metrics = MetricsRegistry()
        executor = SweepExecutor(
            workers=2, timeout=0.25, point_fn=_sleepy_point, metrics=metrics
        )
        run = executor.run(grid_points(sdfg, grid), in_process(_sleepy_point))
        [error] = run.errors
        assert error.kind == "timeout"
        assert error.params["idx"] == 1
        assert run.completed == 2
        assert metrics.counter("sweep.timeouts").value == 1

    def test_cancellation_mid_sweep(self, sdfg):
        token = CancelToken()

        def cancel_after_first(index, outcome):
            token.cancel()

        grid = [{"idx": i, "sleep": 0.05} for i in range(6)]
        executor = SweepExecutor(workers=1, point_fn=_sleepy_point)
        run = executor.run(
            grid_points(sdfg, grid), in_process(_sleepy_point),
            cancel=token, on_result=cancel_after_first,
        )
        cancelled = [e for e in run.errors if e.kind == "cancelled"]
        assert run.completed >= 1
        assert cancelled and run.completed + len(cancelled) == len(grid)

    def test_spawn_failure_falls_back_to_serial(self, sdfg, monkeypatch):
        import repro.analysis.executor as executor_module

        def no_pool(*args, **kwargs):
            raise OSError("fork unavailable")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_pool)
        metrics = MetricsRegistry()
        executor = SweepExecutor(workers=4, point_fn=_echo_point, metrics=metrics)
        run = executor.run(grid_points(sdfg, GRID), in_process(_echo_point))
        assert run.ok
        assert [p["idx"] for p in run.points] == [0, 1, 2, 3]
        assert metrics.counter("sweep.serial_fallbacks").value == 1

    def test_unpicklable_payload_falls_back_to_serial(self, sdfg, monkeypatch):
        # A payload that cannot pickle surfaces as PicklingError on the
        # future; stub the pool so the scenario is deterministic (a real
        # pool with a dead queue-feeder thread can hang at shutdown).
        import pickle
        from concurrent.futures import Future

        import repro.analysis.executor as executor_module

        class PicklingFailurePool:
            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                future = Future()
                future.set_exception(
                    pickle.PicklingError("payload does not pickle")
                )
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", PicklingFailurePool
        )
        metrics = MetricsRegistry()
        executor = SweepExecutor(workers=2, point_fn=_echo_point, metrics=metrics)
        run = executor.run(grid_points(sdfg, GRID), in_process(_echo_point))
        assert run.ok
        assert [p["idx"] for p in run.points] == [0, 1, 2, 3]
        assert metrics.counter("sweep.serial_fallbacks").value == 1

    def test_single_point_grid_stays_serial(self, sdfg, monkeypatch):
        import repro.analysis.executor as executor_module

        def no_pool(*args, **kwargs):
            raise AssertionError("a 1-point grid must not spawn a pool")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_pool)
        run = SweepExecutor(workers=4, point_fn=_echo_point).run(
            grid_points(sdfg, GRID[:1]), in_process(_echo_point)
        )
        assert run.ok and run.points == [{"idx": 0}]


# -- observability ------------------------------------------------------------


class TestObservability:
    def test_point_spans_and_latency_histogram(self, sdfg):
        tracer = Tracer()
        metrics = MetricsRegistry()
        executor = SweepExecutor(tracer=tracer, metrics=metrics)
        executor.run(grid_points(sdfg, GRID), in_process(_echo_point))
        [root] = tracer.spans("sweep.run")
        assert root.attributes["points"] == 4
        points = tracer.spans("sweep.point")
        assert len(points) == 4
        assert all(p.parent_id == root.span_id for p in points)
        assert sorted(p.attributes["index"] for p in points) == [0, 1, 2, 3]
        assert metrics.histogram("sweep.point_seconds").count == 4

    def test_failed_point_span_records_error(self, sdfg):
        tracer = Tracer()
        grid = [dict(p, poison=(p["idx"] == 0)) for p in GRID[:2]]
        SweepExecutor(tracer=tracer).run(
            grid_points(sdfg, grid), in_process(_poison_point)
        )
        failed = [s for s in tracer.spans("sweep.point") if s.status == "error"]
        assert len(failed) == 1
        assert failed[0].attributes["kind"] == "error"
        assert "bad point 0" in failed[0].error


# -- the silent-fallback bugfix: Session.sweep(on_error="raise") -------------


def _logged_engine(log, fail_at=None):
    """``analyze_locality`` that appends each call's ``I`` to *log* (a
    file, so forked pool workers report too) and fails at ``I == fail_at``."""
    from repro.locality import analyze_locality

    def engine(sdfg, env, *args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{env['I']}\n")
        if env["I"] == fail_at:
            raise SimulationError(f"injected failure at {dict(env)}")
        return analyze_locality(sdfg, env, *args, **kwargs)

    return engine


class TestSweepLocalViewsContract:
    """``Session.sweep(on_error="raise")``, serial and pooled: the one
    fail-loudly sweep.

    Regression: a library error used to silently re-run the whole grid
    serially.  Now the sweep raises an error naming the failing point,
    evaluates every point exactly once, and stores the good points.
    """

    GRID = [
        {"I": 3, "J": 3, "K": 2},
        {"I": 4, "J": 3},  # no K: a deterministic SimulationError
        {"I": 5, "J": 3, "K": 2},
    ]

    @staticmethod
    def log_engine(monkeypatch, log, fail_at=None):
        import importlib

        log.touch()
        local_passes = importlib.import_module("repro.passes.local_passes")
        monkeypatch.setattr(
            local_passes, "analyze_locality", _logged_engine(str(log), fail_at)
        )

    @staticmethod
    def assert_good_points_stored(session, good):
        runs = session.metrics.counter("pass.local.point.runs").value
        dispatched = session.metrics.counter("sweep.points").value
        assert session.sweep(good) is not None
        assert session.metrics.counter("pass.local.point.runs").value == runs
        assert session.metrics.counter("sweep.points").value == dispatched

    def test_poisoned_grid_fails_fast_and_names_the_point(
        self, sdfg, monkeypatch, tmp_path
    ):
        log = tmp_path / "engine.log"
        self.log_engine(monkeypatch, log, fail_at=4)
        session = Session(sdfg)
        grid = parameter_grid({"I": [3, 4, 5], "J": [3], "K": [2]})
        with pytest.raises(AnalysisError, match="'I': 4"):
            session.sweep(grid)
        assert log.read_text().split() == ["3", "4", "5"]
        self.assert_good_points_stored(session, [grid[0], grid[2]])

    def test_real_pipeline_error_names_the_point(self, sdfg, monkeypatch, tmp_path):
        log = tmp_path / "engine.log"
        self.log_engine(monkeypatch, log)
        session = Session(sdfg)
        with pytest.raises(AnalysisError, match=r"\{'I': 4, 'J': 3\}"):
            session.sweep(self.GRID)
        assert log.read_text().split() == ["3", "4", "5"]
        self.assert_good_points_stored(session, [self.GRID[0], self.GRID[2]])

    def test_real_pipeline_error_in_pool_mode(self, sdfg, monkeypatch, tmp_path):
        log = tmp_path / "engine.log"
        self.log_engine(monkeypatch, log)
        session = Session(sdfg)
        with pytest.raises(AnalysisError, match=r"\{'I': 4, 'J': 3\}"):
            session.sweep(self.GRID, workers=2, adaptive=False)
        # Every point ran once, on the pool: the grid was not re-run serially.
        assert sorted(log.read_text().split()) == ["3", "4", "5"]
        counters = session.metrics.to_dict()["counters"]
        assert counters["sweep.points"] == 3
        assert counters.get("sweep.serial_fallbacks", 0) == 0
        assert counters.get("pass.local.point.runs", 0) == 0
        self.assert_good_points_stored(session, [self.GRID[0], self.GRID[2]])


def _timed_kill_once_point(sdfg_text, params, *cfg):
    """Log (idx, wall time) per attempt; SIGKILL on the first killer try."""
    with open(params["log"], "a") as handle:
        handle.write(f"{params['idx']} {time.time()}\n")
    if params.get("kill"):
        marker = params["marker"]
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("killed once")
            os.kill(os.getpid(), signal.SIGKILL)
    return dict(params)


class TestCrashRetryBackoff:
    def test_crash_retry_waits_out_the_backoff(self, sdfg, tmp_path):
        """A pool crash retries like a transient error: after a backoff.

        Regression for the crash path resubmitting the killed point
        immediately — with ``workers=1`` the attempt log gives exact
        per-attempt timestamps, so the delay between the two attempts of
        the killer point must show the configured backoff, while every
        other point runs exactly once on the respawned pool.
        """
        log = tmp_path / "attempts.log"
        log.touch()
        backoff = 0.4
        grid = [
            {
                "idx": i,
                "kill": i == 1,
                "log": str(log),
                "marker": str(tmp_path / "killed"),
            }
            for i in range(3)
        ]
        metrics = MetricsRegistry()
        executor = SweepExecutor(
            workers=1, retries=2, backoff=backoff,
            point_fn=_timed_kill_once_point, metrics=metrics,
        )
        run = executor.run(grid_points(sdfg, grid), in_process(_timed_kill_once_point))
        assert run.ok
        assert [p["idx"] for p in run.points] == [0, 1, 2]

        attempts: dict[int, list[float]] = {}
        for line in log.read_text().splitlines():
            idx, stamp = line.split()
            attempts.setdefault(int(idx), []).append(float(stamp))
        # Crash on attempt 1, success on attempt 2 — nobody else reran.
        assert sorted(len(stamps) for stamps in attempts.values()) == [1, 1, 2]
        first, second = sorted(attempts[1])
        # The resubmission waited out the (first-retry) backoff.  Allow
        # generous slack below the nominal value: the attempt timestamp
        # is taken at worker entry, not at resubmission.
        assert second - first >= backoff * 0.6
        assert metrics.counter("sweep.pool_respawns").value == 1
        assert metrics.counter("sweep.retries").value == 1


class TestShippingWorkerEntry:
    """The pool's one worker entry returns the point together with its
    capacity-independent analytic product."""

    def test_ships_the_analytic_product(self, sdfg):
        from repro.analysis.executor import PooledPoint, _worker_evaluate_shipping
        from repro.analysis.parametric import LocalSweepPoint
        from repro.locality import AnalyticLocality
        from repro.sdfg.serialize import dumps

        shipped = _worker_evaluate_shipping(
            dumps(sdfg, indent=None), {"I": 4, "J": 4, "K": 3}, 64, 16, False
        )
        assert isinstance(shipped, PooledPoint)
        assert type(shipped.point) is LocalSweepPoint
        assert isinstance(shipped.analytic, AnalyticLocality)

    def test_engine_error_propagates(self, sdfg, monkeypatch):
        import importlib

        from repro.analysis.executor import _worker_evaluate_shipping
        from repro.sdfg.serialize import dumps

        def fail(*args, **kwargs):
            raise SimulationError("not analyzable")

        local_passes = importlib.import_module("repro.passes.local_passes")
        monkeypatch.setattr(local_passes, "analyze_locality", fail)
        with pytest.raises(SimulationError, match="not analyzable"):
            _worker_evaluate_shipping(
                dumps(sdfg, indent=None), {"I": 4, "J": 4, "K": 3}, 64, 16, False
            )
