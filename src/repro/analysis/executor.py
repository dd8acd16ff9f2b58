"""Fault-tolerant execution of local-view parametric sweeps.

:func:`sweep_points` is the one evaluation path for a batch of local-view
points: ``Session.sweep`` and the tuner both call it.  It answers each
point from the pipeline's store where it can, classifies in process every
point whose capacity-independent ``local.analytic`` product is stored,
and hands the rest to a :class:`SweepExecutor`.

The executor evaluates a point in process only through its caller's
callable.  On worker processes each task is one point: it ships the
point's own program to one worker entry, :func:`_worker_evaluate_shipping`,
which runs the pass pipeline's ``local.point`` and returns a
:class:`PooledPoint`.  Either way it keeps the error-handling contract a
long-running analysis service needs:

- **per-point outcomes** — a failing point yields a structured
  :class:`SweepPointError` record instead of poisoning the whole grid;
  every other point still completes, and results always come back in
  grid order;
- **retry with backoff** — transient, non-library failures (I/O errors,
  worker hiccups) are retried up to ``retries`` times with exponential
  backoff; deterministic library errors (:class:`~repro.errors.ReproError`
  subclasses) are *never* retried — rerunning them only doubles the work;
- **per-point timeouts** — a point that exceeds ``timeout`` seconds
  (measured from submission) is recorded as a timeout and abandoned;
- **process-pool crash recovery** — a worker killed mid-sweep breaks the
  :class:`~concurrent.futures.ProcessPoolExecutor`; the executor
  respawns the pool and resubmits *only the unfinished points*
  (completed results are never recomputed);
- **cooperative cancellation** — a :class:`CancelToken` stops the sweep
  at the next point boundary, marking unfinished points as cancelled;
- **one crash rule** — a break of the pool is charged only to a point
  that was alone in flight: that attempt died with its worker, and is
  retried like a transient failure.  A break with several points in
  flight is charged to none of them; each reruns with no other point in
  flight.  A worker death is the pool's fault until the pool has
  returned a point in this run.  Once it has, a point that broke the
  pool alone and has no outcome is a ``crash`` and never runs in
  process.  If the pool is given up (it cannot spawn, a payload does not
  pickle, or it broke more than ``max_respawns`` times), or the run ends
  with points that have no outcome, the breaker records a failure, and
  one serial fallback evaluates every point still without an outcome in
  process.  Library errors never trigger the fallback.

Every decision is observable: an attached
:class:`~repro.obs.trace.Tracer` receives one span per evaluated point
(with parameters, attempt count and status) and an attached
:class:`~repro.obs.metrics.MetricsRegistry` counts submissions,
completions, failures, retries, timeouts, cancellations, pool respawns
and serial fallbacks, plus a latency histogram.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.analysis.timing import maybe_span
from repro.errors import AnalysisError, ReproError
from repro.resilience.chaos import inject as _chaos

__all__ = [
    "CancelToken", "PooledPoint", "SweepExecutor", "SweepPointError", "SweepRun",
    "sweep_points",
]

#: Estimated one-time pool cost in seconds (spawn, program serialization,
#: worker warm-up) that the adaptive serial-vs-pool decision charges.
POOL_OVERHEAD = 0.35


class PooledPoint(NamedTuple):
    """A point evaluated on the pool, with the capacity-independent
    ``local.analytic`` product (an
    :class:`~repro.locality.engine.AnalyticLocality`) its worker computed.

    :func:`_worker_evaluate_shipping` returns one for every point it
    evaluates.  :func:`sweep_points` stores the product and passes on
    :attr:`point` alone, so a re-sweep of the grid at another capacity
    only classifies.
    """

    point: Any
    analytic: Any


#: Worker-side cache: serialized SDFG text -> base context over its
#: deserialization, so each worker process pays the JSON round-trip and
#: the graph fingerprints once per program, not per point.
_PROGRAMS: dict[str, Any] = {}


def _program_base(sdfg_text: str):
    """The worker's cached base context over *sdfg_text*."""
    base = _PROGRAMS.get(sdfg_text)
    if base is None:
        from repro.passes import PassContext
        from repro.sdfg.serialize import loads

        if len(_PROGRAMS) >= 4:
            _PROGRAMS.clear()
        base = _PROGRAMS[sdfg_text] = PassContext(loads(sdfg_text))
    return base


def _worker_evaluate_shipping(
    sdfg_text: str,
    params: Mapping[str, int],
    line_size: int,
    capacity_lines: int,
    include_transients: bool,
) -> PooledPoint:
    """The pool's worker entry: the pass pipeline's ``local.point`` for
    *params* on a cached deserialization of *sdfg_text*, returned as a
    :class:`PooledPoint` carrying the point's ``local.analytic`` product.

    The store is fresh because grid points share no pass products, and it
    dies with the call.  Graph fingerprints flow both ways between the
    program's cached base context and the point's own, so a worker
    fingerprints each program once.
    """
    from repro.passes import PassContext, build_pipeline

    base = _program_base(sdfg_text)
    ctx = PassContext(
        base.sdfg,
        env=params,
        line_size=line_size,
        capacity_lines=capacity_lines,
        include_transients=include_transients,
    )
    ctx.adopt_components(base)
    pipeline = build_pipeline()
    point = pipeline.run("local.point", ctx)
    base.adopt_components(ctx)
    # A store hit: ``local.point`` consumed the analytic product.
    return PooledPoint(point, pipeline.run("local.analytic", ctx))


class _LibraryError(NamedTuple):
    """A worker's :class:`~repro.errors.ReproError`, returned as data."""

    error_type: str
    message: str


def _worker_evaluate_point(fn: Callable, item: tuple) -> Any:
    """One pool task: *fn* on one point's arguments ``(sdfg_text, params,
    line_size, capacity_lines, include_transients)``.

    A deterministic library error comes back as a :class:`_LibraryError`
    record; any other exception propagates to the parent, which retries
    it.
    """
    # Chaos sites run worker-side (the spec rides in on REPRO_CHAOS,
    # which worker processes inherit): a "worker.kill" fault SIGKILLs
    # this process — the coordinating side sees BrokenProcessPool.
    _chaos("worker.kill")
    _chaos("eval.slow")
    try:
        _chaos("eval.error")
        return fn(*item)
    except ReproError as exc:
        return _LibraryError(type(exc).__name__, str(exc))


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity mask where the host
    has one (cpusets and ``taskset`` restrict it below ``cpu_count``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _PoolUnavailable(Exception):
    """Internal: the pool is given up for this run."""


class CancelToken:
    """Thread-safe cooperative cancellation flag for a running sweep.

    An optional *reason* travels with the cancellation and ends up in
    the :class:`SweepPointError` records of the abandoned points, so
    downstream reporting can distinguish e.g. a user abort from a
    dropped client connection (the analysis service cancels with
    ``"client disconnected"``).
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: str | None = None

    def cancel(self, reason: str | None = None) -> None:
        if reason is not None and not self._event.is_set():
            self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def message(self) -> str:
        """The record message for points abandoned by this token."""
        if self.reason is None:
            return "sweep cancelled"
        return f"sweep cancelled: {self.reason}"

    def __repr__(self) -> str:
        return f"CancelToken(cancelled={self.cancelled})"


class SweepPointError:
    """Structured record of one failed sweep point (picklable).

    Attributes
    ----------
    params:
        The parameter assignment of the failing point.
    kind:
        ``"error"`` (the evaluation raised), ``"timeout"``, ``"crash"``
        (the worker process died) or ``"cancelled"``.
    error_type:
        Exception class name, when one was raised.
    message:
        Human-readable failure description.
    attempts:
        How many evaluation attempts were made before giving up.
    """

    __slots__ = ("params", "kind", "error_type", "message", "attempts")

    KINDS = ("error", "timeout", "crash", "cancelled")

    def __init__(
        self,
        params: Mapping[str, int],
        kind: str,
        error_type: str | None,
        message: str,
        attempts: int,
    ):
        if kind not in self.KINDS:
            raise ValueError(f"unknown failure kind {kind!r}")
        self.params = dict(params)
        self.kind = kind
        self.error_type = error_type
        self.message = message
        self.attempts = attempts

    def to_dict(self) -> dict[str, Any]:
        return {
            "params": dict(self.params),
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepPointError):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"SweepPointError({self.params}, kind={self.kind!r}, "
            f"{self.error_type}: {self.message!r}, attempts={self.attempts})"
        )


class SweepRun:
    """Grid-ordered outcomes of one sweep: result points and/or errors.

    :attr:`outcomes` has one entry per grid point, in grid order: either
    the evaluated point (e.g. a
    :class:`~repro.analysis.parametric.LocalSweepPoint`) or a
    :class:`SweepPointError`.
    """

    def __init__(self, grid: Sequence[Mapping[str, int]], outcomes: Sequence[Any]):
        self.grid = [dict(point) for point in grid]
        self.outcomes = list(outcomes)

    @property
    def points(self) -> list[Any]:
        """Successful results in grid order (``None`` where a point failed)."""
        return [
            None if isinstance(o, SweepPointError) else o for o in self.outcomes
        ]

    @property
    def errors(self) -> list[SweepPointError]:
        return [o for o in self.outcomes if isinstance(o, SweepPointError)]

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def completed(self) -> int:
        return len(self.outcomes) - len(self.errors)

    def raise_on_error(self) -> None:
        """Raise :class:`~repro.errors.AnalysisError` naming the first failure."""
        for outcome in self.outcomes:
            if isinstance(outcome, SweepPointError):
                raise AnalysisError(
                    f"sweep point {outcome.params} failed "
                    f"({outcome.kind}): {outcome.message}"
                )

    def to_dict(self) -> dict[str, Any]:
        return {
            "points": len(self.grid),
            "completed": self.completed,
            "errors": [e.to_dict() for e in self.errors],
        }

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, index):
        return self.outcomes[index]

    def __repr__(self) -> str:
        return (
            f"SweepRun(points={len(self.grid)}, completed={self.completed}, "
            f"failed={len(self.errors)})"
        )


class SweepExecutor:
    """Fault-tolerant, observable sweep execution over a parameter grid.

    Parameters
    ----------
    workers:
        ``None`` or ``0`` evaluates serially in-process; ``n >= 1`` fans
        out over a process pool of *n* workers, one point per task and at
        most one in-flight task per worker, so per-point timeouts track
        execution time.
    retries:
        Extra attempts for transient (non-library) failures per point.
    backoff:
        Base delay in seconds before a retry; doubles per attempt.
    timeout:
        Per-point wall-clock budget in seconds, measured from
        submission to a worker (``None`` disables; serial evaluation is
        not preemptible and ignores it).
    max_respawns:
        How many times a broken pool is respawned before giving up.
    tracer / metrics:
        Optional observability sinks (see :mod:`repro.obs`).
    point_fn:
        Pool-side evaluation callable ``(sdfg_text, params, line_size,
        capacity_lines, include_transients)``; defaults to
        :func:`_worker_evaluate_shipping`.  Must be picklable.  The
        in-process paths never use it: they evaluate through the
        callable :meth:`run` is given.
    adaptive:
        With ``adaptive=True`` (and ``workers`` set), the executor
        measures the first grid point in-process and only spawns a pool
        when the predicted pool time — :data:`POOL_OVERHEAD` plus the
        per-point cost over the effectively usable workers (at most the
        CPUs in the process's affinity mask) — beats finishing the
        remaining points serially.  Cheap grids therefore never pay pool
        startup + pickling (the ``sweep_8pt`` regression: pooled sweeps
        *losing* 0.91x to serial).  Off by default so direct executor
        users keep deterministic pool behaviour.
    """

    def __init__(
        self,
        workers: int | None = None,
        retries: int = 2,
        backoff: float = 0.05,
        timeout: float | None = None,
        max_respawns: int = 2,
        tracer=None,
        metrics=None,
        point_fn: Callable | None = None,
        adaptive: bool = False,
        breaker=None,
    ):
        self.workers = workers
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.timeout = timeout
        self.max_respawns = int(max_respawns)
        self.tracer = tracer
        self.metrics = metrics
        self.point_fn = point_fn
        self.adaptive = bool(adaptive)
        #: Optional :class:`~repro.resilience.breaker.CircuitBreaker`
        #: guarding the pool path.  Shared across runs (a session passes
        #: its long-lived breaker), so a pool that keeps dying stops
        #: being retried on every sweep: while the breaker is open the
        #: executor goes straight to serial evaluation, and a half-open
        #: probe re-tries the pool once per cooldown.
        self.breaker = breaker

    # -- observability helpers ---------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)

    def _observe(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value)

    def _record_point(
        self,
        params: Mapping[str, int],
        index: int,
        attempts: int,
        seconds: float,
        error: SweepPointError | None = None,
    ) -> None:
        if self.tracer is None:
            return
        span = self.tracer.record(
            "sweep.point",
            seconds,
            params=dict(params),
            index=index,
            attempts=attempts,
        )
        if error is not None:
            span.set(kind=error.kind)
            span.fail(f"{error.error_type}: {error.message}")

    # -- public API --------------------------------------------------------
    def run(
        self,
        points: Sequence[Any],
        evaluate: Callable[[Any], Any],
        cancel: CancelToken | None = None,
        on_result: Callable[[int, Any], None] | None = None,
    ) -> SweepRun:
        """Evaluate every point; return grid-ordered outcomes.

        Each point is a :class:`~repro.passes.base.PassContext` (or
        anything with its ``sdfg``, ``env``, ``line_size``,
        ``capacity_lines`` and ``include_transients``): ``env`` is the
        grid point, and its program and cache model are what a worker
        evaluates.  *evaluate* evaluates one point in process — on the
        serial path, for the adaptive probe and in the serial fallback.
        *on_result* is called as ``on_result(index, outcome)`` for every
        finished point (it may call ``cancel.cancel()``).
        """
        grid = [dict(point.env) for point in points]

        def evaluate_at(index: int) -> Any:
            return evaluate(points[index])

        self._count("sweep.points", len(grid))
        span = (
            self.tracer.span("sweep.run", points=len(grid), workers=self.workers)
            if self.tracer is not None
            else nullcontext()
        )
        with span as active_span:
            if not grid:
                return SweepRun([], [])
            use_pool = (
                self.workers is not None and self.workers >= 1 and len(grid) > 1
            )
            outcomes: list | None = None
            if use_pool and self.adaptive and not (
                cancel is not None and cancel.cancelled
            ):
                # Probe: evaluate the first point in-process (it counts as
                # a real result) and decide from its measured cost whether
                # the pool can possibly pay for itself.
                outcomes = [None] * len(grid)
                use_pool = self._probe_and_choose(
                    evaluate_at, grid, on_result, outcomes
                )
                if active_span is not None:
                    active_span.set(adaptive="pool" if use_pool else "serial")
                self._count(
                    "sweep.adaptive.pool_chosen"
                    if use_pool
                    else "sweep.adaptive.serial_chosen"
                )
            # Asked only for a run that will use the pool: a half-open
            # breaker's one probe must end in a verdict.
            if use_pool and self.breaker is not None and not self.breaker.allow():
                # The pool breaker is open: degrade to serial without
                # paying the spawn-and-die cycle again this run.
                self._count("sweep.breaker.skipped_pool")
                use_pool = False
            fallback = False
            if use_pool:
                outcomes, failed = self._run_pool(
                    points, grid, cancel, on_result, outcomes=outcomes
                )
                if self.breaker is not None:
                    if failed:
                        self.breaker.record_failure()
                    else:
                        self.breaker.record_success()
                fallback = any(outcome is None for outcome in outcomes)
                if fallback:
                    # The one serial fallback (module docstring).
                    self._count("sweep.serial_fallbacks")
            if not use_pool or fallback:
                outcomes = self._run_serial(
                    evaluate_at, grid, cancel, on_result, outcomes=outcomes
                )
        return SweepRun(grid, outcomes)

    # -- adaptive serial-vs-pool choice -------------------------------------
    def _probe_and_choose(self, evaluate_at, grid, on_result, outcomes) -> bool:
        """Evaluate ``grid[0]`` serially into ``outcomes[0]``; return
        whether the remaining points should go to a pool."""
        start = perf_counter()
        outcome = self._evaluate_serial(evaluate_at, grid[0], 0)
        t_point = perf_counter() - start
        outcomes[0] = outcome
        self._count(
            "sweep.failed" if isinstance(outcome, SweepPointError)
            else "sweep.completed"
        )
        if on_result is not None:
            on_result(0, outcome)
        if self.metrics is not None:
            self.metrics.gauge("sweep.adaptive.point_seconds").set(t_point)
        return self._choose_pool(t_point, len(grid) - 1)

    def _choose_pool(self, t_point: float, remaining: int) -> bool:
        """Predicted-cost comparison: is a pool worth it for *remaining*
        points that each take ``t_point`` seconds serially?"""
        if remaining <= 0 or self.workers is None or self.workers < 1:
            return False
        effective = max(1, min(int(self.workers), _usable_cores(), remaining))
        if effective <= 1:
            return False  # no real parallelism: the pool only adds overhead
        serial_s = t_point * remaining
        pool_s = POOL_OVERHEAD + t_point * math.ceil(remaining / effective)
        return pool_s < serial_s

    # -- serial path -------------------------------------------------------
    def _run_serial(
        self,
        evaluate_at,
        grid: list[dict],
        cancel: CancelToken | None,
        on_result,
        outcomes: list | None = None,
    ) -> list:
        if outcomes is None:
            outcomes = [None] * len(grid)
        for index, params in enumerate(grid):
            if outcomes[index] is not None:
                continue  # already finished by a pool run that went away
            if cancel is not None and cancel.cancelled:
                remaining = [
                    j for j in range(index, len(grid)) if outcomes[j] is None
                ]
                for j in remaining:
                    outcomes[j] = SweepPointError(
                        grid[j], "cancelled", None, cancel.message(), 0
                    )
                self._count("sweep.cancelled", len(remaining))
                break
            outcome = self._evaluate_serial(evaluate_at, params, index)
            outcomes[index] = outcome
            if isinstance(outcome, SweepPointError):
                self._count("sweep.failed")
            else:
                self._count("sweep.completed")
            if on_result is not None:
                on_result(index, outcome)
        return outcomes

    def _evaluate_serial(self, evaluate_at, params: dict, index: int):
        attempts = 0
        while True:
            attempts += 1
            start = perf_counter()
            _chaos("eval.slow")
            try:
                _chaos("eval.error")
                point = evaluate_at(index)
            except ReproError as exc:
                # Deterministic library error: retrying only repeats the
                # failure, so record it immediately.
                error = SweepPointError(
                    params, "error", type(exc).__name__, str(exc), attempts
                )
            except Exception as exc:  # noqa: BLE001 — fault barrier: unknown errors become records/retries
                if attempts <= self.retries:
                    self._count("sweep.retries")
                    time.sleep(self.backoff * (2 ** (attempts - 1)))
                    continue
                error = SweepPointError(
                    params, "error", type(exc).__name__, str(exc), attempts
                )
            else:
                seconds = perf_counter() - start
                self._record_point(params, index, attempts, seconds)
                self._observe("sweep.point_seconds", seconds)
                return point
            self._record_point(params, index, attempts, perf_counter() - start, error)
            return error

    # -- pool path ---------------------------------------------------------
    def _spawn_pool(self, nworkers: int) -> ProcessPoolExecutor:
        try:
            _chaos("pool.spawn")
            pool = ProcessPoolExecutor(max_workers=nworkers)
        except (ImportError, NotImplementedError, OSError, PermissionError,
                RuntimeError, ValueError) as exc:
            raise _PoolUnavailable(f"cannot spawn worker pool: {exc}") from exc
        self._count("sweep.pool_spawns")
        return pool

    def _run_pool(
        self,
        points: Sequence[Any],
        grid: list[dict],
        cancel: CancelToken | None,
        on_result,
        outcomes: list | None = None,
    ) -> tuple[list, bool]:
        """Evaluate the points without an outcome on the pool, one point
        per task, under the module's crash rule.

        Returns the outcomes (``None`` where a point has none) and whether
        the pool failed the run: it was given up, or points are left
        without an outcome for the serial fallback.
        """
        # Workers run the pass pipeline.  Import it before the pool forks
        # so every worker inherits it instead of importing it itself.
        import repro.passes  # noqa: F401
        from repro.sdfg.serialize import dumps

        fn = self.point_fn or _worker_evaluate_shipping
        #: Each distinct program's text, serialized once per run.
        texts: dict[int, str] = {}
        n = len(grid)
        # Slots already filled (e.g. the adaptive probe) are kept as-is
        # and never resubmitted.
        if outcomes is None:
            outcomes = [None] * n
        attempts = [0] * n
        #: Attempts of each point that broke the pool as the only point
        #: in flight.
        deaths = [0] * n
        todo: deque[int] = deque(i for i in range(n) if outcomes[i] is None)
        nworkers = min(int(self.workers), max(1, len(todo)))
        #: In-flight tasks: future -> (point index, submission time).
        pending: dict[Future, tuple[int, float]] = {}
        retry_at: list[tuple[float, int]] = []
        #: Points lost in a break: each runs with no other point in flight.
        suspects: set[int] = set()
        respawns = 0
        returned = False
        gave_up = False
        pool: ProcessPoolExecutor | None = None

        def task_item(index: int) -> tuple:
            """*fn*'s arguments for point *index*: its own program's text,
            its parameters and its cache model."""
            point = points[index]
            text = texts.get(id(point.sdfg))
            if text is None:
                text = texts[id(point.sdfg)] = dumps(point.sdfg, indent=None)
            return (
                text, grid[index], point.line_size, point.capacity_lines,
                point.include_transients,
            )

        def finish(index: int, outcome, seconds: float = 0.0) -> None:
            outcomes[index] = outcome
            if isinstance(outcome, SweepPointError):
                self._count("sweep.failed")
                self._record_point(
                    grid[index], index, attempts[index], seconds, outcome
                )
            else:
                self._count("sweep.completed")
                self._record_point(grid[index], index, attempts[index], seconds)
                self._observe("sweep.point_seconds", seconds)
            if on_result is not None:
                on_result(index, outcome)

        def fail(index: int, kind: str, error_type: str | None, message: str,
                 seconds: float = 0.0) -> None:
            finish(
                index,
                SweepPointError(
                    grid[index], kind, error_type, message, attempts[index]
                ),
                seconds,
            )

        def deliver(index: int, result, submitted: float) -> None:
            """Finish a point whose task came back from a worker."""
            nonlocal returned
            returned = True
            seconds = time.monotonic() - submitted
            if isinstance(result, _LibraryError):
                fail(index, "error", result.error_type, result.message, seconds)
            else:
                finish(index, result, seconds)

        def retry(index: int) -> bool:
            """Schedule another attempt of a point after its backoff, if
            it has one left."""
            if attempts[index] > self.retries:
                return False
            self._count("sweep.retries")
            # Crash retries back off like any other transient failure: a
            # point that keeps killing its worker should not hammer the
            # freshly respawned pool.
            retry_at.append((
                time.monotonic() + self.backoff * (2 ** (attempts[index] - 1)),
                index,
            ))
            return True

        def lost_in_break(lost: list[int]) -> None:
            """Charge a break to the points that were in flight."""
            if len(lost) == 1:
                # Alone in flight: the attempt died with its worker.
                deaths[lost[0]] += 1
                retry(lost[0])
            else:
                # Charged to none of them: each reruns alone, first.
                for index in sorted(lost, reverse=True):
                    attempts[index] -= 1
                    todo.appendleft(index)
            suspects.update(lost)

        def may_submit() -> bool:
            """Whether ``todo[0]`` may go in flight: a worker is free, and
            no suspect would be in flight with another point."""
            if not todo or len(pending) >= nworkers:
                return False
            if not pending or not suspects:
                return True
            return todo[0] not in suspects and not any(
                index in suspects for index, _ in pending.values()
            )

        try:
            while todo or retry_at or pending:
                # Cooperative cancellation at the next wave boundary.
                if cancel is not None and cancel.cancelled:
                    for future in pending:
                        future.cancel()
                    remaining = (
                        [index for index, _ in pending.values()]
                        + list(todo)
                        + [index for _, index in retry_at]
                    )
                    pending.clear()
                    for index in remaining:
                        fail(index, "cancelled", None, cancel.message())
                    self._count("sweep.cancelled", len(remaining))
                    break
                # Backoff delays that have elapsed become submittable again.
                now = time.monotonic()
                due = [index for when, index in retry_at if when <= now]
                if due:
                    retry_at = [(w, i) for w, i in retry_at if w > now]
                    todo.extend(due)
                # Keep at most one in-flight task per worker so a timeout
                # measures execution, not queueing.
                broken = False
                lost: list[int] = []
                while may_submit():
                    if pool is None:
                        pool = self._spawn_pool(nworkers)
                    index = todo.popleft()
                    attempts[index] += 1
                    try:
                        future = pool.submit(
                            _worker_evaluate_point, fn, task_item(index)
                        )
                    except (BrokenProcessPool, RuntimeError):
                        attempts[index] -= 1
                        todo.appendleft(index)
                        broken = True
                        break
                    pending[future] = (index, time.monotonic())
                if not broken:
                    if not pending:
                        # Only backoffs are left: wait out the first.
                        time.sleep(max(
                            0.0, min(w for w, _ in retry_at) - time.monotonic()
                        ))
                        continue
                    done, _ = wait(
                        set(pending), timeout=0.05, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        index, submitted = pending.pop(future)
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            broken = True
                            lost.append(index)
                        except pickle.PicklingError as exc:
                            raise _PoolUnavailable(
                                f"sweep payload does not pickle: {exc}"
                            ) from exc
                        except Exception as exc:  # noqa: BLE001 — fault barrier: unknown errors become records/retries
                            # The worker survived the point: a transient
                            # failure follows retry/backoff.
                            returned = True
                            if not retry(index):
                                fail(
                                    index, "error", type(exc).__name__, str(exc),
                                    time.monotonic() - submitted,
                                )
                        else:
                            deliver(index, result, submitted)
                # A broken pool poisons every in-flight future: drain them,
                # and resubmit only the unfinished points to a new pool.
                if broken:
                    self._count("sweep.pool_respawns")
                    respawns += 1
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    for future, (index, submitted) in pending.items():
                        # Salvage results that completed before the break so
                        # finished points are never recomputed.
                        if (
                            future.done()
                            and not future.cancelled()
                            and future.exception() is None
                        ):
                            deliver(index, future.result(), submitted)
                        else:
                            lost.append(index)
                    pending.clear()
                    lost_in_break(lost)
                    if respawns > self.max_respawns:
                        raise _PoolUnavailable("worker pool kept dying")
                # Per-point timeout: abandon futures past their budget.
                if self.timeout is not None:
                    now = time.monotonic()
                    for future, (index, submitted) in list(pending.items()):
                        if now - submitted > self.timeout:
                            future.cancel()
                            del pending[future]
                            self._count("sweep.timeouts")
                            fail(
                                index, "timeout", "TimeoutError",
                                f"point exceeded {self.timeout:g}s",
                                now - submitted,
                            )
        except _PoolUnavailable:
            gave_up = True
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        if returned:
            # The pool works, so a point that broke it alone killed its
            # worker.
            for index in range(n):
                if outcomes[index] is None and deaths[index]:
                    fail(index, "crash", "BrokenProcessPool", "worker process died")
        return outcomes, gave_up or any(o is None for o in outcomes)


#: ``store.get`` default marking a miss (a stored point is never this).
_ABSENT = object()


def _unpooled(outcome: Any) -> Any:
    return outcome.point if isinstance(outcome, PooledPoint) else outcome


def sweep_points(
    pipeline,
    points: Sequence[Any],
    executor: SweepExecutor,
    cancel: CancelToken | None = None,
    on_result: Callable[[int, Any], None] | None = None,
) -> list:
    """The pass pipeline's ``local.point`` at every point, in grid order.

    The one evaluation path for a batch of local-view points:
    ``Session.sweep`` and the tuner both come here.  *points* holds one
    :class:`~repro.passes.base.PassContext` per grid point, each over the
    program that point evaluates; *pipeline* owns the store.

    1. A point whose ``local.point`` is stored is answered from the store.
    2. A point whose capacity-independent ``local.analytic`` product is
       stored only classifies: it is evaluated here, in process, so the
       executor (and its adaptive probe) sees only points that need the
       engine.
    3. The rest go to *executor*.  It evaluates in process through
       *pipeline*, or ships each point's program to its workers.
    4. A pooled point's ``local.analytic`` product and the point itself
       enter the store (and through it any disk tier), and the product's
       regions are counted, so a pooled sweep leaves the store and the
       locality counters as a serial one would.

    Returns one outcome per point: the evaluated point or a
    :class:`SweepPointError`.  *on_result* is called as
    ``on_result(index, outcome)`` as each point finishes, including
    points served from the store.  Spans (``sweep``, ``fanout``,
    ``merge``) and counters go to *executor*'s tracer and metrics.
    """
    from repro.passes.local_passes import count_locality

    store = pipeline.store
    count = executor._count
    out: list[Any] = [None] * len(points)

    def deliver(index: int, outcome: Any) -> None:
        out[index] = outcome
        if on_result is not None:
            on_result(index, outcome)

    def evaluate(ctx) -> Any:
        # The point's ``seconds`` count from here, not from when it was keyed.
        ctx.created_at = perf_counter()
        return pipeline.run("local.point", ctx)

    with maybe_span(executor.tracer, "sweep") as span:
        span.set(points=len(points))
        # Content-addressed: embeds the graph/descriptor fingerprints, so
        # an in-place transform can never serve a stale point.
        keys = [pipeline.key("local.point", ctx) for ctx in points]
        missing: list[int] = []
        for index, key in enumerate(keys):
            point = store.get(key, _ABSENT)
            if point is _ABSENT:
                missing.append(index)
            else:
                deliver(index, point)
        count("sweep.cache_hits", len(points) - len(missing))
        dispatched: list[int] = []
        for index in missing:
            ctx = points[index]
            if not store.contains(pipeline.key("local.analytic", ctx)):
                dispatched.append(index)
                continue
            if cancel is not None and cancel.cancelled:
                outcome = SweepPointError(
                    ctx.env, "cancelled", None, cancel.message(), 0
                )
                count("sweep.cancelled")
            else:
                try:
                    outcome = evaluate(ctx)
                except Exception as exc:  # noqa: BLE001 — fault barrier, as in the executor
                    outcome = SweepPointError(
                        ctx.env, "error", type(exc).__name__, str(exc), 1
                    )
                    count("sweep.failed")
                else:
                    count("sweep.classified")
            deliver(index, outcome)
        if dispatched:
            forward = None
            if on_result is not None:
                # Executor indices address the dispatched subgrid; remap
                # them to full-grid order for the caller.
                forward = lambda sub, outcome: on_result(  # noqa: E731
                    dispatched[sub], _unpooled(outcome)
                )
            with maybe_span(executor.tracer, "fanout"):
                run = executor.run(
                    [points[index] for index in dispatched], evaluate,
                    cancel=cancel, on_result=forward,
                )
            with maybe_span(executor.tracer, "merge"):
                for index, outcome in zip(dispatched, run.outcomes):
                    if isinstance(outcome, PooledPoint):
                        key = pipeline.key("local.analytic", points[index])
                        if not store.contains(key):
                            store.put(key, outcome.analytic)
                            count_locality(points[index].metrics, outcome.analytic)
                    out[index] = outcome = _unpooled(outcome)
                    if isinstance(outcome, SweepPointError):
                        continue
                    # Pool-evaluated points enter the store here; in-process
                    # ones are already there unless the LRU evicted them.
                    if not store.contains(keys[index]):
                        store.put(keys[index], outcome)
        if executor.metrics is not None:
            executor.metrics.gauge("cache.entries").set(len(store))
    return out
