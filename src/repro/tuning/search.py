"""Beam search over transform sequences, scored by the incremental pipeline.

The search explores sequences of content-keyed transform matches
(:mod:`repro.transforms.protocol`) over a program:

- **enumeration** — every registered transform lists its matches on each
  frontier candidate; applying one match to a *copy* of the candidate
  yields a child variant;
- **dedup** — children are deduplicated by SDFG content fingerprint
  against every variant visited so far, so commuting sequences (permute A
  then B vs. B then A) are explored once.  Each child's states are hashed
  once: the fingerprint composes from those digests, and the child's
  scoring context adopts them;
- **scoring** — each round's children are one batch of points on
  :func:`~repro.analysis.executor.sweep_points`, the path
  ``Session.sweep`` takes: a child stored in the shared session store is
  answered from it, the rest run through the shared pipeline or, when
  *workers* is set, on a process pool whose tasks each carry one
  child's program and ship its analytic product home to the store,
  under the session's pool breaker.  The objective is modeled physical movement at the given
  parameter point, so layout-only children re-score almost free (the
  logical-keyed simulation trace is a pipeline cache hit).  Ops are
  counted once per search, on the baseline: every transform preserves
  them;
- **selection** — the best *beam* children (fewest moved bytes) form the
  next frontier; the search runs until *depth* rounds, the evaluation
  *budget*, a frontier with no new children, or a cancelled token.

One signal stops a search: its :class:`~repro.analysis.executor.CancelToken`.
The wall-clock *timeout* arms that token (reason ``"timeout"``), a caller
arms it with a request :class:`~repro.resilience.deadline.Deadline`
(``"deadline"``) or cancels it outright (``"cancelled"``).  The search
reads only the token: it checks it before each round and each child, and
:func:`~repro.analysis.executor.sweep_points` checks it before each
point, so a stop lands within one point's evaluation.

Observability: one ``tune.run`` span wraps the search with one
``tune.round`` span per frontier expansion, and the metrics registry
counts ``tuning.candidates.evaluated`` / ``.deduplicated`` /
``.apply_failures`` and ``tuning.rounds``.  Progress is streamable: every
scored candidate triggers an *on_event* callback (the ``/v1/tune``
endpoint forwards these as NDJSON lines).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.executor import (
    CancelToken,
    SweepExecutor,
    SweepPointError,
    sweep_points,
)
from repro.errors import TransformError, TuningError
from repro.resilience.deadline import DEADLINE_REASON, Deadline
from repro.passes import PassContext, Pipeline, build_pipeline
from repro.sdfg.sdfg import SDFG
from repro.sdfg.serialize import sdfg_fingerprint
from repro.transforms.protocol import Match, Transform, resolve_transforms
from repro.transforms.report import TransformReport
from repro.tuning.objective import CandidateScore, MovementObjective

__all__ = ["Candidate", "TuningResult", "TuningSearch"]

#: Cancellation reason of a search's own *timeout*.
TIMEOUT_REASON = "timeout"

#: A cancelled search's ``stopped`` value by its token's reason; any
#: other reason reads ``"cancelled"``.
_STOPPED = {DEADLINE_REASON: "deadline", TIMEOUT_REASON: "timeout"}


class Candidate:
    """One explored variant: a transform sequence and its scored SDFG."""

    __slots__ = ("sequence", "sdfg", "fingerprint", "score", "round", "context")

    def __init__(
        self,
        sequence: tuple[Match, ...],
        sdfg: SDFG,
        fingerprint: str,
        score: CandidateScore | None = None,
        round: int = 0,
        context: PassContext | None = None,
    ):
        self.sequence = sequence
        self.sdfg = sdfg
        self.fingerprint = fingerprint
        self.score = score
        self.round = round
        #: The bare context *fingerprint* was computed on; the candidate's
        #: scoring context adopts its graph components.
        self.context = context

    def describe_sequence(self) -> list[dict[str, Any]]:
        return [m.to_dict() for m in self.sequence]

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "sequence": self.describe_sequence(),
            "fingerprint": self.fingerprint,
            "round": self.round,
        }
        if self.score is not None:
            out.update(self.score.to_dict())
        return out

    def __repr__(self) -> str:
        steps = " -> ".join(m.transform for m in self.sequence) or "<baseline>"
        moved = "unscored" if self.score is None else self.score.moved_bytes
        return f"Candidate({steps}, moved_bytes={moved})"


class TuningResult:
    """Outcome of one tuning search."""

    def __init__(
        self,
        baseline: Candidate,
        best: Candidate,
        trajectory: list[dict[str, Any]],
        evaluated: int,
        deduplicated: int,
        rounds: int,
        seconds: float,
        stopped: str,
        pass_hits: int,
    ):
        #: The unmodified program's candidate (empty sequence), scored.
        self.baseline = baseline
        #: The best variant found (may be the baseline).
        self.best = best
        #: One entry per scored candidate, in evaluation order — the
        #: roofline view plots this as the search trajectory.
        self.trajectory = trajectory
        self.evaluated = evaluated
        self.deduplicated = deduplicated
        self.rounds = rounds
        self.seconds = seconds
        #: Why the search ended: ``"converged"``, ``"depth"``,
        #: ``"budget"``, ``"timeout"``, ``"deadline"`` or ``"cancelled"``.
        self.stopped = stopped
        #: Pipeline pass-cache hits observed across candidate scoring.
        self.pass_hits = pass_hits

    @property
    def improvement(self) -> float:
        """Fractional movement reduction of the best variant vs. baseline."""
        base = self.baseline.score.moved_bytes if self.baseline.score else 0
        if base <= 0 or self.best.score is None:
            return 0.0
        return 1.0 - self.best.score.moved_bytes / base

    def to_dict(self) -> dict[str, Any]:
        return {
            "baseline": self.baseline.to_dict(),
            "best": self.best.to_dict(),
            "improvement": self.improvement,
            "evaluated": self.evaluated,
            "deduplicated": self.deduplicated,
            "rounds": self.rounds,
            "seconds": self.seconds,
            "stopped": self.stopped,
            "pass_hits": self.pass_hits,
            "trajectory": self.trajectory,
        }

    def __repr__(self) -> str:
        return (
            f"TuningResult(best={self.best!r}, "
            f"improvement={self.improvement:.1%}, evaluated={self.evaluated}, "
            f"stopped={self.stopped!r})"
        )


class TuningSearch:
    """Beam search over transform sequences on one program.

    Parameters
    ----------
    sdfg:
        The program to tune (never mutated: children are copies).
    params:
        Concrete simulation sizes for the local-view objective.
    transforms:
        Transform instances or registry names to search over; defaults to
        :func:`~repro.transforms.protocol.default_transforms`.
    beam:
        Frontier width — how many best candidates expand per round.
    depth:
        Maximum sequence length (rounds of expansion).
    budget:
        Maximum number of scored candidates, baseline included.
    timeout:
        Overall wall-clock budget in seconds (``None`` disables): it arms
        the run's cancel token, so it stops a round at the next point
        (``<= 0`` scores the baseline only).
    workers:
        Fan candidate evaluation out over a process pool when > 1 (its
        workers ship each child's analytic product home to the shared
        store); the in-process path (default) scores through the shared
        pipeline and benefits from cross-candidate pass caching.
    pipeline:
        The session's incremental pipeline; a private one is built when
        absent (standalone use).
    breaker:
        The pool's :class:`~repro.resilience.breaker.CircuitBreaker`; a
        session passes its own, so its sweeps and tunes share one.
    """

    def __init__(
        self,
        sdfg: SDFG,
        params: Mapping[str, int],
        transforms: Sequence[Transform | str] | None = None,
        beam: int = 6,
        depth: int = 4,
        budget: int = 512,
        line_size: int = 64,
        capacity_lines: int = 512,
        include_transients: bool = False,
        timeout: float | None = None,
        workers: int | None = None,
        pipeline: Pipeline | None = None,
        scope: tuple = (),
        tracer=None,
        metrics=None,
        breaker=None,
    ):
        if beam < 1:
            raise TuningError("beam width must be >= 1")
        if depth < 1:
            raise TuningError("search depth must be >= 1")
        if budget < 1:
            raise TuningError("evaluation budget must be >= 1")
        self.sdfg = sdfg
        self.params = dict(params)
        try:
            self.transforms = resolve_transforms(
                transforms, line_bytes=line_size
            )
        except TransformError as exc:
            raise TuningError(f"bad transform set: {exc}") from exc
        if not self.transforms:
            raise TuningError("no transforms to search over")
        self.beam = int(beam)
        self.depth = int(depth)
        self.budget = int(budget)
        self.timeout = timeout
        self.workers = workers
        self.breaker = breaker
        if pipeline is None:
            # Standalone use: a private pipeline with its own observability,
            # so pass-cache hits across candidates are still measurable.
            from repro.obs import MetricsRegistry, Tracer

            metrics = metrics if metrics is not None else MetricsRegistry()
            tracer = tracer if tracer is not None else Tracer()
            pipeline = build_pipeline(tracer=tracer, metrics=metrics)
        self.pipeline = pipeline
        self.scope = tuple(scope) if scope else (sdfg.name, "tune")
        self.tracer = tracer if tracer is not None else self.pipeline.tracer
        self.metrics = (
            metrics if metrics is not None else self.pipeline.metrics
        )
        self.objective = MovementObjective(
            self.pipeline,
            self.params,
            line_size=line_size,
            capacity_lines=capacity_lines,
            include_transients=include_transients,
            scope=self.scope,
            timings=self.tracer,
            metrics=self.metrics,
        )

    # -- observability helpers ------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)

    def _span(self, name: str, **attrs):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, **attrs)

    def _pass_hits(self) -> int:
        if self.metrics is None:
            return 0
        counters = self.metrics.to_dict()["counters"]
        return sum(
            value
            for name, value in counters.items()
            if name.startswith("pass.") and name.endswith(".hits")
        )

    # -- search ----------------------------------------------------------------
    def run(
        self,
        cancel: CancelToken | None = None,
        on_event: Callable[[dict[str, Any]], None] | None = None,
    ) -> TuningResult:
        """Run the search; returns the scored trajectory and best variant.

        The search runs under *cancel* (a fresh token when ``None``) and
        arms it with its own ``timeout`` for the run's duration.  It ends
        ``"deadline"`` when a caller's armed
        :class:`~repro.resilience.deadline.Deadline` cancels the token,
        ``"timeout"`` when the timeout does, and ``"cancelled"`` on any
        other reason; children cut off mid-round are left unscored.
        """
        token = cancel if cancel is not None else CancelToken()
        timer = None
        if self.timeout is not None:
            if self.timeout <= 0:
                token.cancel(TIMEOUT_REASON)
            else:
                timer = Deadline.after(self.timeout).arm(
                    token, reason=TIMEOUT_REASON
                )
        try:
            return self._run(token, on_event)
        finally:
            if timer is not None:
                timer.cancel()

    def _run(
        self,
        token: CancelToken,
        on_event: Callable[[dict[str, Any]], None] | None,
    ) -> TuningResult:
        start = time.monotonic()
        hits_before = self._pass_hits()

        def emit(event: dict[str, Any]) -> None:
            if on_event is not None:
                on_event(event)

        with self._span(
            "tune.run", beam=self.beam, depth=self.depth, budget=self.budget
        ):
            baseline = Candidate((), self.sdfg, sdfg_fingerprint(self.sdfg))
            baseline.score = self.objective.score(self.sdfg)
            # Every transform preserves the operation count (see
            # Transform.apply), so the baseline's is every child's.
            ops = baseline.score.ops
            evaluated = 1
            deduplicated = 0
            trajectory: list[dict[str, Any]] = [baseline.to_dict()]
            visited = {baseline.fingerprint}
            frontier = [baseline]
            best = baseline
            stopped = "depth"
            rounds = 0
            emit({
                "event": "start",
                "params": dict(self.params),
                "transforms": [t.name for t in self.transforms],
                "beam": self.beam,
                "depth": self.depth,
                "budget": self.budget,
                "baseline": baseline.to_dict(),
            })

            for round_index in range(1, self.depth + 1):
                if token.cancelled:
                    break
                if evaluated >= self.budget:
                    stopped = "budget"
                    break
                with self._span("tune.round", round=round_index):
                    children, skipped = self._expand(
                        frontier, visited, round_index,
                        limit=self.budget - evaluated, cancel=token,
                    )
                    deduplicated += skipped
                    if not children:
                        stopped = "converged"
                        break
                    rounds = round_index
                    self._count("tuning.rounds")
                    scored = self._evaluate(children, ops, cancel=token)
                    evaluated += len(scored)
                    self._count("tuning.candidates.evaluated", len(scored))
                    emit({
                        "event": "round",
                        "round": round_index,
                        "candidates": len(children),
                        "scored": len(scored),
                        "evaluated": evaluated,
                    })
                    for candidate in scored:
                        improved = (
                            best.score is None
                            or candidate.score.moved_bytes
                            < best.score.moved_bytes
                        )
                        if improved:
                            best = candidate
                        trajectory.append(candidate.to_dict())
                        emit({
                            "event": "candidate",
                            "round": round_index,
                            **candidate.to_dict(),
                            "best": improved,
                        })
                # Next frontier: the `beam` best scored children.
                scored.sort(key=lambda c: (
                    c.score.moved_bytes, len(c.sequence)
                ))
                frontier = scored[: self.beam]
                if not frontier:
                    stopped = "converged"
                    break
            if token.cancelled:
                stopped = _STOPPED.get(token.reason, "cancelled")

        seconds = time.monotonic() - start
        result = TuningResult(
            baseline=baseline,
            best=best,
            trajectory=trajectory,
            evaluated=evaluated,
            deduplicated=deduplicated,
            rounds=rounds,
            seconds=seconds,
            stopped=stopped,
            pass_hits=self._pass_hits() - hits_before,
        )
        if self.metrics is not None:
            self.metrics.gauge("tuning.best_moved_bytes").set(
                best.score.moved_bytes if best.score else 0
            )
        emit({"event": "end", **{
            k: v for k, v in result.to_dict().items() if k != "trajectory"
        }})
        return result

    def _expand(
        self,
        frontier: list[Candidate],
        visited: set[str],
        round_index: int,
        limit: int,
        cancel: CancelToken,
    ) -> tuple[list[Candidate], int]:
        """All not-yet-visited children of the frontier, up to *limit*."""
        children: list[Candidate] = []
        skipped = 0
        for parent in frontier:
            for transform in self.transforms:
                for match in transform.enumerate_matches(parent.sdfg):
                    if len(children) >= limit or cancel.cancelled:
                        return children, skipped
                    variant = parent.sdfg.copy()
                    try:
                        report = transform.apply(variant, match)
                    except TransformError:
                        self._count("tuning.apply_failures")
                        continue
                    assert isinstance(report, TransformReport)
                    context = PassContext(variant)
                    fingerprint = context.component("sdfg")
                    if fingerprint in visited:
                        skipped += 1
                        self._count("tuning.candidates.deduplicated")
                        continue
                    visited.add(fingerprint)
                    children.append(Candidate(
                        parent.sequence + (match,),
                        variant,
                        fingerprint,
                        round=round_index,
                        context=context,
                    ))
        return children, skipped

    def _evaluate(
        self, children: list[Candidate], ops: float, cancel: CancelToken
    ) -> list[Candidate]:
        """Score *children* as one sweep batch; returns the scored ones.

        Each child's scoring context adopts the graph fingerprints of the
        context it was deduplicated on.  Every score carries *ops*, the
        search's one operation count.  A child the token cut off is left
        unscored; only a child whose evaluation failed counts as failed.
        """
        points = []
        for child in children:
            ctx = self.objective.context(child.sdfg)
            ctx.adopt_components(child.context)
            points.append(ctx)
        executor = SweepExecutor(
            workers=(
                self.workers
                if self.workers is not None and self.workers > 1
                else None
            ),
            retries=1,
            tracer=self.tracer,
            metrics=self.metrics,
            breaker=self.breaker,
        )
        outcomes = sweep_points(self.pipeline, points, executor, cancel=cancel)
        scored: list[Candidate] = []
        for child, outcome in zip(children, outcomes):
            if isinstance(outcome, SweepPointError):
                if outcome.kind != "cancelled":
                    self._count("tuning.candidates.failed")
                continue
            child.score = self.objective.from_point(outcome, ops)
            scored.append(child)
        return scored
