"""Scoring candidate program variants through the incremental pipeline.

The tuner's objective is the paper's own metric: modeled **physical data
movement** at a concrete parameter point, produced by the same
content-addressed pass pipeline the interactive views query
(``local.point``).  Scoring through the *shared* pipeline is what makes
the search cheap: a layout-only variant re-keys only the layout-dependent
passes, so its expensive simulation trace is a cache hit from a
previously scored sibling.

For the roofline view the score also carries the whole-program operation
count (``global.totals``), which is invariant under every registered
transform (the :class:`~repro.transforms.protocol.Transform` contract) —
variants differ in movement, not in work, so the search trajectory moves
horizontally through the roofline's intensity axis.  A search therefore
counts ops once per search, on the baseline, and hands that count to
:meth:`MovementObjective.from_point` for every child; only the
standalone :meth:`MovementObjective.score` runs ``global.totals`` itself.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.passes import PassContext, Pipeline

__all__ = ["CandidateScore", "MovementObjective"]


class CandidateScore:
    """Locality metrics of one scored candidate variant (picklable)."""

    __slots__ = ("moved_bytes", "total_accesses", "total_misses", "ops")

    def __init__(
        self,
        moved_bytes: int,
        total_accesses: int,
        total_misses: int,
        ops: float,
    ):
        self.moved_bytes = int(moved_bytes)
        self.total_accesses = int(total_accesses)
        self.total_misses = int(total_misses)
        self.ops = float(ops)

    @property
    def intensity(self) -> float:
        """Operational intensity in ops/byte (``inf`` when nothing moves)."""
        if self.moved_bytes <= 0:
            return float("inf")
        return self.ops / self.moved_bytes

    def to_dict(self) -> dict[str, Any]:
        return {
            "moved_bytes": self.moved_bytes,
            "total_accesses": self.total_accesses,
            "total_misses": self.total_misses,
            "ops": self.ops,
            "intensity": (
                None if self.moved_bytes <= 0 else self.intensity
            ),
        }

    def __repr__(self) -> str:
        return (
            f"CandidateScore(moved_bytes={self.moved_bytes}, "
            f"misses={self.total_misses}, ops={self.ops:g})"
        )


class MovementObjective:
    """Physical-movement objective over a shared incremental pipeline.

    All candidates of one search score through the same
    :class:`~repro.passes.pipeline.Pipeline` and
    :class:`~repro.passes.store.ResultStore`; the content-addressed keys
    embed each candidate's graph and descriptor fingerprints, so a
    repeated variant is a store hit.  A candidate scores ``local.point``
    → ``local.analytic``, which is keyed by the physical descriptors:
    variants differing only in strides each run the locality engine,
    and no candidate simulates the whole trace.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        params: Mapping[str, int],
        line_size: int = 64,
        capacity_lines: int = 512,
        include_transients: bool = False,
        scope: tuple = (),
        timings=None,
        metrics=None,
    ):
        self.pipeline = pipeline
        self.params = dict(params)
        self.line_size = int(line_size)
        self.capacity_lines = int(capacity_lines)
        self.include_transients = bool(include_transients)
        self.scope = tuple(scope)
        self.timings = timings
        self.metrics = metrics

    def context(self, sdfg) -> PassContext:
        """A whole-program point context for *sdfg* under this objective."""
        return PassContext(
            sdfg,
            state=None,
            env=self.params,
            line_size=self.line_size,
            capacity_lines=self.capacity_lines,
            include_transients=self.include_transients,
            scope=self.scope,
            timings=self.timings,
            metrics=self.metrics,
        )

    def point(self, sdfg):
        """The raw ``local.point`` product for *sdfg* (a LocalSweepPoint)."""
        return self.pipeline.run("local.point", self.context(sdfg))

    def ops(self, sdfg) -> float:
        """Whole-program operation count evaluated at the point's params."""
        totals = self.pipeline.run(
            "global.totals",
            PassContext(
                sdfg, state=None, env=None, scope=self.scope,
                timings=self.timings, metrics=self.metrics,
            ),
        )
        return float(totals["ops"].evaluate(self.params))

    def score(self, sdfg) -> CandidateScore:
        """Score one candidate serially through the shared pipeline."""
        return self.from_point(self.point(sdfg), self.ops(sdfg))

    def from_point(self, point, ops: float) -> CandidateScore:
        """Combine an already-evaluated local point with an op count."""
        return CandidateScore(
            moved_bytes=point.total_moved_bytes,
            total_accesses=point.total_accesses,
            total_misses=point.total_misses,
            ops=ops,
        )
