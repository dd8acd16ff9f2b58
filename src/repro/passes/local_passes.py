"""The local view's locality pipeline as chained passes.

``local.analytic`` runs the locality engine (:mod:`repro.locality`) and
is the one locality product: ``local.classify`` reads miss counts from
it at the modeled capacity, ``local.physmove`` turns them into bytes,
``local.point`` assembles a sweep outcome, and the local view reads its
per-element counts and reuse-distance lists from it.  The product
carries full reuse-distance histograms, so ``capacity`` keys only
classification and what follows it: a capacity re-sweep reuses the
engine's work.  An engine error propagates like any pass error.

``local.trace`` simulates the whole access trace for the views that
replay events: playback, related accesses and set-associative misses.
It is keyed by **logical** descriptors only, so a stride change
(e.g. :func:`~repro.transforms.layout.pad_strides_to_multiple`) keeps it
cached, while changing a symbol value re-simulates.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.analysis.parametric import LocalSweepPoint
from repro.analysis.timing import maybe_span
from repro.locality import AnalyticLocality, analyze_locality
from repro.passes.base import Pass, PassContext
from repro.simulation import simulate_state
from repro.simulation.simulator import SimulationResult

__all__ = [
    "AnalyticPass",
    "TracePass",
    "ClassifyPass",
    "PhysicalMovementPass",
    "SweepPointPass",
    "count_locality",
    "local_passes",
]


class AnalyticPass(Pass):
    """Closed-form locality analysis: the product every miss count
    comes from.

    ``capacity`` is deliberately *not* a key component: the product
    carries full histograms, so a capacity re-sweep reuses it.  That
    holds for pooled sweeps and tunes too: pool workers return the
    product with each point, and ``sweep_points`` stores it under this
    pass's key.  An engine error propagates like any pass error.
    """

    name = "local.analytic"
    uses = ("scope", "state", "arrays", "env", "sim", "line")

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> AnalyticLocality:
        env = ctx.require_env(self.name)
        with maybe_span(ctx.timings, "locality:analytic"):
            product = analyze_locality(
                ctx.sdfg,
                env,
                state=ctx.state,
                line_size=ctx.line_size,
                include_transients=ctx.include_transients,
                timings=ctx.timings,
            )
        count_locality(ctx.metrics, product)
        return product


def count_locality(metrics, product: AnalyticLocality) -> None:
    """Count a computed product's folded and enumerated regions, and each
    enumerated region's declining guard, into *metrics* (if any).

    Called wherever a product is computed or, from a pool worker,
    brought home, so pooled and serial sweeps count alike.
    """
    if metrics is None:
        return
    metrics.counter("locality.analytic.hits").inc(product.analytic_regions)
    metrics.counter("locality.analytic.fallbacks").inc(product.fallback_regions)
    for guard, count in product.declined.items():
        metrics.counter(f"locality.fold.declined.{guard}").inc(count)


class TracePass(Pass):
    """Access-trace simulation at the context's concrete sizes.

    Keyed by **logical** descriptors: which elements a program touches,
    and in what order, is independent of how arrays are laid out in
    memory — so layout transforms leave this (dominant-cost) stage cached.
    """

    name = "local.trace"
    uses = ("scope", "state", "arrays.logical", "env", "sim")

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> SimulationResult:
        env = ctx.require_env(self.name)
        return simulate_state(
            ctx.sdfg,
            env,
            state=ctx.state,
            include_transients=ctx.include_transients,
            timings=ctx.timings,
        )


class ClassifyPass(Pass):
    """Per-container miss classification under the modeled capacity.

    Adding ``capacity`` here (and nowhere upstream) is what makes a
    capacity re-sweep reuse the analytic product: only this pass and its
    downstream re-run.
    """

    name = "local.classify"
    depends_on = ("local.analytic",)
    uses = ("line", "capacity")

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> dict:
        analytic: AnalyticLocality = inputs["local.analytic"]
        with maybe_span(ctx.timings, "classify"):
            return analytic.miss_counts(ctx.capacity_lines)


class PhysicalMovementPass(Pass):
    """Estimated physical traffic per container: misses × line size."""

    name = "local.physmove"
    depends_on = ("local.classify",)
    uses = ("line",)

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> dict[str, int]:
        return {
            name: counts.misses * ctx.line_size
            for name, counts in inputs["local.classify"].items()
        }


class SweepPointPass(Pass):
    """Assemble one :class:`LocalSweepPoint` from the analytic product,
    its classification and the physical movement."""

    name = "local.point"
    depends_on = ("local.analytic", "local.classify", "local.physmove")
    uses = ("env",)

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> LocalSweepPoint:
        env = ctx.require_env(self.name)
        return LocalSweepPoint(
            params=dict(env),
            misses=inputs["local.classify"],
            moved_bytes=inputs["local.physmove"],
            total_accesses=inputs["local.analytic"].total_events,
            seconds=perf_counter() - ctx.created_at,
        )


def local_passes() -> tuple[Pass, ...]:
    """One fresh instance of every local-view pass."""
    return (
        AnalyticPass(),
        TracePass(),
        ClassifyPass(),
        PhysicalMovementPass(),
        SweepPointPass(),
    )
