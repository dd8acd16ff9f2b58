"""The local view's locality pipeline as chained passes.

``local.analytic`` runs the locality engine (:mod:`repro.locality`) and
is the one source of miss counts: ``local.classify`` reads them from its
product at the modeled capacity, ``local.physmove`` turns them into
bytes, and ``local.point`` assembles a sweep outcome.  The product
carries full reuse-distance histograms, so ``capacity`` keys only
classification and what follows it: a capacity re-sweep reuses the
engine's work.  An engine error propagates like any pass error.

The enumeration chain — simulation trace → physical layout → stack
distances — feeds the per-event views only (access heatmaps, playback,
related accesses, reuse distances, set-associative misses).  Its split
follows the invalidation boundaries of the interactive loop:

- changing *strides* (e.g. :func:`~repro.transforms.layout.pad_strides_to_multiple`)
  re-runs layout and everything after it, but the simulation trace —
  keyed by **logical** descriptors only — is a cache hit;
- changing a *symbol value* re-runs the whole chain, since the trace
  itself depends on the concrete sizes.

Each pass replays the legacy stage spans (``layout``, ``stackdist``,
``classify``) into the context's timings collector, so stage-level
timing consumers keep working unchanged.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

import numpy as np

from repro.analysis.parametric import LocalSweepPoint
from repro.analysis.timing import maybe_span
from repro.locality import AnalyticLocality, analyze_locality
from repro.passes.base import Pass, PassContext
from repro.simulation import MemoryModel, simulate_state
from repro.simulation.arrays import ArrayTrace, build_array_trace
from repro.simulation.simulator import SimulationResult
from repro.simulation.stackdist import stack_distances_array

__all__ = [
    "LayoutProduct",
    "DistanceProduct",
    "AnalyticPass",
    "TracePass",
    "LayoutPass",
    "StackDistancePass",
    "ClassifyPass",
    "PhysicalMovementPass",
    "SweepPointPass",
    "count_locality",
    "local_passes",
]


class LayoutProduct:
    """Physical-layout stage output: memory model plus columnar trace."""

    __slots__ = ("memory", "trace")

    def __init__(self, result: SimulationResult, memory: MemoryModel):
        self.memory = memory
        self.trace: ArrayTrace = build_array_trace(result, memory)


class DistanceProduct:
    """Stack-distance stage output: :attr:`array` holds one float64
    distance per event (``inf`` = cold)."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


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


class LayoutPass(Pass):
    """Physical memory layout + columnar trace over the simulated events."""

    name = "local.layout"
    depends_on = ("local.trace",)
    uses = ("arrays", "env", "line")

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> LayoutProduct:
        env = ctx.require_env(self.name)
        with maybe_span(ctx.timings, "layout"):
            memory = MemoryModel(ctx.sdfg, env, line_size=ctx.line_size)
            return LayoutProduct(inputs["local.trace"], memory)


class StackDistancePass(Pass):
    """LRU stack distances over the columnar trace's interleaved lines.

    No components of its own: the layout product's key already embeds
    everything the distances depend on.
    """

    name = "local.stackdist"
    depends_on = ("local.layout",)

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> DistanceProduct:
        layout: LayoutProduct = inputs["local.layout"]
        with maybe_span(ctx.timings, "stackdist"):
            return DistanceProduct(stack_distances_array(layout.trace.lines))


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
        LayoutPass(),
        StackDistancePass(),
        ClassifyPass(),
        PhysicalMovementPass(),
        SweepPointPass(),
    )
