"""Session: thin facades over the incremental analysis-pass pipeline.

Since the pass refactor, :class:`Session`, :class:`GlobalView` and
:class:`LocalView` hold no analysis logic of their own: every metric
query builds a :class:`~repro.passes.base.PassContext` over the current
graph content and asks the session's
:class:`~repro.passes.pipeline.Pipeline` for the product.  Results are
memoized under content-addressed keys, so in-place transformations are
picked up automatically — the next query fingerprints the mutated graph,
misses, and recomputes exactly the affected passes.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.analysis import ParameterSweep
from repro.analysis.executor import (
    CancelToken,
    SweepExecutor,
    SweepRun,
    sweep_points,
)
from repro.analysis.parametric import (
    LocalSweepPoint,
    parameter_grid,
)
from repro.analysis.timing import maybe_span
from repro.errors import ReproError, UnknownContainerError, UnknownSymbolError
from repro.obs import MetricsRegistry, Tracer
from repro.frontend.program import Program
from repro.locality import ElementCounts, ElementMap
from repro.locality.fold import DECLINE_GUARDS
from repro.passes import (
    PassContext,
    Pipeline,
    ResultStore,
    build_pipeline,
)
from repro.passes.store import _LRUBacking
from repro.resilience.breaker import CircuitBreaker
from repro.sdfg.nodes import MapEntry
from repro.sdfg.sdfg import SDFG
from repro.storage import DEFAULT_MAX_BYTES, DiskCache, TieredBacking
from repro.sdfg.serialize import data_fingerprint, state_fingerprint
from repro.sdfg.state import SDFGState
from repro.simulation import CacheModel, MemoryModel, related_access_counts
from repro.simulation.arrays import build_array_trace, per_container_outcomes
from repro.simulation.movement import edge_physical_movement
from repro.simulation.simulator import SimulationResult
from repro.transforms.report import TransformReport
from repro.tuning import TuningResult, TuningSearch
from repro.viz.graphview import render_state
from repro.viz.heatmap import Heatmap
from repro.viz.interaction import ParameterSliders
from repro.viz.lod import FoldState
from repro.viz.overview import build_outline
from repro.viz.report import ReportBuilder
from repro.viz.containerview import render_container
from repro.viz.histogramview import render_histogram

__all__ = ["Session", "GlobalView", "LocalView", "require_symbols"]


def require_symbols(
    names: Iterable[str],
    symbols: frozenset[str],
    what: str = "parameter",
    options: frozenset[str] = frozenset(),
) -> None:
    """Raise :class:`~repro.errors.UnknownSymbolError` for the first of
    *names* that is not one of the program's *symbols*.

    The one check of the session's entry points and the analysis
    service.  *what* says where the name came from; *options* lists the
    names the caller reads itself, which the message then mentions.
    """
    for name in names:
        if name not in symbols:
            raise UnknownSymbolError(name, symbols, what, options)


class Session:
    """One analysis session over a program.

    Accepts either a :class:`~repro.frontend.program.Program` (translated
    on construction) or a ready SDFG.  The session owns one
    :class:`~repro.passes.store.ResultStore` (:attr:`store`) behind its
    pass :attr:`pipeline`, shared by every view, sweep and tune it runs;
    a hierarchical :class:`~repro.obs.trace.Tracer`; and a
    :class:`~repro.obs.metrics.MetricsRegistry` counting pass, cache
    and sweep activity.

    Store entries are keyed by *content* — graph fingerprints plus a
    scope of SDFG name and a per-session generation counter bumped by
    :meth:`load` — never by ``id()``.  CPython reuses object ids after
    garbage collection, so an id-keyed cache in a long-lived session
    that loads a second program can silently serve results computed for
    the previous one.

    With *cache_dir* (or the ``REPRO_CACHE_DIR`` environment variable)
    set, the pass store becomes persistent: results are written through
    to a crash-safe on-disk :class:`~repro.storage.diskcache.DiskCache`
    shared across processes, so a fresh session over an unchanged
    program re-analyzes from disk instead of recomputing.  Storage
    failures never break analysis — corrupt entries are quarantined and
    recomputed, and an unusable directory degrades the session to
    memory-only with one warning.
    """

    def __init__(
        self,
        program_or_sdfg: Program | SDFG,
        cache_dir: str | os.PathLike | None = None,
        cache_bytes: int | None = None,
    ):
        self._generation = 0
        self._sdfg = self._coerce(program_or_sdfg)
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        if cache_bytes is None:
            env_bytes = os.environ.get("REPRO_CACHE_BYTES", "")
            cache_bytes = int(env_bytes) if env_bytes.isdigit() else DEFAULT_MAX_BYTES
        #: One breaker shared by every sweep/tune of this session: pool
        #: failures in one request protect the next request from paying
        #: the same spawn-and-die cost (half-open probes recover).
        self.pool_breaker = CircuitBreaker(
            "pool", failure_threshold=2, reset_timeout=30.0, metrics=self.metrics
        )
        #: The persistent tier (``None`` when the session is memory-only).
        self.disk: DiskCache | None = None
        backing = _LRUBacking(256)
        if cache_dir is not None:
            self.disk = DiskCache(
                cache_dir,
                max_bytes=cache_bytes,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            backing = TieredBacking(backing, self.disk)
        #: The session's one result cache: content-addressed pass
        #: results in memory, written through to :attr:`disk` if set.
        self.store = ResultStore(backing=backing)
        self.pipeline = build_pipeline(
            store=self.store, tracer=self.tracer, metrics=self.metrics
        )

    @staticmethod
    def _coerce(program_or_sdfg: Program | SDFG) -> SDFG:
        if isinstance(program_or_sdfg, Program):
            return program_or_sdfg.to_sdfg()
        if isinstance(program_or_sdfg, SDFG):
            return program_or_sdfg
        raise ReproError(
            f"Session expects a Program or SDFG, got {type(program_or_sdfg).__name__}"
        )

    @property
    def sdfg(self) -> SDFG:
        return self._sdfg

    @sdfg.setter
    def sdfg(self, program_or_sdfg: Program | SDFG) -> None:
        self.load(program_or_sdfg)

    def load(self, program_or_sdfg: Program | SDFG) -> SDFG:
        """Load another program into this session.

        Bumps the cache generation, so entries computed for the previous
        program can never be served for the new one — even when CPython
        hands the new SDFG (or its states) the recycled ``id`` of the
        old one.  The generation is part of every content key's scope,
        so the bump also invalidates *disk*-cache hits: entries written
        before the load are simply never addressed again (the shared
        directory itself is left untouched — other processes may still
        be using it).
        """
        self._sdfg = self._coerce(program_or_sdfg)
        self._generation += 1
        self.store.clear()  # memory tier only; disk invalidates by scope
        return self._sdfg

    def _cache_scope(self) -> tuple:
        """Stable, content-based key prefix for session store entries."""
        return (self._sdfg.name, self._generation)

    def _require_symbols(self, names: Iterable[str]) -> None:
        """:func:`require_symbols` against the current program.

        Every declared symbol that no map binds is free, so when every
        name is one of those the free-symbol walk (0.3 ms on hdiff,
        1.5 ms on BERT) is skipped and a warm call stays cheap.
        """
        names = list(names)
        sdfg = self._sdfg
        if sdfg.symbols.issuperset(names) and sdfg.map_params().isdisjoint(names):
            return
        require_symbols(names, sdfg.free_symbols())

    def global_view(self, state: SDFGState | None = None) -> "GlobalView":
        """Open the global (whole-program) analysis view."""
        return GlobalView(
            self.sdfg,
            state or self.sdfg.start_state,
            pipeline=self.pipeline,
            scope=self._cache_scope(),
            timings=self.tracer,
        )

    def local_view(
        self,
        symbols: Mapping[str, int],
        state: SDFGState | None = None,
        line_size: int = 64,
        capacity_lines: int = 512,
        include_transients: bool = False,
    ) -> "LocalView":
        """Open the local (parameterized close-up) view.

        *symbols* are the small simulation sizes; *line_size* and
        *capacity_lines* parameterize the cache model (both adjustable
        later via :attr:`LocalView.cache`).  Views share the session's
        pipeline and store, so revisiting a parameter point reuses the
        previous simulation.  A name that is not a program symbol raises
        :class:`~repro.errors.UnknownSymbolError`.
        """
        self._require_symbols(symbols)
        return LocalView(
            self.sdfg,
            symbols,
            state or self.sdfg.start_state,
            line_size=line_size,
            capacity_lines=capacity_lines,
            include_transients=include_transients,
            timings=self.tracer,
            scope=self._cache_scope(),
            pipeline=self.pipeline,
        )

    def point_context(
        self,
        params: Mapping[str, int],
        line_size: int = 64,
        capacity_lines: int = 512,
        include_transients: bool = False,
        base: PassContext | None = None,
    ) -> PassContext:
        """A whole-program :class:`~repro.passes.base.PassContext` for one
        parameter point, suitable for :meth:`product_key` and
        :meth:`~repro.passes.pipeline.Pipeline.run`.

        Passing a previous context as *base* shares its already-computed
        graph fingerprints (valid while the SDFG is unchanged — the
        long-lived analysis service chains its contexts this way so a
        warm request never re-hashes the graph).  Only graph content is
        shared: *base* may have any environment and cache model.

        A name in *params* that is not a program symbol raises
        :class:`~repro.errors.UnknownSymbolError`.
        """
        self._require_symbols(params)
        return self._point_context(
            params, line_size, capacity_lines, include_transients, base
        )

    def _point_context(
        self,
        params: Mapping[str, int],
        line_size: int,
        capacity_lines: int,
        include_transients: bool,
        base: PassContext | None,
    ) -> PassContext:
        """:meth:`point_context` for names the caller already checked."""
        ctx = PassContext(
            self.sdfg,
            state=None,
            env=params,
            line_size=line_size,
            capacity_lines=capacity_lines,
            include_transients=include_transients,
            scope=self._cache_scope(),
            timings=self.tracer,
            metrics=self.metrics,
        )
        if base is not None:
            ctx.adopt_components(base)
        return ctx

    def product_key(self, product: str, ctx: PassContext) -> tuple:
        """The content-addressed pipeline key of *product* under *ctx*.

        Computable without running any pass — the analysis service
        derives HTTP ``ETag`` values and request-coalescing keys from it.
        """
        return self.pipeline.key(product, ctx)

    def sweep(
        self,
        params_grid: Mapping[str, Iterable[int]] | Sequence[Mapping[str, int]],
        workers: int | None = None,
        line_size: int = 64,
        capacity_lines: int = 512,
        include_transients: bool = False,
        on_error: str = "raise",
        retries: int = 2,
        timeout: float | None = None,
        cancel: CancelToken | None = None,
        adaptive: bool = True,
        on_result: Callable[[int, Any], None] | None = None,
        base: PassContext | None = None,
    ) -> list[LocalSweepPoint] | SweepRun:
        """Run the local-view locality pipeline over a parameter grid.

        *params_grid* is either a mapping of per-parameter value lists
        (expanded to their cross product) or an explicit sequence of
        parameter points.  The grid takes
        :func:`~repro.analysis.executor.sweep_points`, the one path of
        every batch of local-view points (the tuner's too): with
        ``workers > 1``, points that need the analytic engine fan out over
        worker processes via the fault-tolerant
        :class:`~repro.analysis.executor.SweepExecutor`; results always
        come back in grid order.  Every successfully evaluated point is
        a ``local.point`` entry of the session store (memory, then disk
        when a cache directory is set), so re-sweeping (or sweeping a
        refined grid) only pays for new points — including after a
        partial failure, where completed points are never re-run.

        A point's ``local.analytic`` product does not depend on the
        cache capacity.  Pool workers return it with the point and it
        enters the store too, so a pooled sweep leaves the store as a
        serial one would.  A point whose product is stored is answered
        in process, before the executor runs: re-sweeping a grid at
        another capacity only classifies.

        *on_error* selects the failure contract:

        - ``"raise"`` (default) — any failed point raises
          :class:`~repro.errors.AnalysisError` naming its parameters
          (after the rest of the grid finished and was cached);
        - ``"record"`` — return a
          :class:`~repro.analysis.executor.SweepRun` whose grid-ordered
          outcomes mix evaluated points with structured
          :class:`~repro.analysis.executor.SweepPointError` records.

        *retries*, *timeout* and *cancel* are forwarded to the executor
        (transient-failure retries, per-point timeout in seconds, and a
        cooperative :class:`~repro.analysis.executor.CancelToken`).

        ``adaptive=True`` (default) times the first point that needs
        the analytic engine serially and only spawns a worker pool when
        the measured per-point cost predicts a wall-clock win over
        finishing serially — cheap grids never pay pool startup.  Pass
        ``adaptive=False`` to restore the unconditional pool behaviour.

        *on_result* is called as ``on_result(index, outcome)`` — with
        *index* in grid order — as each point finishes, including points
        served from the store.  The analysis service streams sweep
        progress events from this hook.

        *base* shares a previous context's graph fingerprints with the
        grid's points, as in :meth:`point_context`; the service hands in
        the context it already keyed, so a sweep does not hash the
        unchanged SDFG again.

        A grid name that is not a program symbol raises
        :class:`~repro.errors.UnknownSymbolError` before any point runs.
        """
        if on_error not in ("raise", "record"):
            raise ReproError(
                f"unknown on_error mode {on_error!r}; choose 'raise' or 'record'"
            )
        if isinstance(params_grid, Mapping):
            grid = parameter_grid(params_grid)
        else:
            grid = [dict(point) for point in params_grid]

        # One check for the whole grid, before any point runs.
        self._require_symbols(dict.fromkeys(n for params in grid for n in params))
        points: list[PassContext] = []
        for params in grid:
            # All points share the graph fingerprints; only ``env`` differs.
            ctx = self._point_context(
                params,
                line_size,
                capacity_lines,
                include_transients,
                base=points[0] if points else base,
            )
            # Keyed as it is made, so the first context's graph
            # fingerprints are there for the rest to adopt.
            self.pipeline.key("local.point", ctx)
            points.append(ctx)
        executor = SweepExecutor(
            workers=None if workers is None or workers <= 1 else workers,
            retries=retries,
            timeout=timeout,
            tracer=self.tracer,
            metrics=self.metrics,
            adaptive=adaptive,
            breaker=self.pool_breaker,
        )
        run = SweepRun(grid, sweep_points(
            self.pipeline, points, executor, cancel=cancel, on_result=on_result
        ))
        if on_error == "record":
            return run
        run.raise_on_error()
        return run.points  # type: ignore[return-value]

    def apply(self, transform: Any, *args, **kwargs) -> TransformReport:
        """Apply a transformation and report what it modified.

        *transform* is either an object with an ``apply()`` method (e.g. a
        matched :class:`~repro.transforms.map_fusion.MapFusion`) or any
        callable that mutates the SDFG; positional/keyword arguments are
        forwarded.  When the transform does not return a
        :class:`~repro.transforms.report.TransformReport` itself, one is
        derived by diffing content fingerprints around the call.

        Correctness never depends on going through this method — the
        content-addressed pass store observes mutations on the next query
        regardless — but reports applied here are attached to the
        pipeline's invalidation records, so :meth:`pass_report` can name
        the transform that caused each recomputation.
        """
        states_before = {
            s.name: state_fingerprint(s) for s in self._sdfg.states()
        }
        arrays_before = {
            n: data_fingerprint(d) for n, d in self._sdfg.arrays.items()
        }
        logical_before = {
            n: data_fingerprint(d, logical=True)
            for n, d in self._sdfg.arrays.items()
        }
        if hasattr(transform, "apply"):
            name = type(transform).__name__
            outcome = transform.apply(*args, **kwargs)
        else:
            name = getattr(transform, "__name__", type(transform).__name__)
            outcome = transform(*args, **kwargs)
        if isinstance(outcome, TransformReport):
            report = outcome
        else:
            states_after = {
                s.name: state_fingerprint(s) for s in self._sdfg.states()
            }
            arrays_after = {
                n: data_fingerprint(d) for n, d in self._sdfg.arrays.items()
            }
            logical_after = {
                n: data_fingerprint(d, logical=True)
                for n, d in self._sdfg.arrays.items()
            }
            changed_states = tuple(sorted(
                n
                for n in set(states_before) | set(states_after)
                if states_before.get(n) != states_after.get(n)
            ))
            changed_arrays = tuple(sorted(
                n
                for n in set(arrays_before) | set(arrays_after)
                if arrays_before.get(n) != arrays_after.get(n)
            ))
            layout_only = (
                bool(changed_arrays)
                and not changed_states
                and all(
                    logical_before.get(n) == logical_after.get(n)
                    for n in changed_arrays
                )
            )
            report = TransformReport(
                name,
                modified_states=changed_states,
                modified_arrays=changed_arrays,
                layout_only=layout_only,
            )
        self.pipeline.note_transform(report.describe())
        return report

    def tune(
        self,
        params: Mapping[str, int],
        transforms: Sequence[Any] | None = None,
        beam: int = 6,
        depth: int = 4,
        budget: int = 512,
        line_size: int = 64,
        capacity_lines: int = 512,
        include_transients: bool = False,
        timeout: float | None = None,
        workers: int | None = None,
        cancel: CancelToken | None = None,
        on_event: Callable[[dict[str, Any]], None] | None = None,
    ) -> TuningResult:
        """Search transform sequences minimizing modeled data movement.

        Runs :class:`~repro.tuning.search.TuningSearch` over the current
        program through *this session's* pipeline, so candidate scoring
        shares the pass cache with every interactive query made so far
        (and vice versa: the winning variant's analyses are warm).

        The session's SDFG is never mutated — candidates are copies.  To
        adopt the winner, ``session.load(result.best.sdfg)``.  A name in
        *params* that is not a program symbol raises
        :class:`~repro.errors.UnknownSymbolError`.

        *cancel* is the run's one stop signal: the search arms it with
        *timeout*, and a caller bounds the run by arming it with a
        :class:`~repro.resilience.deadline.Deadline` (``stopped`` then
        reads ``"deadline"``) or by cancelling it.
        """
        self._require_symbols(params)
        search = TuningSearch(
            self._sdfg,
            params,
            transforms=transforms,
            beam=beam,
            depth=depth,
            budget=budget,
            line_size=line_size,
            capacity_lines=capacity_lines,
            include_transients=include_transients,
            timeout=timeout,
            workers=workers,
            pipeline=self.pipeline,
            scope=self._cache_scope() + ("tune",),
            tracer=self.tracer,
            metrics=self.metrics,
            breaker=self.pool_breaker,
        )
        return search.run(cancel=cancel, on_event=on_event)

    def pass_report(self) -> str:
        """Per-pass timings, cache hits/misses, and invalidation reasons."""
        lines = [self.pipeline.report()]
        folded = self.metrics.counter("locality.analytic.hits").value
        fallbacks = self.metrics.counter("locality.analytic.fallbacks").value
        if folded or fallbacks:
            lines.append(
                f"analytic locality: {folded} region(s) folded closed-form, "
                f"{fallbacks} enumerated (fallback)"
            )
            counters = self.metrics.to_dict()["counters"]
            counts = [
                (guard, counters.get(f"locality.fold.declined.{guard}", 0))
                for guard in DECLINE_GUARDS
            ]
            declined = ", ".join(f"{guard} {n}" for guard, n in counts if n)
            if declined:
                lines.append(f"  fold declined by: {declined}")
        info = self.cache_info()
        lines.append(
            f"result store: {info['entries']}/{info['maxsize']} entries, "
            f"{info['hits']} hits, {info['misses']} misses"
        )
        return "\n".join(lines)

    def cache_info(self) -> dict[str, Any]:
        """Hit/miss/occupancy counters of the session store's memory tier
        (plus a ``disk`` entry when a cache directory is attached)."""
        return self.store.info()

    def export_trace(self, path: str) -> None:
        """Write the session's hierarchical span trace as JSON to *path*."""
        self.tracer.export(path)

    def export_metrics(self, path: str) -> None:
        """Write the session's metrics registry as JSON to *path*."""
        self.metrics.export(path)

    def report(self, title: str | None = None) -> ReportBuilder:
        """A fresh HTML report builder for this session."""
        return ReportBuilder(title or f"Analysis of {self.sdfg.name}")


class GlobalView:
    """The global view (Section IV): whole-program metrics and overlays.

    A thin facade: every metric is a pipeline product.  Queries build a
    fresh :class:`~repro.passes.base.PassContext`, so the view always
    reflects the *current* graph content — applying a transformation and
    re-querying yields updated heatmaps with no explicit invalidation.
    """

    def __init__(
        self,
        sdfg: SDFG,
        state: SDFGState,
        pipeline: Pipeline | None = None,
        scope: tuple = (),
        timings=None,
    ):
        self.sdfg = sdfg
        self.state = state
        self.folds = FoldState(state)
        self.pipeline = pipeline if pipeline is not None else build_pipeline()
        self._scope = scope if scope else (sdfg.name, 0)
        self._timings = timings

    def _context(self, env: Mapping[str, int] | None = None) -> PassContext:
        return PassContext(
            self.sdfg,
            state=self.state,
            env=env,
            scope=self._scope,
            timings=self._timings,
            metrics=self.pipeline.metrics,
        )

    def _whole_program_context(
        self, env: Mapping[str, int] | None = None
    ) -> PassContext:
        return PassContext(
            self.sdfg, state=None, env=env, scope=self._scope,
            timings=self._timings, metrics=self.pipeline.metrics,
        )

    # -- metrics ---------------------------------------------------------------
    def movement_heatmap(
        self,
        env: Mapping[str, int],
        method: str = "mean",
        unique: bool = True,
    ) -> Heatmap:
        """Edge heatmap of logical data-movement volumes."""
        volumes = self.pipeline.run("global.movement.eval", self._context(env))
        return Heatmap(volumes["unique" if unique else "counted"], method=method)

    def opcount_heatmap(self, env: Mapping[str, int], method: str = "median") -> Heatmap:
        """Node heatmap of arithmetic-operation counts."""
        ops = self.pipeline.run("global.opcount.eval", self._context(env))
        return Heatmap(ops, method=method)

    def intensity_heatmap(self, env: Mapping[str, int], method: str = "median") -> Heatmap:
        """Node heatmap of arithmetic intensity (ops per byte)."""
        intensity = self.pipeline.run("global.intensity.eval", self._context(env))
        return Heatmap(intensity, method=method)

    def _totals(self) -> dict[str, Any]:
        return self.pipeline.run("global.totals", self._whole_program_context())

    def total_movement(self, env: Mapping[str, int] | None = None, unique: bool = True):
        """Whole-program logical movement (symbolic, or evaluated)."""
        expr = self._totals()["movement_unique" if unique else "movement_counted"]
        return expr if env is None else float(expr.evaluate(env))

    def total_ops(self, env: Mapping[str, int] | None = None):
        expr = self._totals()["ops"]
        return expr if env is None else float(expr.evaluate(env))

    def scaling_sweep(
        self,
        parameter: str,
        points: Iterable[int],
        base_env: Mapping[str, int],
        metric: str = "movement",
    ):
        """Parametric scaling analysis of a global metric (Section IV-D)."""
        totals = self._totals()
        metrics = {
            "movement": totals["movement_unique"],
            "accesses": totals["movement_counted"],
            "ops": totals["ops"],
        }
        if metric not in metrics:
            raise ReproError(f"unknown metric {metric!r}; choose from {sorted(metrics)}")
        return self._sweeper(base_env).run(parameter, points, metrics[metric])

    def rank_parameters(self, base_env: Mapping[str, int], metric: str = "movement"):
        """Which parameters dominate the chosen metric when scaled."""
        totals = self._totals()
        expr = totals["movement_unique"] if metric == "movement" else totals["ops"]
        return self._sweeper(base_env).rank_parameters(expr)

    def _sweeper(self, base_env: Mapping[str, int]) -> ParameterSweep:
        return ParameterSweep(
            base_env,
            metrics_registry=self.pipeline.metrics,
            tracer=self._timings,
        )

    # -- navigation -----------------------------------------------------------
    def outline(self):
        """The hierarchical outline overview."""
        return build_outline(self.sdfg)

    def search(self, query: str):
        """Find graph elements by (case-insensitive) label substring.

        "As with traditional source code, the graphical representation can
        be searched to find specific elements" (Section IV-A).  Returns
        matching outline entries in document order.
        """
        needle = query.lower()
        return [
            entry
            for entry in build_outline(self.sdfg).walk()
            if needle in entry.label.lower()
        ]

    def filter_nodes(self, hide_kinds: Iterable[str]):
        """Nodes remaining visible after hiding element kinds.

        *hide_kinds* uses class names (``"AccessNode"``, ``"Tasklet"``,
        ``"MapEntry"``, ...) — the Section IV-A "filtered out and hidden
        from view" behaviour as an explicit model.
        """
        hidden = set(hide_kinds)
        return [
            node for node in self.state.nodes() if type(node).__name__ not in hidden
        ]

    # -- rendering --------------------------------------------------------------
    def render(
        self,
        env: Mapping[str, int] | None = None,
        edge_overlay: str | None = None,
        node_overlay: str | None = None,
        method: str = "mean",
        show_minimap: bool = True,
        zoom: float = 1.0,
    ) -> str:
        """Render the state as SVG with the requested overlays.

        *zoom* applies the level-of-detail rules; the view's fold state
        (:attr:`folds`) collapses scopes — call ``folds.collapse(entry)``
        or ``folds.collapse_all()`` before rendering.
        """
        edge_hm = node_hm = None
        if edge_overlay == "movement":
            if env is None:
                raise ReproError("movement overlay needs parameter values")
            edge_hm = self.movement_heatmap(env, method=method)
        elif edge_overlay is not None:
            raise ReproError(f"unknown edge overlay {edge_overlay!r}")
        if node_overlay == "ops":
            node_hm = self.opcount_heatmap(env or {})
        elif node_overlay == "intensity":
            node_hm = self.intensity_heatmap(env or {})
        elif node_overlay is not None:
            raise ReproError(f"unknown node overlay {node_overlay!r}")
        return render_state(
            self.state,
            edge_heatmap=edge_hm,
            node_heatmap=node_hm,
            show_minimap=show_minimap,
            folds=self.folds,
            zoom=zoom,
        )


class LocalView:
    """The local view (Section V): parameterized simulation and locality.

    A thin facade: miss counts, access counts, reuse distances and
    movement resolve through the analytic passes (``local.analytic`` →
    ``local.classify`` → ``local.physmove``), the views that replay
    events (playback, related accesses, set-associative misses) through
    the simulated trace (``local.trace``).  Every product is memoized in
    the pipeline's store under *content-addressed* keys, and the view
    keeps none of its own, so mutating the SDFG makes the next query miss
    and recompute — no explicit invalidation needed.
    """

    def __init__(
        self,
        sdfg: SDFG,
        symbols: Mapping[str, int],
        state: SDFGState,
        line_size: int = 64,
        capacity_lines: int = 512,
        include_transients: bool = False,
        timings=None,
        scope: tuple | None = None,
        pipeline: Pipeline | None = None,
    ):
        self.sdfg = sdfg
        self.state = state
        self.symbols = {k: int(v) for k, v in symbols.items()}
        self.cache = CacheModel(line_size=line_size, capacity_lines=capacity_lines)
        self.include_transients = include_transients
        self.timings = timings
        #: Content-based store-key prefix.  The session passes its
        #: ``(sdfg name, generation)`` scope; standalone views derive one
        #: from the SDFG name alone (they own their pipeline anyway).
        self._scope = scope if scope is not None else (sdfg.name, 0)
        self._pipeline = pipeline if pipeline is not None else build_pipeline()

    # -- pipeline plumbing --------------------------------------------------------
    def _context(self) -> PassContext:
        return PassContext(
            self.sdfg,
            state=self.state,
            env=self.symbols,
            line_size=self.cache.line_size,
            capacity_lines=self.cache.capacity_lines,
            include_transients=self.include_transients,
            scope=self._scope,
            timings=self.timings,
            metrics=self._pipeline.metrics,
        )

    def _product(self, product: str) -> Any:
        """Resolve one pipeline product under the view's current context.

        Store keys are content-addressed, so a graph mutation changes
        the key and the stale entry is simply never addressed again.
        """
        return self._pipeline.run(product, self._context())

    # -- simulation (cached) -----------------------------------------------------
    @property
    def result(self) -> SimulationResult:
        """The simulated access trace, from the store."""
        return self._product("local.trace")

    @property
    def memory(self) -> MemoryModel:
        """The physical memory layout of the current program."""
        return MemoryModel(self.sdfg, self.symbols, line_size=self.cache.line_size)

    def invalidate(self) -> None:
        """Drop the pipeline's stored products.

        Content-addressed keys make this unnecessary for *content*
        mutations, which new fingerprints pick up automatically; clearing
        is still the right tool when results must be recomputed without
        any content change (e.g. to force fresh timing measurements).
        """
        self._pipeline.store.clear()

    def _require_container(self, data: str) -> None:
        """Raise :class:`~repro.errors.UnknownContainerError` unless
        *data* is one of the program's containers; every query that
        names a container checks it before any pass runs.  A declared
        container the program never accesses passes (and answers empty)."""
        if data not in self.sdfg.arrays:
            raise UnknownContainerError(data, self.sdfg.arrays)

    def _element_counts(self, data: str) -> ElementCounts:
        """The engine's dense per-element counts of *data* at the view's
        capacity."""
        self._require_container(data)
        analytic = self._product("local.analytic")
        with maybe_span(self.timings, "classify"):
            return analytic.element_counts(data, self.cache.capacity_lines)

    # -- access patterns ----------------------------------------------------------
    def containers(self) -> list[str]:
        """The containers the program accesses, in first-access order."""
        return list(self._product("local.analytic").containers)

    def access_heatmap(self, data: str) -> ElementMap:
        """Flattened access counts per element (Fig. 4b): a read-only
        ``{indices: count}`` mapping over the engine's per-element
        totals."""
        counts = self._element_counts(data)
        return ElementMap(counts, counts.total)

    def playback(self):
        """Iterate animation frames (lists of events per timestep)."""
        return self.result.steps()

    def render_playback_frame(self, step: int, data: str | None = None) -> dict[str, str]:
        """Render the containers with one timestep's accesses highlighted.

        The static equivalent of the "variable speed animation" playback
        (Section V-C): each frame highlights exactly the elements accessed
        at that timestep.  Returns one SVG per container (restrict with
        *data*).
        """
        events = self.result.events_at_step(step)
        if not events:
            raise ReproError(f"no accesses at timestep {step}")
        per_container: dict[str, set[tuple[int, ...]]] = {}
        for event in events:
            per_container.setdefault(event.data, set()).add(event.indices)
        names = [data] if data is not None else sorted(per_container)
        out: dict[str, str] = {}
        for name in names:
            out[name] = self.render_container(
                name, highlights=per_container.get(name, ())
            )
        return out

    def related(self, selections: Sequence[tuple[str, tuple[int, ...]]], data=None):
        """Stacked related-access counts for selected elements (Fig. 4c)."""
        return related_access_counts(self.result, selections, data=data)

    def sliders(self, entry: MapEntry | None = None) -> ParameterSliders:
        """Parameter sliders over a map scope (defaults to the first)."""
        if entry is None:
            entries = self.state.map_entries()
            if not entries:
                raise ReproError("the state has no map scope to parameterize")
            entry = entries[0]
        return ParameterSliders(self.sdfg, self.state, entry, self.symbols)

    # -- locality ----------------------------------------------------------------
    def cache_line_neighbors(self, data: str, indices: tuple[int, ...]):
        """Elements pulled into the cache with ``data[indices]`` (Fig. 5a)."""
        self._require_container(data)
        return self.memory.layout(data).neighbors_in_line(
            indices, self.cache.line_size
        )

    def reuse_distances(self, data: str | None = None):
        """Per-element stack-distance lists (Fig. 5b): ``{(container,
        indices): distances}``, from the engine's product."""
        if data is not None:
            self._require_container(data)
        analytic = self._product("local.analytic")
        out: dict[tuple[str, tuple[int, ...]], list[float]] = {}
        for name in analytic.containers if data is None else [data]:
            elements = analytic.element_distances(name)
            out.update(zip(zip(itertools.repeat(name), elements.indices()), elements.lists()))
        return out

    def reuse_heatmap(self, data: str, stat: str = "median") -> dict[tuple[int, ...], float]:
        """Per-element min/median/max reuse distance (finite values only;
        elements with no finite reuse are omitted)."""
        if stat not in ("min", "median", "max"):
            raise ReproError(f"unknown statistic {stat!r}")
        self._require_container(data)
        elements = self._product("local.analytic").element_distances(data)
        has, values = elements.statistic(stat)
        return dict(zip(
            itertools.compress(elements.indices(), has.tolist()), values.tolist()
        ))

    def miss_counts(self, data: str | None = None):
        """Per-container (or one container's per-element) miss counts."""
        if data is None:
            return self._product("local.classify")
        self._require_container(data)
        analytic = self._product("local.analytic")
        with maybe_span(self.timings, "classify"):
            return analytic.per_element_misses(data, self.cache.capacity_lines)

    def miss_heatmap(self, data: str) -> ElementMap:
        """Per-element total misses of one container (Fig. 5c): a
        read-only ``{indices: count}`` mapping over the engine's counts."""
        counts = self._element_counts(data)
        return ElementMap(counts, counts.misses)

    def miss_counts_set_associative(self, num_sets: int, ways: int):
        """Per-container misses under a *set-associative* backend.

        The Discussion's "hardware-specific back-end" extension: instead
        of the fully-associative threshold model, simulate an actual
        set-associative LRU cache and attribute cold / capacity / conflict
        misses per container (conflicts are exactly the misses the
        fully-associative assumption ignores).
        """
        from repro.simulation.cache import classify_three_way

        trace = build_array_trace(self.result, self.memory)
        with maybe_span(self.timings, "classify"):
            kinds = classify_three_way(trace.lines.tolist(), num_sets, ways)
            return per_container_outcomes(trace, kinds)

    def physical_movement(self) -> dict[str, int]:
        """Estimated bytes moved to/from memory per container (Fig. 7)."""
        return self._product("local.physmove")

    def edge_movement(self):
        """Physical-movement estimate per dataflow edge (Fig. 5c overlay)."""
        container_misses = self.miss_counts()
        with maybe_span(self.timings, "classify"):
            return edge_physical_movement(self.state, container_misses, self.cache)

    # -- rendering ---------------------------------------------------------------
    def _shape(self, data: str) -> tuple[int, ...]:
        """Concrete shape of *data* at the view's sizes; unlike
        ``self.result.shape`` it needs no simulation, which the analytic
        engine may have made unnecessary."""
        self._require_container(data)
        return tuple(int(s.evaluate(self.symbols)) for s in self.sdfg.arrays[data].shape)

    def render_container(
        self,
        data: str,
        values: Mapping[tuple[int, ...], float] | None = None,
        highlights: Iterable[tuple[int, ...]] = (),
        selections: Iterable[tuple[int, ...]] = (),
        value_label: str = "accesses",
    ) -> str:
        """Render one container grid with optional heatmap/highlights."""
        shape = self._shape(data)
        with maybe_span(self.timings, "render") as span:
            span.set(cells=math.prod(shape))
            return render_container(
                data,
                shape,
                values=values,
                highlights=highlights,
                selections=selections,
                value_label=value_label,
            )

    def render_container_aggregated(
        self,
        data: str,
        values: Mapping[tuple[int, ...], float],
        tile: Sequence[int],
        reduce: str = "sum",
        value_label: str = "accesses",
    ) -> str:
        """Render a full-size container with tile aggregation.

        The Discussion's full-size-parameter extension: simulate at real
        sizes, then merge ``tile``-sized blocks of elements into one
        visual tile so the view stays interpretable.
        """
        from repro.viz.containerview import render_container_aggregated

        shape = self._shape(data)
        with maybe_span(self.timings, "render") as span:
            svg = render_container_aggregated(
                data,
                shape,
                values,
                tile,
                reduce=reduce,
                value_label=value_label,
            )
            # One cell per tile; the render has validated *tile* by now.
            span.set(cells=math.prod(-(-s // int(t)) for s, t in zip(shape, tile)))
        return svg

    def render_reuse_histogram(self, data: str, indices: tuple[int, ...]) -> str:
        """The Fig. 5b detail histogram for one selected element."""
        distances = self.reuse_distances(data).get((data, indices))
        if not distances:
            raise ReproError(f"element {data}[{indices}] was never accessed")
        label = f"{data}[{', '.join(map(str, indices))}]"
        return render_histogram(distances, title=f"reuse distances of {label}")
