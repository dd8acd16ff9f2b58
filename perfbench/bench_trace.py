"""Benchmark-owned tracing: spans around the program's public entry points.

A traced run installs wrappers from this file around the functions and
methods that enter each layer (see :data:`ENTRY_POINTS`); the program's
own code is not changed.  Every wrapper records one span with a name,
start, end, its parent span (the innermost open span of the same thread)
and the id of the operation it belongs to (its root span).  Spans are
kept in memory and written out when the run ends.

A span's *self time* is its duration minus the part covered by its child
spans; over one thread's span tree the self times add up exactly to the
root spans' durations, which :func:`self_times` relies on and the tests
check.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter


class SpanLog:
    """In-memory span collector with one open-span stack per thread."""

    def __init__(self) -> None:
        #: ``(span id, parent id, op id, name, start, end)`` per finished span.
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        #: counted quantity → root span name (``""`` outside any) → amount.
        self.counts: dict[str, dict[str, float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._paused = False

    @contextmanager
    def paused(self):
        """Record nothing inside: the benchmark's own output checks call
        the program too, and that is not the workload's work."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float) -> None:
        if self._paused:
            return
        stack = self._stack()
        root = stack[0][1] if stack else ""
        with self._lock:
            per_root = self.counts.setdefault(name, {})
            per_root[root] = per_root.get(root, 0) + amount

    def inside(self, prefix: str) -> bool:
        """Whether an open span of this thread starts with *prefix*."""
        return any(frame[1].startswith(prefix) for frame in self._stack())

    @contextmanager
    def span(self, name: str):
        if self._paused:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        op = stack[0][0] if stack else span_id
        frame = (span_id, name)
        stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, op, name, start, end))

    def leaf(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (an ``await`` on the event
        loop, where interleaved coroutines share one thread's stack)."""
        if self._paused:
            return
        span_id = next(self._ids)
        with self._lock:
            self.spans.append((span_id, None, span_id, name, start, end))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [
                        {"id": s, "parent": p, "op": o, "name": n, "start": a, "end": b}
                        for s, p, o, n, a, b in self.spans
                    ],
                    "counts": self.counts,
                },
                handle,
            )


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per-name total self time (seconds) and span count."""
    covered: dict[int, float] = {}
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span_id, _, _, name, start, end in spans:
        own = (end - start) - covered.get(span_id, 0.0)
        totals[name] = totals.get(name, 0.0) + own
        counts[name] = counts.get(name, 0) + 1
    return totals, counts


def root_seconds(spans) -> float:
    return sum(end - start for _, parent, _, _, start, end in spans if parent is None)


# -- wrappers ----------------------------------------------------------------
def _wrap(log: SpanLog, name, fn, after=None):
    """A synchronous wrapper; *name* may be a callable of the arguments."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def awrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                log.leaf(name, start, perf_counter())

        return awrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        with log.span(label):
            result = fn(*args, **kwargs)
        if after is not None:
            after(log, result)
        return result

    return wrapper


def _count_events(log: SpanLog, result) -> None:
    # Only outermost simulations count: a region simulated inside a
    # state simulation would otherwise be counted twice.
    if not log.inside("simulation.simulate") and not log.inside("simulation.region"):
        log.add("simulation.events", getattr(result, "num_events", 0))


def _count_svg(log: SpanLog, result) -> None:
    if isinstance(result, str):
        log.add("viz.svg_bytes", len(result.encode("utf-8")))


def _pass_name(self, product, *args, **kwargs) -> str:
    return f"passes.{product}"


#: ``(span name, module, attribute path, post-call hook)``.  Functions
#: are replaced in every loaded ``repro`` module that imported them by
#: name; ``Class.method`` entries are replaced on the class.
ENTRY_POINTS = (
    ("frontend.to_sdfg", "repro.frontend.program", "Program.to_sdfg", None),
    ("sdfg.fingerprint", "repro.sdfg.serialize", "sdfg_fingerprint", None),
    ("sdfg.fingerprint", "repro.sdfg.serialize", "state_fingerprint", None),
    ("sdfg.fingerprint", "repro.sdfg.serialize", "data_fingerprint", None),
    ("sdfg.copy", "repro.sdfg.sdfg", "SDFG.copy", None),
    ("transforms.apply", "repro.tool.session", "Session.apply", None),
    ("transforms.apply", "repro.transforms.protocol", "Transform.apply", None),
    (_pass_name, "repro.passes.pipeline", "Pipeline.run", None),
    ("passes.key", "repro.passes.pipeline", "Pipeline.key", None),
    ("locality.analyze", "repro.locality.engine", "analyze_locality", None),
    ("locality.fold", "repro.locality.fold", "try_build_fold", None),
    ("simulation.simulate", "repro.simulation.simulator", "simulate_state", _count_events),
    ("simulation.region", "repro.simulation.simulator", "simulate_region", _count_events),
    ("simulation.layout", "repro.simulation.layout", "MemoryModel.__init__", None),
    ("simulation.layout", "repro.simulation.arrays", "build_array_trace", None),
    ("simulation.stackdist", "repro.simulation.stackdist", "stack_distances_array", None),
    ("symbolic.compile", "repro.symbolic.compiled", "compile_expr", None),
    ("symbolic.eval", "repro.symbolic.compiled", "GridFn.__call__", None),
    ("symbolic.eval", "repro.symbolic.compiled", "GridFn.eval_points", None),
    ("executor.run", "repro.analysis.executor", "SweepExecutor.run", None),
    ("storage.disk_get", "repro.storage.diskcache", "DiskCache.get", None),
    ("storage.disk_put", "repro.storage.diskcache", "DiskCache.put", None),
    ("viz.render", "repro.viz.containerview", "render_container", _count_svg),
    ("viz.render", "repro.viz.graphview", "render_state", _count_svg),
    ("resilience.admission_wait", "repro.resilience.admission",
     "AdmissionController.acquire", None),
)

#: The Session entry points the service handlers call (``serve.eval``).
SERVE_EVAL_POINTS = (
    ("repro.tool.session", "Session.sweep"),
    ("repro.tool.session", "GlobalView.render"),
    ("repro.tool.session", "GlobalView.movement_heatmap"),
    ("repro.tool.session", "GlobalView.total_movement"),
    ("repro.tool.session", "GlobalView.total_ops"),
)


class Patcher:
    """Install and remove wrappers; :meth:`restore` undoes everything."""

    def __init__(self, log: SpanLog):
        self.log = log
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, name, module: str, path: str, after=None) -> None:
        mod = importlib.import_module(module)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            # Subclasses that override the method get their own wrapper.
            for klass in [cls, *_subclasses(cls)]:
                if attr in klass.__dict__:
                    self._set(klass, attr, _wrap(self.log, name, klass.__dict__[attr], after))
            return
        original = getattr(mod, path)
        wrapper = _wrap(self.log, name, original, after)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, wrapper)

    def install_all(self, serve_eval: bool = False) -> "Patcher":
        # Import every module whose names get replaced first, so modules
        # imported later cannot keep a reference to an unwrapped original.
        import repro.serve.app  # noqa: F401
        import repro.tool.session  # noqa: F401

        for name, module, path, after in ENTRY_POINTS:
            self.install(name, module, path, after)
        if serve_eval:
            for module, path in SERVE_EVAL_POINTS:
                self.install("serve.eval", module, path)
        return self

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def self_check(log: SpanLog, wall_s: float) -> dict:
    """Self times summed over all spans against the root spans and the
    traced phase's wall time (coverage below 1 is untraced glue)."""
    totals, _ = self_times(log.spans)
    own = sum(totals.values())
    roots = root_seconds(log.spans)
    return {
        "self_s": own,
        "roots_s": roots,
        "wall_s": wall_s,
        "coverage": roots / wall_s if wall_s else 0.0,
    }


def _merge(registries) -> tuple[dict, dict]:
    counters: dict[str, float] = {}
    histogram_sums: dict[str, float] = {}
    for registry in registries:
        for name, value in registry.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, summary in registry.get("histograms", {}).items():
            histogram_sums[name] = histogram_sums.get(name, 0.0) + summary.get("sum", 0.0)
    return counters, histogram_sums


def layer_values(log: SpanLog, outcome: dict) -> dict:
    """Every per-layer metric of :data:`catalog.LAYERS` from the spans,
    the program's exported counters and the workload's own values.

    *outcome* is a workload's result: ``registries`` (``to_dict()`` of
    each session's MetricsRegistry, or ``/v1/metrics``) and ``layers``
    (values only the workload knows).  When pool workers hid part of the
    work, the workload also names ``compute_ops``, the root spans whose
    work was all in this process (they give the per-layer compute split,
    with ``registries`` as their counters), and ``executor_registries``,
    the counters of the pooled work (they give the ``executor.*`` and
    breaker figures, with the spans of the other roots).
    """
    import catalog
    from bench_common import ratio

    compute_ops = outcome.get("compute_ops")
    roots = {span_id: name for span_id, parent, _, name, _, _ in log.spans if parent is None}
    if compute_ops is None:
        compute_spans = executor_spans = log.spans
    else:
        compute_spans = [s for s in log.spans if roots.get(s[2]) in compute_ops]
        executor_spans = [s for s in log.spans if roots.get(s[2]) not in compute_ops]
    totals, counts = self_times(compute_spans)
    executor_totals, _ = self_times(executor_spans)
    counters, _ = _merge(outcome["registries"])
    pooled, pooled_histograms = _merge(outcome.get("executor_registries", outcome["registries"]))

    def ms(name: str) -> float:
        return totals.get(name, 0.0) * 1e3

    def counted(name: str) -> float:
        return sum(
            amount for root, amount in log.counts.get(name, {}).items()
            if compute_ops is None or root in compute_ops
        )

    def counter(name: str) -> float:
        return counters.get(name, 0)

    def matching(prefix: str, suffix: str, source=counters) -> float:
        return sum(v for k, v in source.items() if k.startswith(prefix) and k.endswith(suffix))

    values = {
        "frontend.to_sdfg_ms": ms("frontend.to_sdfg"),
        "sdfg.fingerprint_calls": counts.get("sdfg.fingerprint", 0),
        "sdfg.fingerprint_ms": ms("sdfg.fingerprint"),
        "sdfg.copy_ms": ms("sdfg.copy"),
        "transforms.apply_calls": counts.get("transforms.apply", 0),
        "transforms.apply_ms": ms("transforms.apply"),
        "tuning.candidates": 0,
        "tuning.dedup_ratio": 0.0,
        "tuning.pass_hit_ratio": 0.0,
        "passes.key_ms": ms("passes.key"),
        "passes.store_hit_ratio": ratio(
            matching("pass.", ".hits"), matching("pass.", ".hits") + matching("pass.", ".runs")
        ),
        "locality.analyze_ms": ms("locality.analyze"),
        "locality.fold_ms": ms("locality.fold"),
        "locality.folded_regions": counter("locality.analytic.hits"),
        "locality.enumerated_regions": counter("locality.analytic.fallbacks"),
        "simulation.region_ms": ms("simulation.region"),
        "simulation.simulate_ms": ms("simulation.simulate"),
        "simulation.layout_ms": ms("simulation.layout"),
        "simulation.stackdist_ms": ms("simulation.stackdist"),
        "simulation.events": counted("simulation.events"),
        "symbolic.compile_ms": ms("symbolic.compile"),
        "symbolic.eval_ms": ms("symbolic.eval"),
        "executor.run_ms": executor_totals.get("executor.run", 0.0) * 1e3,
        "executor.pool_chosen": pooled.get("sweep.adaptive.pool_chosen", 0),
        "executor.pool_spawns": pooled.get("sweep.pool_spawns", 0),
        "executor.serial_fallbacks": pooled.get("sweep.serial_fallbacks", 0),
        # Wall time inside SweepExecutor.run minus the summed per-point
        # compute; negative when pool workers computed in parallel.
        "executor.overhead_ms": (
            sum(e - s for _, _, _, n, s, e in executor_spans if n == "executor.run")
            - pooled_histograms.get("sweep.point_seconds", 0.0)
        ) * 1e3,
        "storage.disk_get_ms": ms("storage.disk_get"),
        "storage.disk_put_ms": ms("storage.disk_put"),
        "storage.disk_hit_ratio": ratio(
            counter("disk.hits"), counter("disk.hits") + counter("disk.misses")
        ),
        "storage.io_errors": counter("disk.io_errors"),
        "session.sim_cache_hit_ratio": 0.0,
        "viz.render_ms": ms("viz.render"),
        "viz.svg_bytes": counted("viz.svg_bytes"),
        "serve.server_ms": 0.0,
        "serve.eval_ms": 0.0,
        "serve.wait_ms": 0.0,
        "serve.client_overhead_ms": 0.0,
        "serve.coalesce_joined_ratio": ratio(
            counter("serve.coalesce.joined"),
            counter("serve.coalesce.joined") + counter("serve.coalesce.led"),
        ),
        "serve.etag_304_ratio": 0.0,
        "serve.gen_late_ms": 0.0,
        "resilience.admission_wait_ms": ms("resilience.admission_wait"),
        "resilience.shed_ratio": ratio(
            matching("admission.", ".shed"),
            matching("admission.", ".shed") + matching("admission.", ".admitted"),
        ),
        "resilience.breaker_opens": matching("breaker.", ".opened", pooled),
        "obs.spans_retained": 0,
    }
    for product in catalog.PASS_PRODUCTS:
        values[f"passes.{product}.runs"] = counter(f"pass.{product}.runs")
        values[f"passes.{product}.hits"] = counter(f"pass.{product}.hits")
        values[f"passes.{product}.self_ms"] = ms(f"passes.{product}")
    values.update(outcome["layers"])
    missing = set(catalog.LAYERS) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return values
