"""The pass scheduler: topological ordering, memoization, observability.

A :class:`Pipeline` owns a registry of :class:`~repro.passes.base.Pass`
instances and answers product queries (:meth:`Pipeline.run`) by resolving
the dependency closure in topological order, serving every sub-result
from the content-addressed :class:`~repro.passes.store.ResultStore` when
its key is present and recomputing it otherwise.

Every pass execution is wrapped in a ``pass:<name>`` span of the
attached :class:`~repro.obs.trace.Tracer` and counted in the attached
:class:`~repro.obs.metrics.MetricsRegistry` (``pass.<name>.runs`` /
``.hits`` / ``.misses``), so a session can *prove* which passes re-ran
after an edit.  On every recomputation the scheduler diffs the pass's
content components against its previous run and records a human-readable
:class:`InvalidationRecord` — the ``--explain-cache`` / ``pass_report()``
payload.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from typing import Any, Hashable, Iterable

from repro.errors import PipelineError
from repro.passes.base import Pass, PassContext
from repro.passes.store import ResultStore

__all__ = ["InvalidationRecord", "Pipeline"]

#: Human-readable descriptions of fingerprint components, for reports.
_COMPONENT_TEXT = {
    "scope": "session scope (program reloaded)",
    "state": "state graph content changed",
    "states": "state graph content changed",
    "sdfg": "SDFG content changed",
    "arrays": "data descriptors changed",
    "arrays.logical": "logical data descriptors changed",
    "env": "symbol values changed",
    "sim": "simulation configuration changed",
    "line": "cache-line size changed",
    "capacity": "cache capacity changed",
}


class InvalidationRecord:
    """Why one pass re-executed instead of serving its cached result."""

    __slots__ = ("pass_name", "reasons", "transforms")

    def __init__(
        self,
        pass_name: str,
        reasons: tuple[str, ...],
        transforms: tuple[str, ...] = (),
    ):
        self.pass_name = pass_name
        self.reasons = reasons
        self.transforms = transforms

    def describe(self) -> str:
        text = "; ".join(self.reasons)
        if self.transforms:
            text += f" (after {', '.join(self.transforms)})"
        return text

    def __repr__(self) -> str:
        return f"InvalidationRecord({self.pass_name!r}: {self.describe()})"


class Pipeline:
    """Topologically scheduled, content-memoized pass execution."""

    def __init__(
        self,
        passes: Iterable[Pass] = (),
        store: ResultStore | None = None,
        tracer=None,
        metrics=None,
        history: int = 128,
    ):
        self._passes: dict[str, Pass] = {}
        self.store = store if store is not None else ResultStore()
        self.tracer = tracer
        self.metrics = metrics
        self._last_fingerprint: dict[str, dict[str, Hashable]] = {}
        self._invalidations: deque[InvalidationRecord] = deque(maxlen=history)
        #: (sequence number, transform description) of reported transforms.
        self._transforms: deque[tuple[int, str]] = deque(maxlen=history)
        self._events = 0
        self._last_seen_event: dict[str, int] = {}
        for p in passes:
            self.register(p)

    # -- registry ----------------------------------------------------------
    def register(self, pass_: Pass) -> Pass:
        if not pass_.name:
            raise PipelineError(f"pass {pass_!r} declares no product name")
        if pass_.name in self._passes:
            raise PipelineError(f"product {pass_.name!r} is already registered")
        self._passes[pass_.name] = pass_
        return pass_

    def __contains__(self, product: str) -> bool:
        return product in self._passes

    def passes(self) -> list[Pass]:
        return list(self._passes.values())

    def order(self) -> list[Pass]:
        """All registered passes in dependency (topological) order."""
        indegree: dict[str, int] = {}
        consumers: dict[str, list[str]] = {}
        for name, pass_ in self._passes.items():
            indegree.setdefault(name, 0)
            for dep in pass_.depends_on:
                if dep not in self._passes:
                    raise PipelineError(
                        f"pass {name!r} depends on unregistered product {dep!r}"
                    )
                indegree[name] = indegree.get(name, 0) + 1
                consumers.setdefault(dep, []).append(name)
        ready = deque(
            name for name in self._passes if indegree.get(name, 0) == 0
        )
        ordered: list[Pass] = []
        while ready:
            name = ready.popleft()
            ordered.append(self._passes[name])
            for consumer in consumers.get(name, ()):
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if len(ordered) != len(self._passes):
            cyclic = sorted(set(self._passes) - {p.name for p in ordered})
            raise PipelineError(f"dependency cycle among passes {cyclic}")
        return ordered

    # -- keys --------------------------------------------------------------
    def key(self, product: str, ctx: PassContext) -> tuple:
        """The content key of *product* under *ctx*.

        Pure in the context's content: computable without running any
        pass, so callers (e.g. the parallel sweep) can address results
        they obtained elsewhere.  Keys compose recursively — a pass's key
        embeds its dependencies' keys — making the store content-addressed
        through the whole dependency chain.
        """
        memo = ctx._components.setdefault("__keys__", {})  # type: ignore[call-overload]
        try:
            return memo[product]
        except KeyError:
            pass
        pass_ = self._resolve(product)
        fingerprint = tuple(sorted(pass_.fingerprint(ctx).items()))
        deps = tuple(self.key(dep, ctx) for dep in pass_.depends_on)
        key = (product, fingerprint, deps)
        memo[product] = key
        return key

    def _resolve(self, product: str) -> Pass:
        try:
            return self._passes[product]
        except KeyError:
            raise PipelineError(
                f"unknown product {product!r}; registered: "
                f"{sorted(self._passes)}"
            ) from None

    # -- execution ---------------------------------------------------------
    def run(self, product: str, ctx: PassContext) -> Any:
        """The product's value under *ctx*, computed or served from cache."""
        pass_ = self._resolve(product)
        key = self.key(product, ctx)
        value = self.store.get(key)
        if not ResultStore.is_miss(value):
            self._count(f"pass.{product}.hits")
            return value
        self._record_invalidation(pass_, ctx, key)
        span = (
            self.tracer.span(f"pass:{product}")
            if self.tracer is not None
            else nullcontext()
        )
        with span:
            inputs = {dep: self.run(dep, ctx) for dep in pass_.depends_on}
            value = pass_.run(ctx, inputs)
        self.store.put(key, value)
        self._count(f"pass.{product}.runs")
        self._count(f"pass.{product}.misses")
        self._last_fingerprint[product] = dict(pass_.fingerprint(ctx))
        self._last_fingerprint[f"{product}@deps"] = {
            dep: self.key(dep, ctx) for dep in pass_.depends_on
        }
        self._last_seen_event[product] = self._events
        return value

    def runs(self, product: str) -> int:
        """How many times *product* actually executed (not cache hits)."""
        if self.metrics is None:
            raise PipelineError("pipeline has no metrics registry attached")
        return self.metrics.counter(f"pass.{product}.runs").value

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    # -- invalidation accounting -------------------------------------------
    def note_transform(self, description: str) -> None:
        """Record an applied transform (for ``--explain-cache`` output).

        Correctness never depends on this call — content keys invalidate
        by construction — but reports can then attribute recomputation to
        the transform that caused it.
        """
        self._events += 1
        self._transforms.append((self._events, description))

    def _record_invalidation(
        self, pass_: Pass, ctx: PassContext, key: tuple
    ) -> None:
        previous = self._last_fingerprint.get(pass_.name)
        current = pass_.fingerprint(ctx)
        if previous is None:
            reasons: tuple[str, ...] = ("first run",)
        else:
            changed = sorted(
                component
                for component in set(previous) | set(current)
                if previous.get(component) != current.get(component)
            )
            reasons = tuple(
                _COMPONENT_TEXT.get(c, f"component {c!r} changed")
                for c in changed
            )
            prev_deps = self._last_fingerprint.get(f"{pass_.name}@deps", {})
            dep_reasons = tuple(
                f"upstream pass {dep!r} recomputed"
                for dep in pass_.depends_on
                if prev_deps.get(dep) != self.key(dep, ctx)
            )
            reasons += dep_reasons
            if not reasons:
                reasons = ("result evicted from the store",)
        since = self._last_seen_event.get(pass_.name, 0)
        transforms = tuple(
            desc for seq, desc in self._transforms if seq > since
        )
        self._invalidations.append(
            InvalidationRecord(pass_.name, reasons, transforms)
        )

    def invalidations(self) -> list[InvalidationRecord]:
        return list(self._invalidations)

    def last_invalidation(self, product: str) -> InvalidationRecord | None:
        for record in reversed(self._invalidations):
            if record.pass_name == product:
                return record
        return None

    # -- reporting ---------------------------------------------------------
    def stats(self) -> list[dict[str, Any]]:
        """Per-pass run/hit/miss counts, wall time, and last reason."""
        rows: list[dict[str, Any]] = []
        for pass_ in self.order():
            name = pass_.name
            runs = hits = 0
            if self.metrics is not None:
                runs = self.metrics.counter(f"pass.{name}.runs").value
                hits = self.metrics.counter(f"pass.{name}.hits").value
            seconds = 0.0
            if self.tracer is not None and hasattr(self.tracer, "total"):
                seconds = self.tracer.total(f"pass:{name}")
            record = self.last_invalidation(name)
            rows.append(
                {
                    "pass": name,
                    "runs": runs,
                    "hits": hits,
                    "misses": runs,
                    "seconds": seconds,
                    "last_reason": None if record is None else record.describe(),
                }
            )
        return rows

    def report(self) -> str:
        """A plain-text per-pass cache/timing table plus recent transforms."""
        rows = self.stats()
        width = max([len(r["pass"]) for r in rows] + [4])
        lines = [
            f"{'pass':<{width}}  {'runs':>5} {'hits':>5}  {'time [ms]':>10}  last recompute reason"
        ]
        for row in rows:
            reason = row["last_reason"] or "-"
            lines.append(
                f"{row['pass']:<{width}}  {row['runs']:>5} {row['hits']:>5}  "
                f"{row['seconds'] * 1e3:>10.2f}  {reason}"
            )
        if self._transforms:
            lines.append("applied transforms:")
            for _, desc in self._transforms:
                lines.append(f"  - {desc}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Pipeline(passes={len(self._passes)}, store={len(self.store)} "
            "entries)"
        )
