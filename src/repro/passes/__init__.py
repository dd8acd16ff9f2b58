"""Incremental analysis-pass pipeline with content-addressed invalidation.

Analyses are :class:`~repro.passes.base.Pass` objects declaring their
dependencies and the content components that determine their output; a
:class:`~repro.passes.pipeline.Pipeline` schedules them topologically and
memoizes every result in a :class:`~repro.passes.store.ResultStore` under
keys built from SDFG content hashes (:mod:`repro.sdfg.serialize`).
Invalidation is purely structural — mutate the graph, rebind a symbol, or
retune the cache model, and exactly the passes whose key components
changed re-execute; everything else is a cache hit.

Quick start::

    from repro.passes import PassContext, build_pipeline

    pipe = build_pipeline()
    ctx = PassContext(sdfg, state=state, env={"N": 64})
    misses = pipe.run("local.classify", ctx)
"""

from __future__ import annotations

from repro.passes.base import COMPONENTS, Pass, PassContext
from repro.passes.global_passes import global_passes
from repro.passes.local_passes import local_passes
from repro.passes.pipeline import InvalidationRecord, Pipeline
from repro.passes.store import ResultStore

__all__ = [
    "COMPONENTS",
    "Pass",
    "PassContext",
    "Pipeline",
    "InvalidationRecord",
    "ResultStore",
    "global_passes",
    "local_passes",
    "default_passes",
    "build_pipeline",
]


def default_passes() -> tuple[Pass, ...]:
    """Fresh instances of every built-in pass (global + local)."""
    return global_passes() + local_passes()


def build_pipeline(
    store: ResultStore | None = None,
    tracer=None,
    metrics=None,
) -> Pipeline:
    """A pipeline with every built-in pass registered."""
    return Pipeline(
        default_passes(), store=store, tracer=tracer, metrics=metrics
    )
