"""Optional span recording for the analysis pipeline stages.

The paper's interactive loop lives or dies by the local view re-running
"in a fraction of a second"; to keep that property measurable, the
simulation and analysis layers accept an optional ``timings`` span
collector — the session's :class:`~repro.obs.trace.Tracer` — and record
one wall-time span per stage:

- ``enumerate`` — concretizing iteration spaces / building index grids,
- ``evaluate``  — materializing the access trace (vectorized or
  interpreted),
- ``locality:analytic`` — the locality engine (layout, stack distances
  and the window fold),
- ``classify``  — miss classification and movement estimation,
- ``render``    — drawing a container grid,
- ``fanout``    — dispatching parametric-sweep points to workers,
- ``merge``     — folding worker results back into the session store.

The CLI prints the tracer's flat per-name table
(:meth:`~repro.obs.trace.Tracer.table`) under ``--timings``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.trace import NULL_SPAN

__all__ = ["maybe_span"]


@contextmanager
def maybe_span(timings, stage: str) -> Iterator:
    """Record a span when *timings* is provided; otherwise a no-op.

    *timings* is any collector with a ``span(name)`` context manager,
    normally a :class:`~repro.obs.trace.Tracer`.  Always yields an
    attribute sink supporting ``set(**attrs)``.
    """
    if timings is None:
        yield NULL_SPAN
        return
    with timings.span(stage) as span:
        yield span if span is not None else NULL_SPAN
