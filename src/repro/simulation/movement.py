"""Physical data-movement estimation (Section V-F).

Once per-access miss outcomes are known, the *physical* volume moved
between cache and main memory is ``misses × line size`` — the refinement
the local view applies to the logical volumes of the global view.  Edge
estimates combine the miss counts of the edge's source and destination
nodes with the line size (the paper's formulation; we sum the two nodes'
misses and document this reading in DESIGN.md).

:func:`edge_physical_movement` is the production entry point; it takes
per-container miss counts.  :func:`per_container_misses`,
:func:`per_element_misses` and :func:`container_physical_movement` walk
per-event :class:`~repro.simulation.trace.AccessEvent` traces: they are
the references the array pipeline (:mod:`~repro.simulation.arrays`) is
differentially tested against, and no production module calls them.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.sdfg.nodes import AccessNode
from repro.sdfg.state import SDFGState
from repro.simulation.cache import CacheModel, MissCounts
from repro.simulation.layout import MemoryModel
from repro.simulation.stackdist import line_trace, stack_distances
from repro.simulation.trace import AccessEvent

__all__ = [
    "per_container_misses",
    "per_element_misses",
    "container_physical_movement",
    "edge_physical_movement",
]


def _distances_with_events(
    events: Sequence[AccessEvent],
    memory: MemoryModel,
    distances: Sequence[float] | None = None,
) -> list[tuple[AccessEvent, float]]:
    if distances is None:
        distances = stack_distances(line_trace(events, memory))
    return list(zip(events, distances))


def per_container_misses(
    events: Sequence[AccessEvent],
    memory: MemoryModel,
    model: CacheModel,
    distances: Sequence[float] | None = None,
) -> dict[str, MissCounts]:
    """Miss counts per container, from one interleaved trace (reference).

    The stack distances are computed over the *full* trace (all containers
    share the cache); the outcomes are then attributed to each event's
    container.  Pass precomputed per-event *distances* to reuse work
    across queries.
    """
    out: dict[str, MissCounts] = {}
    for event, distance in _distances_with_events(events, memory, distances):
        counts = out.setdefault(event.data, MissCounts())
        kind = model.classify(distance)
        if kind.is_miss:
            if distance == float("inf"):
                counts.cold += 1
            else:
                counts.capacity += 1
        else:
            counts.hits += 1
    return out


def per_element_misses(
    events: Sequence[AccessEvent],
    memory: MemoryModel,
    model: CacheModel,
    data: str,
    distances: Sequence[float] | None = None,
) -> dict[tuple[int, ...], MissCounts]:
    """Miss counts per element of *data* — the Fig. 5c / Fig. 7 heatmap
    (reference)."""
    out: dict[tuple[int, ...], MissCounts] = {}
    for event, distance in _distances_with_events(events, memory, distances):
        if event.data != data:
            continue
        counts = out.setdefault(event.indices, MissCounts())
        kind = model.classify(distance)
        if kind.is_miss:
            if distance == float("inf"):
                counts.cold += 1
            else:
                counts.capacity += 1
        else:
            counts.hits += 1
    return out


def container_physical_movement(
    events: Sequence[AccessEvent],
    memory: MemoryModel,
    model: CacheModel,
    distances: Sequence[float] | None = None,
) -> dict[str, int]:
    """Estimated bytes moved between memory and cache, per container
    (reference)."""
    misses = per_container_misses(events, memory, model, distances)
    return {name: counts.misses * model.line_size for name, counts in misses.items()}


def edge_physical_movement(
    state: SDFGState,
    container_misses: Mapping[str, MissCounts],
    model: CacheModel,
) -> dict[object, int]:
    """Physical-movement estimate per dataflow edge.

    Each container-adjacent edge gets ``misses(container at source or
    destination) × line size``; edges touching containers on both ends
    (copies) get the sum of both sides.  Edges whose containers never
    appear in *container_misses* get zero.
    """

    def node_misses(node) -> int:
        if isinstance(node, AccessNode) and node.data in container_misses:
            return container_misses[node.data].misses
        return 0

    out: dict[object, int] = {}
    for edge, memlet in state.all_memlets():
        total = node_misses(edge.src) + node_misses(edge.dst)
        if total == 0 and memlet.data in container_misses:
            # Inner edges (not touching the access node directly) inherit
            # their container's estimate.
            total = container_misses[memlet.data].misses
        out[edge] = total * model.line_size
    return out
