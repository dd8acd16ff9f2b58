"""Array-native access trace and locality aggregation.

The simulator records every trace as
:class:`~repro.simulation.trace.TraceBlock` columns — an index matrix
plus trace positions per (container, kind, tasklet).
:func:`build_array_trace` assembles them into an :class:`ArrayTrace` —
parallel ``int64`` columns of container ids, flattened element keys and
global cache-line ids — and every downstream stage of the local view runs
as NumPy kernels over it:

- stack distances via
  :func:`~repro.simulation.stackdist.stack_distances_array` on
  :attr:`ArrayTrace.lines`;
- miss classification via boolean masks
  (:func:`~repro.simulation.cache.miss_masks`);
- per-container / per-element aggregation via ``np.bincount`` over the id
  columns.

Each function is differentially tested to produce results exactly equal
to its per-event reference in :mod:`~repro.simulation.movement` and
:mod:`~repro.simulation.stackdist`, computed from the interpreter's
:attr:`~repro.simulation.simulator.SimulationResult.events`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.simulation.cache import CacheModel, MissCounts, MissKind, miss_masks
from repro.simulation.layout import MemoryModel
from repro.simulation.simulator import SimulationResult

__all__ = [
    "ArrayTrace",
    "build_array_trace",
    "element_distance_lists",
    "per_container_misses_array",
    "per_element_misses_array",
    "container_physical_movement_array",
    "per_container_outcomes",
]


class ArrayTrace:
    """Column-oriented view of a simulated access trace.

    One row per access event, in trace order:

    - ``container_ids[t]`` — index into :attr:`containers` (which lists
      containers in first-access order);
    - ``element_keys[t]`` — the accessed element, flattened row-major
      under the container's :attr:`key_shapes` entry (the per-dimension
      maximum index + 1; a private keying shape, not the array shape);
    - ``lines[t]`` — the global cache-line id of the accessed address.
    """

    __slots__ = ("containers", "container_ids", "element_keys", "key_shapes", "lines")

    def __init__(
        self,
        containers: list[str],
        container_ids: np.ndarray,
        element_keys: np.ndarray,
        key_shapes: list[tuple[int, ...]],
        lines: np.ndarray,
    ):
        self.containers = containers
        self.container_ids = container_ids
        self.element_keys = element_keys
        self.key_shapes = key_shapes
        self.lines = lines

    @property
    def num_events(self) -> int:
        return self.lines.size

    def container_index(self, data: str) -> int | None:
        try:
            return self.containers.index(data)
        except ValueError:
            return None

    def unflatten_keys(self, container: int, keys: np.ndarray) -> list[tuple[int, ...]]:
        """Element index tuples for a batch of flattened keys."""
        shape = self.key_shapes[container]
        if not shape:
            return [()] * int(np.asarray(keys).size)
        cols = np.unravel_index(np.asarray(keys), shape)
        return list(zip(*(col.tolist() for col in cols)))

    def __repr__(self) -> str:
        return (
            f"ArrayTrace(events={self.num_events}, containers={self.containers})"
        )


def build_array_trace(result: SimulationResult, memory: MemoryModel) -> ArrayTrace:
    """Assemble the columnar trace from the result's blocks.

    The simulator has rejected negative indices, so every element key
    is a non-negative row-major offset.
    """
    blocks = result.blocks
    n = result.num_events
    containers: list[str] = []
    index_of: dict[str, int] = {}
    grouped: dict[str, list] = {}
    for block in blocks:
        if block.data not in index_of:
            index_of[block.data] = len(containers)
            containers.append(block.data)
        grouped.setdefault(block.data, []).append(block)
    key_shapes: list[tuple[int, ...]] = []
    for name in containers:
        ndims = grouped[name][0].matrix.shape[1]
        high = np.zeros(ndims, dtype=np.int64)
        for block in grouped[name]:
            if block.matrix.size:
                np.maximum(high, block.matrix.max(axis=0), out=high)
        key_shapes.append(tuple(int(h) + 1 for h in high))
    container_ids = np.empty(n, dtype=np.int64)
    element_keys = np.empty(n, dtype=np.int64)
    lines = np.empty(n, dtype=np.int64)
    for block in blocks:
        container = index_of[block.data]
        layout = memory.layout(block.data)
        dest = block.positions
        container_ids[dest] = container
        shape = key_shapes[container]
        if shape:
            multipliers = np.ones(len(shape), dtype=np.int64)
            for d in range(len(shape) - 2, -1, -1):
                multipliers[d] = multipliers[d + 1] * shape[d + 1]
            element_keys[dest] = block.matrix @ multipliers
        else:
            element_keys[dest] = 0
        lines[dest] = layout.cache_lines_of(block.matrix, memory.line_size)
    return ArrayTrace(containers, container_ids, element_keys, key_shapes, lines)


def element_distance_lists(
    trace: ArrayTrace,
    distances: np.ndarray,
    data: str | None = None,
) -> dict[tuple[str, tuple[int, ...]], list[float]]:
    """Distances grouped per element — equals
    :func:`~repro.simulation.stackdist.element_stack_distances`.

    One stable lexsort groups rows by (container, element); distances
    within a group keep trace order, matching the dict-of-list loop.
    """
    n = trace.num_events
    if n == 0:
        return {}
    order = np.lexsort((trace.element_keys, trace.container_ids))
    cids = trace.container_ids[order]
    keys = trace.element_keys[order]
    dist = np.asarray(distances, dtype=np.float64)[order]
    changed = np.flatnonzero((cids[1:] != cids[:-1]) | (keys[1:] != keys[:-1])) + 1
    starts = np.concatenate(([0], changed))
    ends = np.concatenate((changed, [n]))
    rep_cids = cids[starts]
    rep_keys = keys[starts]
    rep_indices: list = [None] * starts.size
    for container, _ in enumerate(trace.containers):
        members = np.flatnonzero(rep_cids == container)
        if not members.size:
            continue
        for group, indices in zip(
            members.tolist(), trace.unflatten_keys(container, rep_keys[members])
        ):
            rep_indices[group] = indices
    out: dict[tuple[str, tuple[int, ...]], list[float]] = {}
    for group, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
        name = trace.containers[int(rep_cids[group])]
        if data is not None and name != data:
            continue
        out[(name, rep_indices[group])] = dist[start:end].tolist()
    return out


def per_container_misses_array(
    trace: ArrayTrace, distances: np.ndarray, model: CacheModel
) -> dict[str, MissCounts]:
    """Miss counts per container — equals
    :func:`~repro.simulation.movement.per_container_misses`."""
    cold, capacity = miss_masks(distances, model)
    ncontainers = len(trace.containers)
    total = np.bincount(trace.container_ids, minlength=ncontainers)
    cold_per = np.bincount(trace.container_ids[cold], minlength=ncontainers)
    capacity_per = np.bincount(trace.container_ids[capacity], minlength=ncontainers)
    out: dict[str, MissCounts] = {}
    for container, name in enumerate(trace.containers):
        k = int(cold_per[container])
        p = int(capacity_per[container])
        out[name] = MissCounts(
            hits=int(total[container]) - k - p, cold=k, capacity=p
        )
    return out


def per_element_misses_array(
    trace: ArrayTrace,
    distances: np.ndarray,
    model: CacheModel,
    data: str,
) -> dict[tuple[int, ...], MissCounts]:
    """Per-element miss counts of one container — equals
    :func:`~repro.simulation.movement.per_element_misses`."""
    container = trace.container_index(data)
    if container is None:
        return {}
    member = trace.container_ids == container
    keys = trace.element_keys[member]
    cold, capacity = miss_masks(np.asarray(distances, dtype=np.float64)[member], model)
    size = 1
    for extent in trace.key_shapes[container]:
        size *= extent
    total = np.bincount(keys, minlength=size)
    cold_per = np.bincount(keys[cold], minlength=size)
    capacity_per = np.bincount(keys[capacity], minlength=size)
    present = np.flatnonzero(total)
    out: dict[tuple[int, ...], MissCounts] = {}
    for indices, t, k, p in zip(
        trace.unflatten_keys(container, present),
        total[present].tolist(),
        cold_per[present].tolist(),
        capacity_per[present].tolist(),
    ):
        out[indices] = MissCounts(hits=t - k - p, cold=k, capacity=p)
    return out


def container_physical_movement_array(
    trace: ArrayTrace, distances: np.ndarray, model: CacheModel
) -> dict[str, int]:
    """Estimated bytes moved per container — equals
    :func:`~repro.simulation.movement.container_physical_movement`."""
    misses = per_container_misses_array(trace, distances, model)
    return {name: counts.misses * model.line_size for name, counts in misses.items()}


#: Outcome-code layout used by :func:`per_container_outcomes`.
_OUTCOME_CODES = {
    MissKind.HIT: 0,
    MissKind.COLD: 1,
    MissKind.CAPACITY: 2,
    MissKind.CONFLICT: 3,
}


def per_container_outcomes(
    trace: ArrayTrace, kinds: Sequence[MissKind]
) -> dict[str, MissCounts]:
    """Attribute per-access outcomes (e.g. from a set-associative
    simulation) to containers without materializing events."""
    codes = np.fromiter(
        (_OUTCOME_CODES[k] for k in kinds), dtype=np.int64, count=len(kinds)
    )
    combined = np.bincount(
        trace.container_ids * 4 + codes, minlength=4 * len(trace.containers)
    )
    out: dict[str, MissCounts] = {}
    for container, name in enumerate(trace.containers):
        hits, cold, capacity, conflict = (
            int(x) for x in combined[4 * container : 4 * container + 4]
        )
        out[name] = MissCounts(
            hits=hits, cold=cold, capacity=capacity, conflict=conflict
        )
    return out
