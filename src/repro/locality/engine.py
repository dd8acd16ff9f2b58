"""The analytic locality engine: per-region analysis plus exact stitching.

:func:`analyze_locality` decomposes a state into regions
(:mod:`repro.locality.regions`), window-folds the single-region affine
case (:mod:`repro.locality.fold`) and enumerates everything else region
by region through the regular simulator.  Region results are stitched
with a *reduced-trace* composition: per region only each line's first
and last occurrence enter a global stack-distance pass, which resolves
every region-first access to its true cross-region reuse distance (or a
global cold miss) — provably equal to running stack distances over the
whole concatenated trace, at the cost of the distinct-line count instead
of the event count.

The :class:`AnalyticLocality` product answers the enumeration pipeline's
queries (``miss_counts``, ``per_element_misses``, ``histogram``, the
per-element distance lists) with exactly equal results; per-element
queries read dense, read-only :class:`ElementCounts` and
:class:`ElementDistances` arrays, which an :class:`ElementMap` presents
as an ``{indices: count}`` mapping without building a dict.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import ItemsView, Mapping, ValuesView
from typing import Iterator

import numpy as np

from repro.locality.fold import (
    FoldedSummary,
    _compose,
    _hist_add,
    _narrow,
    _narrow_distances,
    _scatter,
    try_build_fold,
)
from repro.locality.regions import (
    RegionColumns,
    extract_regions,
    fold_statics,
    region_columns,
)
from repro.sdfg.nodes import MapEntry
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.simulation.cache import MissCounts
from repro.simulation.layout import MemoryModel
from repro.simulation.simulator import AccessPatternSimulator, simulate_region
from repro.simulation.stackdist import stack_distances_array

__all__ = [
    "AnalyticLocality",
    "ElementCounts",
    "ElementDistances",
    "ElementMap",
    "EnumeratedSummary",
    "analyze_locality",
]


class EnumeratedSummary:
    """One region enumerated exactly, with composition hooks.

    Within-region stack distances are exact for every non-first access
    (its reuse window lies inside the region).  Region-first accesses —
    the ``inf`` entries — are resolved by the engine's reduced-trace
    composition; until then they default to cold, which is exact for
    single-region programs and for the first region of any program.

    Of the region's per-event columns only the positions and element
    indices per container are kept, as int32 where they fit, and the
    distances, as float32 where every one is exact: the line ids are
    read by the composition alone (the engine passes them separately),
    and the container ids only at the region-first positions.  The
    product crosses the sweep pool's pipe and lives in the session
    store, so its size matters.
    """

    kind = "enumerated"

    __slots__ = ("num_events", "containers", "positions", "index_matrices",
                 "distances", "first_positions", "first_cids", "resolved")

    def __init__(self, cols: RegionColumns):
        self.num_events = cols.num_events
        self.containers = cols.containers
        self.positions = {
            name: _narrow(pos) for name, pos in cols.positions.items()
        }
        self.index_matrices = {
            name: _narrow(matrix) for name, matrix in cols.index_matrices.items()
        }
        self.distances = _narrow_distances(stack_distances_array(cols.lines))
        # An access is inf exactly when it is its line's first in the region.
        self.first_positions = np.flatnonzero(np.isinf(self.distances))
        self.first_cids = cols.container_ids[self.first_positions]
        #: Resolved distance per region-first access (position order);
        #: ``inf`` = globally cold.  Filled by the engine's composition.
        self.resolved = np.full(self.first_positions.size, np.inf)

    # -- aggregate interface (shared with FoldedSummary) -------------------
    @property
    def total_events(self) -> int:
        return self.num_events

    def events_per_container(self) -> dict[str, int]:
        return {
            name: int(self.positions[name].size)
            for name in self.containers
        }

    def hist_into(self, acc: dict[str, dict[int, int]]) -> None:
        _hist_add(acc, self.positions, self.distances)
        finite = np.isfinite(self.resolved)
        if not finite.any():
            return
        for cid, name in enumerate(self.containers):
            member = (self.first_cids == cid) & finite
            if not member.any():
                continue
            values, counts = np.unique(self.resolved[member], return_counts=True)
            bucket = acc.setdefault(name, {})
            for v, c in zip(values.tolist(), counts.tolist()):
                bucket[int(v)] = bucket.get(int(v), 0) + int(c)

    def cold_into(self, acc: dict[str, int]) -> None:
        cold = np.isinf(self.resolved)
        if not cold.any():
            return
        for cid, name in enumerate(self.containers):
            count = int((cold & (self.first_cids == cid)).sum())
            if count:
                acc[name] = acc.get(name, 0) + count

    def has_container(self, container: str) -> bool:
        return container in self.positions

    def index_span(self, container: str) -> tuple[int, ...]:
        matrix = self.index_matrices[container]
        return tuple(
            int(matrix[:, d].max()) + 1 for d in range(matrix.shape[1])
        )

    def per_element_into(
        self,
        container: str,
        capacity: int,
        mult: np.ndarray,
        dense_total: np.ndarray,
        dense_cold: np.ndarray,
        dense_cap: np.ndarray,
    ) -> None:
        keys, d = self.distances_of(container, mult)
        _scatter(dense_total, keys)
        _scatter(dense_cold, keys[np.isinf(d)])
        _scatter(dense_cap, keys[np.isfinite(d) & (d >= capacity)])

    def distances_of(self, container: str, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """*container*'s keys (row-major under *mult*) and distances
        (float64, ``inf`` = cold), in trace order, each region-first
        replaced by its resolution."""
        pos = self.positions[container]
        distances = self.distances[pos].astype(np.float64)
        first = np.isinf(distances)
        if first.any():
            distances[first] = self.resolved[np.searchsorted(self.first_positions, pos[first])]
        return self.index_matrices[container] @ mult, distances


def _reduced(summary: EnumeratedSummary, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An enumerated region's reduced trace for :func:`_compose`: each
    line's first and last occurrence (``lines`` is the region's line
    trace), in order, and which of them are firsts.  A line touched in a
    reuse window that ends in a later region has its last occurrence in
    the window when its region is the window's first, its first
    occurrence when its region is the window's last, and both when its
    region lies in between."""
    _, reversed_idx = np.unique(lines[::-1], return_index=True)
    kept = np.union1d(summary.first_positions, lines.size - 1 - reversed_idx)
    return lines[kept], np.isin(kept, summary.first_positions)


def _miss_counts(total: int, cold: int, capacity: int) -> MissCounts:
    return MissCounts(hits=total - cold - capacity, cold=cold, capacity=capacity)


class _Elements:
    """The elements of one container the program accesses: ``present``
    lists their row-major positions over ``shape`` (the accessed index
    span), ascending."""

    __slots__ = ("shape", "present")

    def indices(self) -> Iterator[tuple[int, ...]]:
        """Each present element's index tuple, in ``present`` order."""
        if not self.shape:
            return itertools.repeat((), self.present.size)
        columns = np.unravel_index(self.present, self.shape)
        return zip(*(column.tolist() for column in columns))


class ElementCounts(_Elements):
    """Dense per-element counts of one container at one capacity.

    ``total``, ``cold`` and ``capacity`` hold each present element's
    access, cold-miss and capacity-miss counts, aligned with
    ``present``.  Plain arrays, read-only once the engine built them
    (they are its memo): a per-element view reads them through an
    :class:`ElementMap`, with no object per element.
    """

    __slots__ = ("total", "cold", "capacity")

    def __init__(
        self,
        shape: tuple[int, ...],
        present: np.ndarray,
        total: np.ndarray,
        cold: np.ndarray,
        capacity: np.ndarray,
    ):
        self.shape = shape
        self.present = present
        self.total = total
        self.cold = cold
        self.capacity = capacity

    @property
    def misses(self) -> np.ndarray:
        return self.cold + self.capacity


class ElementDistances(_Elements):
    """Per-element stack distances of one container.

    Present element ``i``'s distances, in trace order (``inf`` = cold),
    are ``distances[bounds[i]:bounds[i + 1]]``.  Read-only once the
    engine built them (they are its memo).
    """

    __slots__ = ("bounds", "distances")

    def __init__(
        self,
        shape: tuple[int, ...],
        present: np.ndarray,
        bounds: np.ndarray,
        distances: np.ndarray,
    ):
        self.shape = shape
        self.present = present
        self.bounds = bounds
        self.distances = distances

    def lists(self) -> list[list[float]]:
        """Each present element's distances as a list, in ``present``
        order."""
        flat = self.distances.tolist()
        bounds = self.bounds.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    def statistic(self, stat: str) -> tuple[np.ndarray, np.ndarray]:
        """Each element's ``"min"``, ``"median"`` or ``"max"`` finite
        distance: a mask over ``present`` of the elements with one, and
        their values — a median of two middle values is their mean, as
        :func:`statistics.median` takes it."""
        finite = np.isfinite(self.distances)
        owner = np.repeat(np.arange(self.present.size), np.diff(self.bounds))[finite]
        values = self.distances[finite]
        values = values[np.lexsort((values, owner))]
        count = np.bincount(owner, minlength=self.present.size)
        has = count > 0
        start = (np.cumsum(count) - count)[has]
        count = count[has]
        low = {"min": 0, "median": (count - 1) // 2, "max": count - 1}[stat]
        high = {"min": 0, "median": count // 2, "max": count - 1}[stat]
        return has, (values[start + low] + values[start + high]) / 2


class ElementMap(Mapping):
    """A read-only ``{indices: count}`` mapping over :class:`ElementCounts`
    and one of its count arrays.

    Equal to the dict ``dict(zip(elements.indices(), counts.tolist()))``
    — same length, iteration order (row-major), lookups and ``values()``
    order — but it keeps the arrays: a lookup finds the element's
    row-major position by binary search, and only iteration builds index
    tuples.  :func:`~repro.viz.containerview.render_container` scatters
    :attr:`positions` and :attr:`counts` straight onto its grid.
    """

    __slots__ = ("_elements", "counts")

    def __init__(self, elements: ElementCounts, counts: np.ndarray):
        self._elements = elements
        #: One count per present element, aligned with :attr:`positions`.
        self.counts = _read_only(counts.view())

    @property
    def shape(self) -> tuple[int, ...]:
        """The index span :attr:`positions` are row-major over."""
        return self._elements.shape

    @property
    def positions(self) -> np.ndarray:
        """The present elements' row-major positions, ascending."""
        return self._elements.present

    def _find(self, key) -> int | None:
        """Where *key*'s count sits in :attr:`counts`; ``None`` when the
        mapping has no such key."""
        shape = self._elements.shape
        if not isinstance(key, tuple) or len(key) != len(shape):
            return None
        flat = 0
        try:
            for i, extent in zip(key, shape):
                if not 0 <= i < extent or i % 1:
                    return None
                flat = flat * extent + int(i)
        except TypeError:
            return None
        positions = self._elements.present
        at = int(np.searchsorted(positions, flat))
        if at < positions.size and positions[at] == flat:
            return at
        return None

    def __getitem__(self, key) -> int:
        at = self._find(key)
        if at is None:
            raise KeyError(key)
        return self.counts[at].item()

    def __contains__(self, key) -> bool:
        return self._find(key) is not None

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return self._elements.indices()

    def __len__(self) -> int:
        return self._elements.present.size

    def values(self) -> ValuesView:
        return _ElementValues(self)

    def items(self) -> ItemsView:
        return _ElementItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _ElementValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping.counts.tolist())


class _ElementItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping.counts.tolist())


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _row_major(shape: tuple[int, ...]) -> np.ndarray:
    """The multipliers that flatten an index over *shape* row-major."""
    mult = np.ones(len(shape), dtype=np.int64)
    for d in range(len(shape) - 2, -1, -1):
        mult[d] = mult[d + 1] * shape[d + 1]
    return mult


class AnalyticLocality:
    """The engine's product: exact locality aggregates without full traces.

    ``declined`` counts the enumerated regions by the guard that
    declined their fold (:data:`~repro.locality.fold.DECLINE_GUARDS`);
    its counts sum to ``fallback_regions``.

    Picklable (plain data and NumPy arrays only), so it caches and ships
    through sweep worker pools like any other pass product.
    """

    __slots__ = (
        "containers", "events_per_container", "total_events",
        "analytic_regions", "fallback_regions", "declined", "line_size",
        "_summaries", "_hist", "_cold", "_element_cache",
    )

    def __init__(
        self,
        summaries: list,
        analytic_regions: int,
        fallback_regions: int,
        line_size: int,
        declined: dict[str, int],
    ):
        self._summaries = summaries
        self.analytic_regions = analytic_regions
        self.fallback_regions = fallback_regions
        self.declined = declined
        self.line_size = line_size
        self.containers: list[str] = []
        self.events_per_container: dict[str, int] = {}
        for summary in summaries:
            for name, count in summary.events_per_container().items():
                if name not in self.events_per_container:
                    self.containers.append(name)
                    self.events_per_container[name] = 0
                self.events_per_container[name] += count
        self.total_events = sum(s.total_events for s in summaries)
        self._hist: dict[str, dict[int, int]] | None = None
        self._cold: dict[str, int] | None = None
        self._element_cache: dict = {}

    # -- aggregates --------------------------------------------------------
    def _aggregates(self) -> tuple[dict[str, dict[int, int]], dict[str, int]]:
        if self._hist is None:
            hist: dict[str, dict[int, int]] = {}
            cold: dict[str, int] = {name: 0 for name in self.containers}
            for summary in self._summaries:
                summary.hist_into(hist)
                summary.cold_into(cold)
            self._hist = hist
            self._cold = cold
        return self._hist, self._cold

    def histogram(self, container: str) -> dict[int, int]:
        """Reuse-distance histogram (finite distances) of one container."""
        hist, _ = self._aggregates()
        return dict(hist.get(container, {}))

    def cold_misses(self) -> dict[str, int]:
        _, cold = self._aggregates()
        return dict(cold)

    def miss_counts(self, capacity_lines: int) -> dict[str, MissCounts]:
        """Per-container miss classification — equals the enumeration
        pipeline's ``local.classify`` product."""
        hist, cold = self._aggregates()
        out: dict[str, MissCounts] = {}
        for name in self.containers:
            total = self.events_per_container[name]
            k = cold.get(name, 0)
            p = sum(
                count for distance, count in hist.get(name, {}).items()
                if distance >= capacity_lines
            )
            out[name] = MissCounts(hits=total - k - p, cold=k, capacity=p)
        return out

    # -- per-element aggregates --------------------------------------------
    def _element_shape(self, container: str) -> tuple[int, ...] | None:
        spans = [
            s.index_span(container)
            for s in self._summaries
            if s.has_container(container)
        ]
        if not spans:
            return None
        return tuple(max(dims) for dims in zip(*spans)) if spans[0] else ()

    def element_counts(self, container: str, capacity_lines: int) -> ElementCounts:
        """Dense per-element counts of one container, memoized per
        ``(container, capacity_lines)``; empty for a container the
        program never accesses."""
        key = (container, capacity_lines)
        counts = self._element_cache.get(key)
        if counts is None:
            counts = self._element_cache[key] = self._count_elements(
                container, capacity_lines
            )
        return counts

    def _count_elements(self, container: str, capacity_lines: int) -> ElementCounts:
        shape = self._element_shape(container)
        if shape is None:
            empty = _read_only(np.zeros(0, dtype=np.int32))
            return ElementCounts((), empty, empty, empty, empty)
        mult = _row_major(shape)
        size = math.prod(shape)
        dense_total = np.zeros(size, dtype=np.int64)
        dense_cold = np.zeros(size, dtype=np.int64)
        dense_cap = np.zeros(size, dtype=np.int64)
        for summary in self._summaries:
            if summary.has_container(container):
                summary.per_element_into(
                    container, capacity_lines, mult,
                    dense_total, dense_cold, dense_cap,
                )
        present = np.flatnonzero(dense_total)
        # Narrowed together: cold + capacity <= total, so sums fit too.
        total = _narrow(dense_total[present])
        # Read-only: the arrays are the product's memo, and every later
        # per-element view reads them.
        return ElementCounts(
            shape,
            _read_only(_narrow(present)),
            _read_only(total),
            _read_only(dense_cold[present].astype(total.dtype)),
            _read_only(dense_cap[present].astype(total.dtype)),
        )

    def element_distances(self, container: str) -> ElementDistances:
        """Per-element stack-distance lists of one container, memoized
        (they do not depend on the capacity); equal to
        :func:`~repro.simulation.arrays.element_distance_lists`, and
        empty for a container the program never accesses."""
        key = (container, None)
        elements = self._element_cache.get(key)
        if elements is None:
            elements = self._element_cache[key] = self._group_distances(container)
        return elements

    def _group_distances(self, container: str) -> ElementDistances:
        shape = self._element_shape(container)
        if shape is None:
            empty = _read_only(np.zeros(0, dtype=np.int32))
            return ElementDistances((), empty, _read_only(np.zeros(1, dtype=np.int64)), empty)
        mult = _row_major(shape)
        keys, distances = zip(*(
            summary.distances_of(container, mult)
            for summary in self._summaries
            if summary.has_container(container)
        ))
        keys = np.concatenate(keys)
        # Stable: each element's distances stay in trace order.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        return ElementDistances(
            shape,
            _read_only(_narrow(keys[starts])),
            _read_only(np.append(starts, keys.size)),
            _read_only(np.concatenate(distances)[order]),
        )

    def per_element_misses(
        self, container: str, capacity_lines: int
    ) -> dict[tuple[int, ...], MissCounts]:
        """Per-element miss counts — equals
        :func:`~repro.simulation.arrays.per_element_misses_array`; built
        from :meth:`element_counts` on each call."""
        counts = self.element_counts(container, capacity_lines)
        return dict(zip(counts.indices(), map(
            _miss_counts,
            counts.total.tolist(),
            counts.cold.tolist(),
            counts.capacity.tolist(),
        )))

    def __repr__(self) -> str:
        return (
            f"AnalyticLocality(events={self.total_events}, "
            f"folded={self.analytic_regions}, "
            f"enumerated={self.fallback_regions})"
        )


def analyze_locality(
    sdfg: SDFG,
    symbols: Mapping[str, int],
    state: SDFGState | None = None,
    line_size: int = 64,
    include_transients: bool = False,
    timings=None,
) -> AnalyticLocality:
    """Run the analytic locality engine over a parameterized program.

    Single-region affine maps with uniform outer shift fold to a
    constant number of enumerated blocks; every other region enumerates
    through the simulator and the per-region results stitch exactly.
    The returned product equals the enumeration pipeline on every query.
    """
    env = {k: int(v) for k, v in symbols.items()}
    # One simulator serves every region: a missing symbol raises here,
    # before any event is recorded.
    simulator = AccessPatternSimulator(
        sdfg, env, include_transients=include_transients, timings=timings
    )
    memory = MemoryModel(sdfg, env, line_size=line_size)
    regions = extract_regions(sdfg, state)
    single = len(regions) == 1
    summaries: list = []
    # Line trace per summary, read by the composition only.
    lines: list[np.ndarray] = []
    folded = 0
    enumerated = 0
    declined: dict[str, int] = {}
    for region in regions:
        outcome = "multi_region" if not single else "statics"
        if single and isinstance(region.node, MapEntry):
            candidate = fold_statics(
                sdfg, region.state, region.node, env,
                include_transients=include_transients,
            )
            if candidate is not None:
                outcome = try_build_fold(simulator, region.state, candidate, memory)
        if isinstance(outcome, FoldedSummary):
            folded += 1
            summaries.append(outcome)
            continue
        # A declined region is simulated once, here; its trace is dropped
        # before its stack distances are taken, and its columns before the
        # next region is simulated.
        declined[outcome] = declined.get(outcome, 0) + 1
        enumerated += 1
        cols = region_columns(simulate_region(simulator, region.state, region.node), memory)
        if cols.num_events:
            summaries.append(EnumeratedSummary(cols))
            lines.append(cols.lines)
        del cols
    if len(summaries) > 1:
        resolved = _compose([_reduced(s, l) for s, l in zip(summaries, lines)])
        for summary, distances in zip(summaries, resolved):
            summary.resolved = distances
    return AnalyticLocality(summaries, folded, enumerated, line_size, declined)
