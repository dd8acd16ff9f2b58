"""Window-folding of uniform-shift map regions (the closed-form core).

For a foldable region (:func:`~repro.locality.regions.fold_statics`)
every access moves by a constant byte delta per outer-loop iteration.
Cache-line ids therefore repeat with period ``P = L / gcd(|Δ|, L)``
outer blocks (shifted by a whole number of lines per period), and a line
touched in two blocks more than ``Δmax ≈ diameter/|Δ|`` apart would
require the block's address window to overlap itself after drifting past
its own span — impossible.  Two consequences carry the whole analysis:

- an access whose line was not referenced in the previous ``Δmax``
  blocks is the region's *first* touch of that line (a cold miss in a
  single-region program), and
- the reuse-distance multiset of block ``t`` depends only on
  ``t mod P`` once ``t ≥ Δmax``, because the window of the last ``Δmax``
  blocks is the same line pattern up to a per-group constant relabeling.

Every guard that precedes the window — in-bounds indices, line-sharing
groups and their ``Δ``, ``P``, ``Δmax``, the caps and the economic test
— is decided by :func:`fold_geometry` from the candidate's access boxes
and the memory layout, before anything is simulated.  A region that
passes simulates one window of ``Δmax + P`` blocks — a **constant**
number — in one :func:`simulate_region` call and computes its stack
distances once: the first ``Δmax`` blocks are the exact prefix, and
each of the last ``P`` blocks represents one phase (every reuse lies
within ``Δmax`` blocks, so its distances equal those over its own
``Δmax+1``-block window).  Each phase's histogram is multiplied by its
block count ``m_r(n)``.  A region that fails a guard, or whose window
disagrees with the statics, declines to per-region enumeration, which
is always exact; :data:`DECLINE_GUARDS` names every reason.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.locality.regions import FoldCandidate, RegionColumns, region_columns
from repro.simulation.layout import MemoryModel
from repro.simulation.simulator import simulate_region
from repro.simulation.stackdist import stack_distances_array

__all__ = [
    "DECLINE_GUARDS",
    "DELTA_MAX_CAP",
    "FoldGeometry",
    "FoldedSummary",
    "P_JOINT_MAX",
    "fold_geometry",
    "try_build_fold",
]

#: Joint phase count above which folding is declined (window enumeration
#: would approach the cost of full enumeration).
P_JOINT_MAX = 64
#: Block-span bound above which folding is declined.
DELTA_MAX_CAP = 64
#: Why a region enumerates instead of folding, in the order the engine
#: asks: more than one region in the program, the statics of
#: :func:`~repro.locality.regions.fold_statics`, then the guards of
#: :func:`fold_geometry` and the simulated window's checks.
DECLINE_GUARDS = (
    "multi_region", "statics", "bounds", "shared_line", "caps", "economic", "window",
)


class _Phase:
    """One steady-state phase: its first block, block count, and the
    representative block's per-event lines and exact reuse distances."""

    __slots__ = ("t", "m", "lines", "distances")

    def __init__(self, t: int, m: int, lines: np.ndarray, distances: np.ndarray):
        self.t = t
        self.m = m
        self.lines = lines
        self.distances = distances


def _scatter(dense: np.ndarray, keys: np.ndarray) -> None:
    """``dense[keys] += 1`` via :func:`np.bincount` (much faster than
    ``np.add.at`` at the event counts the engine scatters)."""
    if keys.size:
        dense += np.bincount(keys, minlength=dense.size)


def _hist_add(acc, cols, distances: np.ndarray, weight: int = 1,
              positions=None) -> None:
    """Accumulate finite distances into per-container histograms.

    *cols* lists ``containers`` and their event ``positions``: a
    :class:`RegionColumns` or an enumerated region's summary.
    """
    for name in cols.containers:
        pos = cols.positions[name] if positions is None else positions[name]
        d = distances[pos]
        finite = np.isfinite(d)
        if not finite.any():
            continue
        values, counts = np.unique(d[finite], return_counts=True)
        bucket = acc.setdefault(name, {})
        for v, c in zip(values.tolist(), counts.tolist()):
            key = int(v)
            bucket[key] = bucket.get(key, 0) + int(c) * weight


class FoldedSummary:
    """Closed-form region summary built from ``Δmax + P`` enumerated blocks.

    Holds the exact prefix trace (blocks ``[0, Δmax)``), one
    representative block per phase, the block-0 element structure, and
    the per-container outer shifts — enough to answer every aggregate
    the enumeration pipeline answers, for any outer extent, without
    touching the remaining ``n − Δmax`` blocks.
    """

    kind = "folded"

    __slots__ = (
        "block", "shifts", "prefix", "prefix_distances", "phases",
        "n", "block_events", "delta_max", "p_joint",
    )

    def __init__(
        self,
        block: RegionColumns,
        shifts: dict[str, tuple[int, ...]],
        prefix: RegionColumns,
        prefix_distances: np.ndarray,
        phases: list[_Phase],
        n: int,
        delta_max: int,
        p_joint: int,
    ):
        self.block = block
        self.shifts = shifts
        self.prefix = prefix
        self.prefix_distances = prefix_distances
        self.phases = phases
        self.n = n
        self.block_events = block.num_events
        self.delta_max = delta_max
        self.p_joint = p_joint

    # -- aggregate interface (shared with EnumeratedSummary) ---------------
    @property
    def total_events(self) -> int:
        return self.block_events * self.n

    def events_per_container(self) -> dict[str, int]:
        return {
            name: int(self.block.positions[name].size) * self.n
            for name in self.block.containers
        }

    def hist_into(self, acc: dict[str, dict[int, int]]) -> None:
        _hist_add(acc, self.prefix, self.prefix_distances)
        for phase in self.phases:
            _hist_add(acc, self.block, phase.distances, weight=phase.m)

    def cold_into(self, acc: dict[str, int]) -> None:
        for name in self.block.containers:
            count = int(np.isinf(self.prefix_distances[self.prefix.positions[name]]).sum())
            pos = self.block.positions[name]
            for phase in self.phases:
                count += int(np.isinf(phase.distances[pos]).sum()) * phase.m
            if count:
                acc[name] = acc.get(name, 0) + count

    def has_container(self, container: str) -> bool:
        return container in self.block.positions

    def index_span(self, container: str) -> tuple[int, ...]:
        matrix = self.block.index_matrices[container]
        shift = self.shifts[container]
        return tuple(
            int(matrix[:, d].max()) + max(0, shift[d] * (self.n - 1)) + 1
            for d in range(matrix.shape[1])
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
        prefix_pos = self.prefix.positions.get(container)
        if prefix_pos is not None and prefix_pos.size:
            keys = self.prefix.index_matrices[container] @ mult
            _scatter(dense_total, keys)
            d = self.prefix_distances[prefix_pos]
            cold = np.isinf(d)
            if cold.any():
                _scatter(dense_cold, keys[cold])
            cap = np.isfinite(d) & (d >= capacity)
            if cap.any():
                _scatter(dense_cap, keys[cap])
        block_pos = self.block.positions.get(container)
        if block_pos is None or not block_pos.size:
            return
        base0 = self.block.index_matrices[container] @ mult
        delta = int(
            np.asarray(self.shifts[container], dtype=np.int64) @ mult
        ) if mult.size else 0
        stride = delta * self.p_joint
        for phase in self.phases:
            d = phase.distances[block_pos]
            cold = np.isinf(d)
            cap = np.isfinite(d) & (d >= capacity)
            base = base0 + delta * phase.t
            base_cold = base[cold]
            base_cap = base[cap]
            # All m block copies of the phase touch `base + k·stride`;
            # scatter them in bounded-memory chunks of outer iterations.
            chunk = max(1, 4_000_000 // max(1, base.size))
            for k0 in range(0, phase.m, chunk):
                offsets = (
                    np.arange(k0, min(k0 + chunk, phase.m), dtype=np.int64)
                    * stride
                )[:, None]
                _scatter(dense_total, (base[None, :] + offsets).ravel())
                if base_cold.size:
                    _scatter(dense_cold, (base_cold[None, :] + offsets).ravel())
                if base_cap.size:
                    _scatter(dense_cap, (base_cap[None, :] + offsets).ravel())


def _leading(cols: RegionColumns, num_events: int) -> RegionColumns:
    """Copies of the first *num_events* events of *cols*.

    Positions are sorted, so each container's cut is one
    :func:`np.searchsorted`; copies keep the long window collectable.
    """
    cuts = {
        name: int(np.searchsorted(pos, num_events))
        for name, pos in cols.positions.items()
    }
    return RegionColumns(
        num_events,
        cols.containers,
        cols.container_ids[:num_events].copy(),
        cols.lines[:num_events].copy(),
        {name: cols.positions[name][:cut].copy() for name, cut in cuts.items()},
        {name: cols.index_matrices[name][:cut].copy() for name, cut in cuts.items()},
    )


class FoldGeometry:
    """Every pre-window guard of a fold, decided without simulating.

    Derived from a :class:`FoldCandidate`'s access boxes and the memory
    layout: ``index_bounds[c]`` holds container *c*'s per-dimension
    ``(min, max)`` element index over outer block 0 and
    ``line_bounds[c]`` its ``(min, max)`` cache line; ``groups`` lists
    the containers whose allocations share cache lines (in address
    order) and ``deltas`` each group's set of byte deltas per block.
    ``p_joint`` and ``delta_max`` are ``None`` when a group's delta is
    not uniform.  ``guard`` names the first guard that declines the
    fold (in :data:`DECLINE_GUARDS` order), or is ``None``.
    """

    __slots__ = ("index_bounds", "line_bounds", "groups", "deltas",
                 "p_joint", "delta_max", "guard")

    def __init__(self) -> None:
        self.index_bounds: dict[str, list[tuple[int, int]]] = {}
        self.line_bounds: dict[str, tuple[int, int]] = {}
        self.groups: list[list[str]] = []
        self.deltas: list[set[int]] = []
        self.p_joint: int | None = None
        self.delta_max: int | None = None
        self.guard: str | None = None


def _line_groups(containers, memory: MemoryModel) -> list[list[str]]:
    """Containers whose allocations share cache lines, in address order."""
    line_size = memory.line_size
    intervals = []
    for name in containers:
        layout = memory.layout(name)
        intervals.append((
            layout.base_address // line_size,
            (layout.end_address() - 1) // line_size,
            name,
        ))
    intervals.sort()
    groups: list[list[str]] = [[intervals[0][2]]]
    reach = intervals[0][1]
    for start, end, name in intervals[1:]:
        if start <= reach:
            groups[-1].append(name)
            reach = max(reach, end)
        else:
            groups.append([name])
            reach = end
    return groups


def fold_geometry(candidate: FoldCandidate, memory: MemoryModel) -> FoldGeometry:
    """Decide the fold's guards from the statics, in order:

    - ``bounds``: every element index stays inside its container over
      all ``n`` blocks (so lines stay inside their allocation and groups
      never alias);
    - ``shared_line``: containers whose allocations share cache lines
      move by one byte delta ``Δ`` per block, so the group's line
      pattern translates rigidly and relabeling stays bijective;
    - ``caps``: the joint period ``P`` (lcm over groups of
      ``L / gcd(|Δ|, L)``) and the block span ``Δmax`` (from block 0's
      line diameter per group) stay within :data:`P_JOINT_MAX` and
      :data:`DELTA_MAX_CAP`;
    - ``economic``: ``n ≥ 2·(Δmax + P)``, so the one window of
      ``Δmax + P`` blocks the fold enumerates is at most half the
      region.
    """
    geometry = FoldGeometry()
    n = candidate.n
    line_size = memory.line_size
    shifts = candidate.container_shifts
    byte_bounds: dict[str, tuple[int, int]] = {}
    for box in candidate.boxes:
        layout = memory.layout(box.data)
        if len(box.bases[0]) != len(layout.shape):
            geometry.guard = "bounds"
            return geometry
        dims = box.index_bounds()
        lo, hi = box.bounds(layout.strides)
        lo = layout.base_address + (layout.start_offset + lo) * layout.itemsize
        hi = layout.base_address + (layout.start_offset + hi) * layout.itemsize
        known = geometry.index_bounds.get(box.data)
        if known is not None:
            dims = [
                (min(a, c), max(b, e)) for (a, b), (c, e) in zip(known, dims)
            ]
            lo = min(lo, byte_bounds[box.data][0])
            hi = max(hi, byte_bounds[box.data][1])
        geometry.index_bounds[box.data] = dims
        byte_bounds[box.data] = (lo, hi)
    for name, dims in geometry.index_bounds.items():
        geometry.line_bounds[name] = (
            byte_bounds[name][0] // line_size, byte_bounds[name][1] // line_size
        )
        layout = memory.layout(name)
        for (lo, hi), shift, extent in zip(dims, shifts[name], layout.shape):
            if (
                lo + min(0, shift * (n - 1)) < 0
                or hi + max(0, shift * (n - 1)) >= extent
            ):
                geometry.guard = geometry.guard or "bounds"

    def delta_bytes(name: str) -> int:
        layout = memory.layout(name)
        return layout.itemsize * sum(
            stride * s for stride, s in zip(layout.strides, shifts[name])
        )

    geometry.groups = _line_groups(geometry.index_bounds, memory)
    geometry.deltas = [
        {delta_bytes(name) for name in group} for group in geometry.groups
    ]
    if any(len(deltas) != 1 for deltas in geometry.deltas):
        geometry.guard = geometry.guard or "shared_line"
        return geometry
    delta_max = 1
    p_joint = 1
    for group, (delta,) in zip(geometry.groups, geometry.deltas):
        if delta == 0:
            continue  # stationary group: period 1, span 1
        period = line_size // math.gcd(abs(delta), line_size)
        diam_lines = (
            max(geometry.line_bounds[name][1] for name in group)
            - min(geometry.line_bounds[name][0] for name in group)
        )
        span = ((diam_lines + 2) * line_size) // abs(delta) + 1
        p_joint = math.lcm(p_joint, period)
        delta_max = max(delta_max, span)
    geometry.p_joint = p_joint
    geometry.delta_max = delta_max
    if p_joint > P_JOINT_MAX or delta_max > DELTA_MAX_CAP:
        geometry.guard = geometry.guard or "caps"
    elif n < 2 * (delta_max + p_joint):
        geometry.guard = geometry.guard or "economic"
    return geometry


def _window_agrees(
    geometry: FoldGeometry, cols: RegionColumns, blocks: int, block_events: int
) -> bool:
    """Whether the simulated window is the one the statics describe.

    Its event count is ``blocks`` blocks of ``block_events``, every
    block repeats block 0's container sequence (so each block's events
    line up with block 0's positions), and block 0 touches exactly the
    containers, index bounds and line bounds of the geometry.
    """
    if cols.num_events != blocks * block_events:
        return False
    ids = cols.container_ids.reshape(blocks, block_events)
    if not (ids == ids[0]).all() or len(cols.containers) != len(geometry.index_bounds):
        return False
    for name, pos in cols.positions.items():
        dims = geometry.index_bounds.get(name)
        if dims is None:
            return False
        cut = int(np.searchsorted(pos, block_events))
        matrix = cols.index_matrices[name][:cut]
        if dims != list(zip(matrix.min(axis=0).tolist(), matrix.max(axis=0).tolist())):
            return False
        lines = cols.lines[pos[:cut]]
        if geometry.line_bounds[name] != (int(lines.min()), int(lines.max())):
            return False
    return True


def try_build_fold(
    sdfg,
    symbols: Mapping[str, int],
    state,
    candidate: FoldCandidate,
    memory: MemoryModel,
    include_transients: bool = False,
    timings=None,
) -> FoldedSummary | str:
    """Build a :class:`FoldedSummary`, or name the guard that declines
    it (one of :data:`DECLINE_GUARDS`) so the caller enumerates.

    The guards of :func:`fold_geometry` are decided before anything is
    simulated.  A region that passes them simulates its window of
    blocks ``[0, Δmax+P)`` in one :func:`simulate_region` call, and the
    window declines (``window``) unless :func:`_window_agrees`: a wrong
    static value costs time, never exactness.
    """
    geometry = fold_geometry(candidate, memory)
    if geometry.guard is not None:
        return geometry.guard
    n = candidate.n
    block_events = candidate.block_events
    delta_max = geometry.delta_max
    p_joint = geometry.p_joint

    # One window of blocks [0, Δmax+P) holds the prefix and, as its last
    # P blocks, one representative block per phase.  Every reuse lies
    # within Δmax blocks, so a block's distances over this window equal
    # those over its own (Δmax+1)-block window.
    blocks = delta_max + p_joint
    result = simulate_region(
        sdfg, symbols, state, candidate.entry,
        include_transients=include_transients, timings=timings,
        outer_slice=(0, blocks),
    )
    cols = region_columns(result, memory)
    if not _window_agrees(geometry, cols, blocks, block_events):
        return "window"
    distances = stack_distances_array(cols.lines)
    block = _leading(cols, block_events)
    prefix = _leading(cols, delta_max * block_events)
    prefix_distances = distances[:prefix.num_events].copy()

    phases: list[_Phase] = []
    covered = 0
    for r in range(p_joint):
        t_r = delta_max + ((r - delta_max) % p_joint)
        tail = slice(t_r * block_events, (t_r + 1) * block_events)
        m_r = (n - 1 - t_r) // p_joint + 1
        phases.append(
            _Phase(t_r, m_r, cols.lines[tail].copy(), distances[tail].copy())
        )
        covered += m_r
    if covered != n - delta_max:
        return "window"
    return FoldedSummary(
        block, dict(candidate.container_shifts), prefix, prefix_distances,
        phases, n, delta_max, p_joint,
    )
