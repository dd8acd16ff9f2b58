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

So the engine enumerates one window of ``Δmax + P`` blocks — a
**constant** number — and computes its stack distances once: the first
``Δmax`` blocks are the exact prefix, and each of the last ``P`` blocks
represents one phase (every reuse lies within ``Δmax`` blocks, so its
distances equal those over its own ``Δmax+1``-block window).  Each
phase's histogram is multiplied by its block count ``m_r(n)``.
Everything else (containers whose allocations share cache lines must
share ``Δ``; non-uniform structures) declines to per-region
enumeration, which is always exact.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.locality.regions import FoldCandidate, RegionColumns, region_columns
from repro.simulation.layout import MemoryModel
from repro.simulation.simulator import simulate_region
from repro.simulation.stackdist import stack_distances_array

__all__ = ["FoldedSummary", "try_build_fold", "P_JOINT_MAX", "DELTA_MAX_CAP"]

#: Joint phase count above which folding is declined (window enumeration
#: would approach the cost of full enumeration).
P_JOINT_MAX = 64
#: Block-span bound above which folding is declined.
DELTA_MAX_CAP = 64


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
        "outer_param", "n_expr",
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
        candidate: FoldCandidate,
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
        self.outer_param = candidate.outer_param
        self.n_expr = candidate.n_expr

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


def _append_blocks(
    block: RegionColumns, rest: RegionColumns, blocks: int
) -> RegionColumns | None:
    """Block 0's columns followed by *rest*, its blocks ``1..blocks-1``.

    ``None`` unless every block repeats block 0's container sequence, so
    that each block's events line up with block 0's positions.
    """
    events = block.num_events
    if rest.num_events != (blocks - 1) * events or rest.containers != block.containers:
        return None
    if not np.array_equal(
        rest.container_ids.reshape(blocks - 1, events),
        np.broadcast_to(block.container_ids, (blocks - 1, events)),
    ):
        return None
    return RegionColumns(
        blocks * events,
        block.containers,
        np.concatenate([block.container_ids, rest.container_ids]),
        np.concatenate([block.lines, rest.lines]),
        {
            name: np.concatenate([pos, rest.positions[name] + events])
            for name, pos in block.positions.items()
        },
        {
            name: np.concatenate([matrix, rest.index_matrices[name]])
            for name, matrix in block.index_matrices.items()
        },
    )


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


def try_build_fold(
    sdfg,
    symbols: Mapping[str, int],
    state,
    candidate: FoldCandidate,
    memory: MemoryModel,
    include_transients: bool = False,
    timings=None,
) -> FoldedSummary | None:
    """Build a :class:`FoldedSummary`, or return ``None`` to enumerate.

    Dynamic guards on top of the statics: in-bounds element indices over
    the whole outer extent (so lines stay inside their allocation and
    groups never alias), a uniform byte delta per line-sharing container
    group, bounded phase count and block span, an economic test
    (``n ≥ 2·(Δmax + P·(Δmax+1))``), and a container sequence per
    enumerated block equal to block 0's.
    """
    entry = candidate.entry
    n = candidate.n
    line_size = memory.line_size

    def window(lo: int, hi: int) -> RegionColumns:
        result = simulate_region(
            sdfg, symbols, state, entry,
            include_transients=include_transients, timings=timings,
            outer_slice=(lo, hi),
        )
        return region_columns(result, memory)

    block = window(0, 1)
    block_events = block.num_events
    if block_events == 0:
        return None
    shifts = candidate.container_shifts
    # Every container observed in the block must be statically described
    # and stay inside its allocation over all n blocks.
    for name in block.containers:
        if name not in shifts:
            return None
        layout = memory.layout(name)
        matrix = block.index_matrices[name]
        if matrix.shape[1] != len(layout.shape):
            return None
        shift = shifts[name]
        for d in range(matrix.shape[1]):
            lo = int(matrix[:, d].min()) + min(0, shift[d] * (n - 1))
            hi = int(matrix[:, d].max()) + max(0, shift[d] * (n - 1))
            if lo < 0 or hi >= layout.shape[d]:
                return None

    # Group containers whose allocations share cache lines; within a
    # group the byte delta per block must be uniform, so the group's
    # line pattern translates rigidly and relabeling stays bijective.
    intervals = []
    for name in block.containers:
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

    def delta_bytes(name: str) -> int:
        layout = memory.layout(name)
        return layout.itemsize * sum(
            stride * s for stride, s in zip(layout.strides, shifts[name])
        )

    delta_max = 1
    p_joint = 1
    for group in groups:
        deltas = {delta_bytes(name) for name in group}
        if len(deltas) != 1:
            return None
        delta = deltas.pop()
        if delta == 0:
            continue  # stationary group: period 1, span 1
        period = line_size // math.gcd(abs(delta), line_size)
        member_lines = np.concatenate(
            [block.lines[block.positions[name]] for name in group]
        )
        diam_lines = int(member_lines.max() - member_lines.min())
        span = ((diam_lines + 2) * line_size) // abs(delta) + 1
        p_joint = math.lcm(p_joint, period)
        delta_max = max(delta_max, span)
    if p_joint > P_JOINT_MAX or delta_max > DELTA_MAX_CAP:
        return None
    # Fold only from twice `valid_from` of the symbolic form (engine.py).
    if n < 2 * (delta_max + p_joint * (delta_max + 1)):
        return None

    # One window of blocks [0, Δmax+P) holds the prefix and, as its last
    # P blocks, one representative block per phase.  Every reuse lies
    # within Δmax blocks, so a block's distances over this window equal
    # those over its own (Δmax+1)-block window.  Block 0 is simulated
    # already; the rest of the window is appended to it.
    blocks = delta_max + p_joint
    cols = _append_blocks(block, window(1, blocks), blocks)
    if cols is None:
        return None
    distances = stack_distances_array(cols.lines)
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
        return None
    return FoldedSummary(
        block, dict(shifts), prefix, prefix_distances, phases,
        n, delta_max, p_joint, candidate,
    )
