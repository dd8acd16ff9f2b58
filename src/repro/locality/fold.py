"""Window-folding of uniform-shift map regions (the closed-form core).

For a foldable region (:func:`~repro.locality.regions.fold_statics`)
every access to a container moves by a constant byte delta ``Δ`` per
outer-loop iteration.  :func:`fold_geometry` splits each container's
block-0 addresses into *clusters* whose byte hulls over the ``n``
blocks stay apart (a K-major plane, one allocation).  A cluster
translates rigidly: its cache lines repeat with period
``P = L / gcd(|Δ|, L)`` outer blocks (shifted by a whole number of
lines per period), and a line it touches in two blocks more than
``Δmax ≈ diameter/|Δ|`` apart would require its address window to
overlap itself after drifting past its own span — impossible.

The window is folded over *virtual* lines: each line id tagged with the
cluster that touches it, so every cluster translates on its own.  Two
consequences carry the whole analysis:

- an access whose virtual line was not referenced in the previous
  ``Δmax`` blocks is that virtual line's first touch, and
- the virtual reuse-distance multiset of block ``t`` depends only on
  ``t mod P`` once ``t ≥ Δmax``, because the window of the last ``Δmax``
  blocks is the same line pattern up to a per-cluster constant
  relabeling.

Virtual and real distances differ only where two clusters touch one
real line (two planes or two allocations meeting mid-line).  The
``shared_line`` guard admits that only when the blocks in which the two
clusters touch the line are more than ``Δmax`` apart: then no reuse
window holds both copies, and the one access whose real distance
differs — the first touch of a later copy — is resolved exactly by the
reduced-trace composition (:func:`_compose`), fed with the first and
last occurrence of every moving virtual line, read from the window
alone; the lines of stationary containers, touched in every block, lie
in every such reuse window and are counted directly.

Every guard that precedes the window — in-bounds indices, clusters and
the shared-line separation, ``P``, ``Δmax``, the caps and the economic
test — is decided by :func:`fold_geometry` from the candidate's access
boxes and the memory layout, before anything is simulated.  A region
that passes simulates one window of ``Δmax + P`` blocks — a **constant**
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

import numpy as np

from repro.locality.regions import (
    AccessBox,
    FoldCandidate,
    RegionColumns,
    merge_runs,
    region_columns,
)
from repro.simulation.layout import MemoryModel
from repro.simulation.simulator import AccessPatternSimulator, simulate_region
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
#: The cluster gap of a stationary container: it stays one cluster, since
#: its lines are reused every block whatever its diameter.
_UNBOUNDED = int(np.iinfo(np.int64).max)


def _narrow(array: np.ndarray) -> np.ndarray:
    """A copy of a non-negative int64 *array*, as int32 when its values fit."""
    if array.size and array.max() > np.iinfo(np.int32).max:
        return array.copy()
    return array.astype(np.int32)


def _narrow_distances(distances: np.ndarray) -> np.ndarray:
    """Stack distances as float32 when every finite one is exact in it:
    a distance counts distinct lines, so it is below the event count."""
    if distances.size <= 1 << 24:
        return distances.astype(np.float32)
    return distances


def _scatter(dense: np.ndarray, keys: np.ndarray) -> None:
    """``dense[keys] += 1`` via :func:`np.bincount` (much faster than
    ``np.add.at`` at the event counts the engine scatters)."""
    if keys.size:
        dense += np.bincount(keys, minlength=dense.size)


def _hist_add(acc, positions: dict[str, np.ndarray], distances: np.ndarray,
              weight: int = 1) -> None:
    """Accumulate the finite *distances* at each container's *positions*,
    each counted *weight* times, into per-container histograms."""
    for name, pos in positions.items():
        d = distances[pos]
        finite = np.isfinite(d)
        if not finite.any():
            continue
        values, counts = np.unique(d[finite], return_counts=True)
        bucket = acc.setdefault(name, {})
        for v, c in zip(values.tolist(), counts.tolist()):
            bucket[int(v)] = bucket.get(int(v), 0) + int(c) * weight


class FoldedSummary:
    """Closed-form region summary built from ``Δmax + P`` enumerated blocks.

    ``window[t]`` holds the virtual reuse distances of window block
    ``t``: the exact prefix (blocks ``t < Δmax``), then one
    representative per phase, which stands for every block ``t' ≥ Δmax``
    with ``t' ≡ t (mod P)``.  Block ``t`` repeats block 0 shifted ``t``
    times, so block 0's positions and index matrices per container
    (int32 where they fit; the distances float32 where exact) and the
    per-container outer shifts answer every aggregate the enumeration
    pipeline answers, for any outer extent, without touching the
    remaining blocks.  ``late[c]`` lists the region positions and real
    distances of container *c*'s accesses that are a virtual first touch
    but a real reuse (the first touch of a later copy of a shared line),
    which the aggregates move from cold to reuse.
    """

    kind = "folded"

    __slots__ = (
        "block", "shifts", "window", "n", "block_events", "delta_max",
        "p_joint", "late",
    )

    def __init__(
        self,
        block: RegionColumns,
        shifts: dict[str, tuple[int, ...]],
        window: np.ndarray,
        n: int,
        delta_max: int,
        p_joint: int,
        late: dict[str, tuple[np.ndarray, np.ndarray]],
    ):
        self.block = block
        self.shifts = shifts
        self.window = window
        self.n = n
        self.block_events = block.num_events
        self.delta_max = delta_max
        self.p_joint = p_joint
        self.late = late

    def _weights(self) -> list[int]:
        """How many of the ``n`` blocks each window row stands for."""
        return [1] * self.delta_max + [
            (self.n - 1 - t) // self.p_joint + 1
            for t in range(self.delta_max, self.delta_max + self.p_joint)
        ]

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
        weights = np.array(self._weights())
        flat = self.window.ravel()
        # The rows of one weight (the prefix, or a phase) count together.
        for weight in np.unique(weights).tolist():
            starts = np.flatnonzero(weights == weight)[:, None] * self.block_events
            _hist_add(acc, {
                name: (starts + pos).ravel() for name, pos in self.block.positions.items()
            }, flat, weight)
        for name, (_, distances) in self.late.items():
            bucket = acc.setdefault(name, {})
            for v in distances.tolist():
                bucket[int(v)] = bucket.get(int(v), 0) + 1

    def cold_into(self, acc: dict[str, int]) -> None:
        # Weighted cold count per block-0 offset, over every row.
        cold = np.array(self._weights()) @ np.isinf(self.window)
        for name, pos in self.block.positions.items():
            count = int(cold[pos].sum())
            if name in self.late:
                count -= self.late[name][1].size
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
        block_pos = self.block.positions[container]
        base0 = self.block.index_matrices[container] @ mult
        delta = int(np.asarray(self.shifts[container], dtype=np.int64) @ mult)
        stride = delta * self.p_joint
        for t, m in enumerate(self._weights()):
            d = self.window[t, block_pos]
            cold = np.isinf(d)
            cap = np.isfinite(d) & (d >= capacity)
            base = base0 + delta * t
            base_cold = base[cold]
            base_cap = base[cap]
            # All m blocks row t stands for touch `base + k·stride`;
            # scatter them in bounded-memory chunks of outer iterations.
            chunk = max(1, 4_000_000 // max(1, base.size))
            for k0 in range(0, m, chunk):
                offsets = (
                    np.arange(k0, min(k0 + chunk, m), dtype=np.int64) * stride
                )[:, None]
                _scatter(dense_total, (base[None, :] + offsets).ravel())
                if base_cold.size:
                    _scatter(dense_cold, (base_cold[None, :] + offsets).ravel())
                if base_cap.size:
                    _scatter(dense_cap, (base_cap[None, :] + offsets).ravel())
        if container in self.late:
            at, distances = self.late[container]
            t, offset = np.divmod(at, self.block_events)
            keys = base0[np.searchsorted(block_pos, offset)] + delta * t
            np.subtract.at(dense_cold, keys, 1)
            np.add.at(dense_cap, keys[distances >= capacity], 1)

    def distances_of(self, container: str, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """*container*'s keys (row-major under *mult*) and real distances
        (float64, ``inf`` = cold), in trace order: block ``t`` takes
        window row ``t`` below ``Δmax`` and its phase's row
        ``Δmax + (t − Δmax) mod P`` after, and each late copy its real
        distance at its position."""
        block_pos = self.block.positions[container]
        t = np.arange(self.n)
        row = np.where(
            t < self.delta_max, t, self.delta_max + (t - self.delta_max) % self.p_joint
        )
        base0 = self.block.index_matrices[container] @ mult
        delta = int(np.asarray(self.shifts[container], dtype=np.int64) @ mult)
        keys = (base0[None, :] + delta * t[:, None]).ravel()
        distances = self.window[:, block_pos][row].ravel().astype(np.float64)
        if container in self.late:
            at, real = self.late[container]
            t, offset = np.divmod(at, self.block_events)
            distances[t * block_pos.size + np.searchsorted(block_pos, offset)] = real
        return keys, distances


def _leading(cols: RegionColumns, num_events: int) -> RegionColumns:
    """Narrowed copies of the positions and index matrices of the first
    *num_events* events of *cols*, all a built fold reads of a block.
    Positions are sorted, so each container's cut is one
    :func:`np.searchsorted`."""
    cuts = {
        name: int(np.searchsorted(pos, num_events))
        for name, pos in cols.positions.items()
    }
    return RegionColumns(
        num_events,
        cols.containers,
        None,
        None,
        {name: _narrow(cols.positions[name][:cut]) for name, cut in cuts.items()},
        {name: _narrow(cols.index_matrices[name][:cut]) for name, cut in cuts.items()},
    )


class FoldGeometry:
    """Every pre-window guard of a fold, decided without simulating.

    Derived from a :class:`FoldCandidate`'s access boxes and the memory
    layout: ``index_bounds[c]`` holds container *c*'s per-dimension
    ``(min, max)`` element index over outer block 0 and ``deltas[c]``
    its byte delta per block.  ``clusters`` lists ``(container, lo,
    hi)``: the first and last element start byte of each cluster in
    block 0, in address order; ``tags[i]`` is cluster *i*'s virtual-line
    tag (clusters with one ``Δ`` that share a line within ``Δmax``
    blocks carry one tag), and ``shared`` lists ``(line, i, j)`` for
    clusters with different tags that both touch real line *line*.
    ``tags``, ``p_joint`` and ``delta_max`` are ``None`` when a guard
    before ``caps`` declines.  ``guard`` names the first guard that
    declines the fold (in :data:`DECLINE_GUARDS` order), or is ``None``.
    """

    __slots__ = ("index_bounds", "deltas", "clusters", "tags", "shared",
                 "p_joint", "delta_max", "guard")

    def __init__(self) -> None:
        self.index_bounds: dict[str, list[tuple[int, int]]] = {}
        self.deltas: dict[str, int] = {}
        self.clusters: list[tuple[str, int, int]] = []
        self.tags: list[int] | None = None
        self.shared: list[tuple[int, int, int]] = []
        self.p_joint: int | None = None
        self.delta_max: int | None = None
        self.guard: str | None = None


def _touch_blocks(
    lo: int, hi: int, delta: int, line: int, line_size: int, n: int
) -> tuple[int, int]:
    """The first and last of blocks ``[0, n)`` in which start bytes
    ``[lo, hi]`` moved by *delta* per block can meet cache line *line*
    (first > last when they never do)."""
    first = line * line_size
    last = first + line_size - 1
    if delta > 0:
        t0, t1 = -((hi - first) // delta), (last - lo) // delta
    elif delta < 0:
        t0, t1 = -((last - lo) // -delta), (hi - first) // -delta
    elif lo <= last and hi >= first:
        t0, t1 = 0, n - 1
    else:
        return 1, 0
    return max(t0, 0), min(t1, n - 1)


def _span(delta: int, lo_line: int, hi_line: int, line_size: int) -> int:
    """Block span bound of a cluster moving *delta* bytes per block whose
    block-0 lines are ``[lo_line, hi_line]``: a line it touches in blocks
    ``t < t'`` has ``t' − t`` below it."""
    if delta == 0:
        return 1  # stationary: period 1, span 1
    return ((hi_line - lo_line + 2) * line_size) // abs(delta) + 1


def fold_geometry(candidate: FoldCandidate, memory: MemoryModel) -> FoldGeometry:
    """Decide the fold's guards from the statics, in order:

    - ``bounds``: every element index stays inside its container over
      all ``n`` blocks (so lines stay inside their allocation);
    - ``shared_line``: a container's block-0 offsets split into clusters
      wherever the gap exceeds the drift over ``n`` blocks, so the
      clusters' ``n``-block byte hulls are disjoint (a stationary
      container stays one cluster).  Two clusters that touch one real
      line must do so in blocks more than ``Δmax`` apart; otherwise
      clusters with one ``Δ`` merge (one tag, a rigid union) and
      clusters with different ``Δ`` decline;
    - ``caps``: the joint period ``P`` (lcm over containers of
      ``L / gcd(|Δ|, L)``) and the block span ``Δmax`` (the largest
      over tags, from each tag's block-0 line diameter) stay within
      :data:`P_JOINT_MAX` and :data:`DELTA_MAX_CAP`;
    - ``economic``: ``n ≥ 2·(Δmax + P)``, so the one window of
      ``Δmax + P`` blocks the fold enumerates is at most half the
      region.
    """
    geometry = FoldGeometry()
    n = candidate.n
    line_size = memory.line_size
    shifts = candidate.container_shifts
    boxes: dict[str, list[AccessBox]] = {}
    for box in candidate.boxes:
        if len(box.bases[0]) != len(memory.layout(box.data).shape):
            geometry.guard = "bounds"
            return geometry
        dims = box.index_bounds()
        known = geometry.index_bounds.get(box.data)
        if known is not None:
            dims = [
                (min(a, c), max(b, e)) for (a, b), (c, e) in zip(known, dims)
            ]
        geometry.index_bounds[box.data] = dims
        boxes.setdefault(box.data, []).append(box)
    for name, dims in geometry.index_bounds.items():
        for (lo, hi), shift, extent in zip(dims, shifts[name], memory.layout(name).shape):
            if (
                lo + min(0, shift * (n - 1)) < 0
                or hi + max(0, shift * (n - 1)) >= extent
            ):
                geometry.guard = "bounds"
                return geometry

    clusters = []
    for name, container_boxes in boxes.items():
        layout = memory.layout(name)
        step = sum(stride * s for stride, s in zip(layout.strides, shifts[name]))
        gap = abs(step) * (n - 1) if step else _UNBOUNDED
        runs = [box.runs(layout.strides, gap) for box in container_boxes]
        lo, hi = runs[0] if len(runs) == 1 else merge_runs(
            np.concatenate([r[0] for r in runs]), np.concatenate([r[1] for r in runs]), gap
        )
        origin = layout.base_address + layout.start_offset * layout.itemsize
        lo = (origin + lo * layout.itemsize).tolist()
        hi = (origin + hi * layout.itemsize).tolist()
        delta = step * layout.itemsize
        geometry.deltas[name] = delta
        drift = delta * (n - 1)
        clusters += [(a + min(0, drift), name, a, b) for a, b in zip(lo, hi)]
    clusters.sort()
    geometry.clusters = [(name, lo, hi) for _, name, lo, hi in clusters]
    deltas = [geometry.deltas[name] for name, _, _ in geometry.clusters]

    # The n-block hulls are disjoint and sorted, so a line is shared only
    # by a run of hulls: the one ending in it and those starting in it.
    hull_lines = [
        (start // line_size, (hi + max(0, delta * (n - 1))) // line_size)
        for (start, _, _, hi), delta in zip(clusters, deltas)
    ]
    pairs = []
    for i, (_, end) in enumerate(hull_lines):
        j = i + 1
        while j < len(hull_lines) and hull_lines[j][0] == end:
            touches = [
                _touch_blocks(*geometry.clusters[k][1:], deltas[k], end, line_size, n)
                for k in (i, j)
            ]
            if all(t0 <= t1 for t0, t1 in touches):
                pairs.append((end, i, j, *touches))
            j += 1

    # Union-find over clusters; each root keeps its tag's block-0 lines.
    parent = list(range(len(clusters)))
    lines = [[lo // line_size, hi // line_size] for _, lo, hi in geometry.clusters]
    delta_max = max(
        _span(delta, lo, hi, line_size) for delta, (lo, hi) in zip(deltas, lines)
    )

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    merged = True
    while merged:
        merged = False
        for _, i, j, (a0, a1), (b0, b1) in pairs:
            ri, rj = root(i), root(j)
            if ri == rj or b0 - a1 > delta_max or a0 - b1 > delta_max:
                continue
            if deltas[i] != deltas[j]:
                geometry.guard = "shared_line"
                return geometry
            parent[rj] = ri
            lines[ri] = [min(lines[ri][0], lines[rj][0]), max(lines[ri][1], lines[rj][1])]
            delta_max = max(delta_max, _span(deltas[ri], *lines[ri], line_size))
            merged = True
    tag_of: dict[int, int] = {}
    geometry.tags = [tag_of.setdefault(root(i), len(tag_of)) for i in range(len(clusters))]
    geometry.shared = [
        (line, i, j) for line, i, j, _, _ in pairs if root(i) != root(j)
    ]
    p_joint = 1
    for delta in geometry.deltas.values():
        if delta:
            p_joint = math.lcm(p_joint, line_size // math.gcd(abs(delta), line_size))
    geometry.p_joint = p_joint
    geometry.delta_max = delta_max
    if p_joint > P_JOINT_MAX or delta_max > DELTA_MAX_CAP:
        geometry.guard = "caps"
    elif n < 2 * (delta_max + p_joint):
        geometry.guard = "economic"
    return geometry


def _window_agrees(
    geometry: FoldGeometry, cols: RegionColumns, blocks: int, block_events: int
) -> bool:
    """Whether the simulated window has the block structure the statics
    describe.

    Its event count is ``blocks`` blocks of ``block_events``, every
    block repeats block 0's container sequence (so each block's events
    line up with block 0's positions), and block 0 touches exactly the
    containers and index bounds of the geometry.
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
    return True


def _virtual_lines(
    geometry: FoldGeometry, cols: RegionColumns, memory: MemoryModel, block_events: int
) -> np.ndarray | None:
    """The window's line ids tagged with their cluster's tag, or
    ``None`` when the window leaves the clusters of the statics.

    Every access, moved back to block 0 by its container's delta, must
    fall inside one of its container's clusters, and block 0 must reach
    each cluster's first and last byte: so each cluster's span bound
    and the shared-line separation hold in the window.
    """
    ntags = max(geometry.tags) + 1
    virtual = cols.lines * ntags
    for name, pos in cols.positions.items():
        members = [
            (lo, hi, tag)
            for (cluster, lo, hi), tag in zip(geometry.clusters, geometry.tags)
            if cluster == name
        ]
        los, his, tags = (np.array(column, dtype=np.int64) for column in zip(*members))
        at = memory.layout(name).element_addresses(cols.index_matrices[name])
        at -= geometry.deltas[name] * (pos // block_events)
        k = np.searchsorted(los, at, side="right") - 1
        if k.min() < 0 or (at > his[k]).any():
            return None
        first_block = at[: int(np.searchsorted(pos, block_events))]
        if not (np.isin(los, first_block).all() and np.isin(his, first_block).all()):
            return None
        if ntags > 1:
            virtual[pos] += tags[k]
    return virtual


def _compose(traces: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """The reduced-trace composition: exact distances for first touches.

    Each trace is one part of a longer trace reduced to the first and
    last occurrence of each of its lines (a region's lines, or a fold's
    virtual lines), in trace order: ``(labels, first)`` holds their real
    line ids and marks the first occurrences.  One stack-distance pass
    over the concatenation returns, per trace, the exact distance of each
    first occurrence in the whole trace (``inf`` for a real first
    touch).  That holds whenever every line touched inside the reuse
    window of a first occurrence has a retained occurrence inside it —
    true for consecutive regions, and for virtual lines that never span
    that window — because retained entries are true accesses.
    """
    distances = stack_distances_array(np.concatenate([labels for labels, _ in traces]))
    out = []
    offset = 0
    for labels, first in traces:
        out.append(distances[offset:offset + labels.size][first])
        offset += labels.size
    return out


def _resolve_copies(
    geometry: FoldGeometry,
    cols: RegionColumns,
    virtual: np.ndarray,
    distances: np.ndarray,
    n: int,
    line_size: int,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The real distances of the virtual first touches that reuse a
    shared line, per container: ``(region positions, distances)``.

    Builds, from the window alone, the first and last occurrence of
    every moving virtual line over all ``n`` blocks, labelled by its
    real line, and composes them (:func:`_compose`).  A first occurrence
    in block ``t ≥ Δmax`` is its phase representative's, and whether an
    access is its virtual line's last depends on the ``Δmax − 1`` blocks
    after it, which window block ``t mod P`` has in full: so block
    ``t = s + kP`` repeats block ``s``'s entries ``k`` periods on, each
    container's lines ``Δ·P/L`` further per period.  Costs the number of
    distinct virtual lines, not events.

    A stationary container's lines (``Δ = 0``) span every reuse window,
    so their first and last occurrences lie outside it; they stay out of
    the composition and are counted directly.  They are touched in every
    block and never shared, and a copy's reuse window, more than
    ``Δmax ≥ 1`` blocks long, holds a whole block: each resolved
    distance misses exactly all of them.
    """
    delta_max, p_joint = geometry.delta_max, geometry.p_joint
    ntags = max(geometry.tags) + 1
    blocks = delta_max + p_joint
    width = cols.num_events // blocks
    real = (virtual // ntags).reshape(blocks, width)
    first = np.isinf(distances).reshape(blocks, width)
    # Blocks to the next touch of each access's virtual line; n = none.
    order = np.argsort(virtual, kind="stable")
    again = virtual[order[1:]] == virtual[order[:-1]]
    ahead = np.full(virtual.size, n, dtype=np.int64)
    ahead[order[:-1][again]] = order[1:][again] // width - order[:-1][again] // width
    ahead = ahead.reshape(blocks, width)
    lines_per_period = np.empty(width, dtype=np.int64)
    for name, pos in cols.positions.items():
        lines_per_period[pos[pos < width]] = geometry.deltas[name] * p_joint // line_size
    moving = lines_per_period != 0
    stationary = np.unique(real[0, ~moving]).size

    positions, labels, firsts = [], [], []

    def add(rep: int, targets: np.ndarray, entries: np.ndarray, is_first: bool) -> None:
        offsets = np.flatnonzero(entries & moving)
        periods = (targets - rep) // p_joint
        positions.append((targets[:, None] * width + offsets).ravel())
        labels.append(
            (real[rep, offsets] + periods[:, None] * lines_per_period[offsets]).ravel()
        )
        firsts.append(np.full(targets.size * offsets.size, is_first))

    for t in range(delta_max):
        add(t, np.array([t]), first[t], True)
    for r in range(p_joint):
        t_r = delta_max + ((r - delta_max) % p_joint)
        add(t_r, np.arange(t_r, n, p_joint), first[t_r], True)
        add(r, np.arange(r, n - delta_max + 1, p_joint), ahead[r] == n, False)
    for t in range(n - delta_max + 1, n):
        add(t % p_joint, np.array([t]), ahead[t % p_joint] > n - 1 - t, False)
    positions = np.concatenate(positions)
    labels = np.concatenate(labels)
    firsts = np.concatenate(firsts)
    # An access that is both its line's first and last enters once.
    order = np.lexsort((~firsts, positions))
    positions = positions[order]
    keep = np.concatenate(([True], positions[1:] != positions[:-1]))
    positions = positions[keep]
    firsts = firsts[order][keep]
    (resolved,) = _compose([(labels[order][keep], firsts)])
    late = np.isfinite(resolved)
    at = positions[firsts][late]
    resolved = resolved[late] + stationary
    cids = cols.container_ids[at % width]
    return {
        name: (at[cids == cid], resolved[cids == cid])
        for cid, name in enumerate(cols.containers)
        if (cids == cid).any()
    }


def try_build_fold(
    simulator: AccessPatternSimulator,
    state,
    candidate: FoldCandidate,
    memory: MemoryModel,
) -> FoldedSummary | str:
    """Build a :class:`FoldedSummary`, or name the guard that declines
    it (one of :data:`DECLINE_GUARDS`) so the caller enumerates.

    The guards of :func:`fold_geometry` are decided before anything is
    simulated.  A region that passes them simulates its window of
    blocks ``[0, Δmax+P)`` in one :func:`simulate_region` call through
    *simulator*, and the window declines (``window``) unless
    its block structure (:func:`_window_agrees`) and its clusters
    (:func:`_virtual_lines`) are the statics': a wrong static value
    costs time, never exactness.
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
    result = simulate_region(simulator, state, candidate.entry, outer_slice=(0, blocks))
    cols = region_columns(result, memory)
    if not _window_agrees(geometry, cols, blocks, block_events):
        return "window"
    virtual = _virtual_lines(geometry, cols, memory, block_events)
    if virtual is None:
        return "window"
    distances = _narrow_distances(stack_distances_array(virtual))
    late = {}
    if geometry.shared:
        late = _resolve_copies(geometry, cols, virtual, distances, n, memory.line_size)
    return FoldedSummary(
        _leading(cols, block_events), dict(candidate.container_shifts),
        distances.reshape(blocks, block_events), n, delta_max, p_joint, late,
    )
