"""Stack (reuse) distance computation at cache-line granularity.

"We calculate a metric called the stack distance for each data element,
which is defined as the number of accesses to unique addresses made since
the last reference to the requested data element.  We use the stack
distance at a cache line granularity ...  If an element has not been
referenced yet, its stack distance is set to infinity." (Section V-E)

Three implementations are provided:

- :func:`stack_distances_array` — the array-native production kernel:
  Olken's counting argument reformulated as an offline count of earlier,
  smaller ranks over the trace's reuses, after immediate repeats leave
  the trace.  A top-down partition by rank bits counts it in a fixed
  number of linear NumPy passes per level (a chunk-batched Fenwick
  variant with ``np.add.at`` updates is kept alongside for differential
  testing).  O(N log N) with all per-event work inside NumPy;
- :func:`stack_distances` — Olken's algorithm with a pure-Python Fenwick
  (binary indexed) tree over trace positions, O(N log N): the readable
  differential oracle for the array kernel;
- :func:`stack_distances_bruteforce` — the textbook O(N²) definition, kept
  as the property-test oracle.

:func:`line_trace` and :func:`element_stack_distances` are the per-event
references for :attr:`~repro.simulation.arrays.ArrayTrace.lines` and
:func:`~repro.simulation.arrays.element_distance_lists`.  Only
:func:`stack_distances_array` runs in production; no production module
calls the other functions here.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.simulation.layout import MemoryModel
from repro.simulation.trace import AccessEvent

__all__ = [
    "stack_distances",
    "stack_distances_array",
    "stack_distances_bruteforce",
    "line_trace",
    "element_stack_distances",
]

INF = math.inf


class _Fenwick:
    """Binary indexed tree over 1-based positions with prefix sums."""

    __slots__ = ("size", "tree")

    def __init__(self, size: int):
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, pos: int, delta: int) -> None:
        pos += 1
        while pos <= self.size:
            self.tree[pos] += delta
            pos += pos & (-pos)

    def prefix_sum(self, pos: int) -> int:
        """Sum of entries at positions 0..pos (inclusive)."""
        pos += 1
        total = 0
        while pos > 0:
            total += self.tree[pos]
            pos -= pos & (-pos)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of entries at positions lo..hi (inclusive)."""
        if lo > hi:
            return 0
        return self.prefix_sum(hi) - (self.prefix_sum(lo - 1) if lo > 0 else 0)


def line_trace(
    events: Sequence[AccessEvent], memory: MemoryModel
) -> list[int]:
    """Project an access trace onto cache-line ids.

    Events are grouped per container and projected through the batched
    :meth:`~repro.simulation.layout.PhysicalLayout.cache_lines_of` path
    (one matrix product per container) instead of one
    ``memory.address_of`` call per event; trace order is preserved.
    """
    n = len(events)
    if n == 0:
        return []
    positions_by_data: dict[str, list[int]] = {}
    for t, e in enumerate(events):
        positions_by_data.setdefault(e.data, []).append(t)
    out = np.empty(n, dtype=np.int64)
    for data, positions in positions_by_data.items():
        ndims = len(events[positions[0]].indices)
        if ndims:
            matrix = np.array(
                [events[t].indices for t in positions], dtype=np.int64
            )
        else:
            matrix = np.empty((len(positions), 0), dtype=np.int64)
        out[np.asarray(positions, dtype=np.int64)] = memory.lines_of_matrix(
            data, matrix
        )
    return out.tolist()


def stack_distances(lines: Sequence[int]) -> list[float]:
    """Per-access stack distances for a cache-line reference trace.

    The distance of access *t* to line *L* is the number of **distinct**
    lines referenced since the previous access to *L* (exclusive), or
    ``inf`` for the first access (a cold reference).

    Olken's algorithm: a Fenwick tree marks, for each trace position, 1 if
    that position is the *most recent* access to its line.  The number of
    distinct lines between the previous access to L and now is the range
    sum over the marked positions strictly between them.
    """
    n = len(lines)
    tree = _Fenwick(n)
    last_position: dict[int, int] = {}
    out: list[float] = []
    for t, line in enumerate(lines):
        prev = last_position.get(line)
        if prev is None:
            out.append(INF)
        else:
            out.append(float(tree.range_sum(prev + 1, t - 1)))
            tree.add(prev, -1)
        tree.add(t, 1)
        last_position[line] = t
    return out


def _previous_occurrences(lines: np.ndarray) -> np.ndarray:
    """Position of the previous access to each position's line (-1 = none).

    One stable argsort of the raw line ids groups positions by line
    while keeping trace order inside each group, so each position's
    predecessor in its group is exactly its previous occurrence.
    """
    n = lines.size
    order = np.argsort(lines, kind="stable")
    prev = np.full(n, -1, dtype=np.int64)
    if n > 1:
        grouped = lines[order]
        same = grouped[1:] == grouped[:-1]
        prev[order[1:][same]] = order[:-1][same]
    return prev


#: Width of the dense base case: the lowest four rank bits are counted
#: by direct comparison inside aligned groups of this many ranks.
_BASE = 16


def _earlier_smaller_counts(values: np.ndarray) -> np.ndarray:
    """``#{j < i : values[j] < values[i]}`` for distinct non-negative *values*.

    The counting core of the array kernel.  The values are replaced by
    their ranks, a permutation of ``0..M-1``, and counted by a top-down
    partition by rank bits.  Before the level of bit *b*, the ranks sit
    grouped into nodes that share their bits above *b*, in trace order
    within each node.  A rank whose bit *b* is set is larger than every
    rank of its node with the bit clear, so it adds the number of those
    that precede it; then each node splits stably, bit clear first.
    Because the ranks are a permutation, every node but the last is
    full: a node's start and its count of clear bits are closed-form,
    and one cumulative sum of the bits gives every count and every
    destination of the level.  The lowest four bits are counted by a
    dense comparison inside each node of ``_BASE`` ranks.  Work arrays
    are int32 while ``M < 2**31``; intermediate overflow wraps
    harmlessly, since every final value fits.  Up to ``_BASE**2``
    values, one dense comparison of all pairs is cheaper than the levels.
    """
    m = values.size
    if m <= _BASE * _BASE:
        earlier = np.tri(m, k=-1, dtype=bool)  # [i, j]: slot j precedes slot i
        return (earlier & (values[None, :] < values[:, None])).sum(axis=1)
    dtype = np.int32 if m < 2**31 else np.int64
    present = np.zeros(int(values.max()) + 1, dtype=bool)
    present[values] = True
    rank = np.cumsum(present, dtype=dtype)[values] - 1
    # `ranks` and `counts` are kept in node order, `rank` in trace order.
    ranks = rank.copy()
    counts = np.zeros(m, dtype=dtype)
    ranks_next = np.empty_like(ranks)
    counts_next = np.empty_like(counts)
    position = np.arange(m, dtype=dtype)
    bit = np.empty_like(ranks)
    ones = np.empty_like(ranks)
    before = np.empty_like(ranks)
    work = np.empty_like(ranks)
    dest = np.empty(m, dtype=np.intp)
    for b in range(int(m - 1).bit_length() - 1, 3, -1):
        half = 1 << b
        np.right_shift(ranks, b, out=bit)
        bit &= 1
        np.cumsum(bit, out=ones)  # set bits up to and including each slot
        # Nodes before this one are full: half of their slots hold a
        # clear bit and half a set bit.
        np.right_shift(ranks, b + 1, out=before)
        before <<= b
        # A set bit adds the clear bits before it in its node.
        np.subtract(position, ones, out=work)
        work -= before
        work += 1
        work *= bit
        counts += work
        # Stable split: a clear bit goes to `before + position - ones`,
        # a set bit to `before + half + ones - 1`.  (The last node may
        # hold fewer than `half` clear bits only when it holds no set
        # bit, so `half` is exact wherever it is used.)
        np.add(ones, ones, out=work)
        work -= position
        work += half - 1
        work *= bit
        work += position
        work -= ones
        np.add(work, before, out=dest)
        ranks_next[dest] = ranks
        counts_next[dest] = counts
        ranks, ranks_next = ranks_next, ranks
        counts, counts_next = counts_next, counts
    # Dense base: within each aligned node of `_BASE` ranks (the tail
    # padded with the missing ranks), compare every earlier slot.
    pad = (-m) % _BASE
    local = np.empty(m + pad, dtype=np.uint8)
    np.bitwise_and(ranks, _BASE - 1, out=local[:m], casting="unsafe")
    local[m:] = np.arange(m, m + pad) % _BASE
    columns = local.reshape(-1, _BASE).T.copy()
    smaller = np.zeros_like(columns)
    for j in range(_BASE - 1):
        smaller[j + 1:] += columns[j] < columns[j + 1:]
    counts += smaller.T.ravel()[:m]
    by_rank = np.empty(m, dtype=dtype)
    by_rank[ranks] = counts
    return by_rank[rank]


def _prefix_dominance_counts_fenwick(prev: np.ndarray, chunk: int = 1024) -> np.ndarray:
    """``F[t] = #{s < t : 0 <= prev[s] <= prev[t]}`` by a chunked Fenwick tree.

    The reference counting engine for :func:`_earlier_smaller_counts`
    (on warm positions the two counts coincide).  A Fenwick tree over
    the value space of ``prev`` stored in one contiguous ``int64``
    buffer.  The trace is processed in chunks — each chunk first answers
    its queries against the tree (batched prefix sums: one gather per
    Fenwick level, all queries at once), resolves pairs *inside* the
    chunk with a dense triangular comparison, and finally inserts its
    own values in one batched update per level (``np.add.at`` handles
    duplicate paths).  Cold positions (``prev < 0``) neither count nor
    are counted.  Slower than the partition counter; kept as a second,
    structurally different implementation for differential testing.
    """
    n = prev.size
    tree = np.zeros(n + 1, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        block = prev[a:b]
        valid = block >= 0
        if a and valid.any():
            pos = block[valid] + 1
            total = np.zeros(pos.size, dtype=np.int64)
            live = np.arange(pos.size)
            while pos.size:
                total[live] += tree[pos]
                pos = pos - (pos & -pos)
                keep = pos > 0
                pos, live = pos[keep], live[keep]
            counts[a:b][valid] = total
        m = b - a
        if m > 1:
            inside = (block[:, None] >= 0) & (block[:, None] <= block[None, :])
            inside &= np.arange(m)[:, None] < np.arange(m)[None, :]
            counts[a:b] += inside.sum(axis=0)
        pos = block[valid] + 1
        while pos.size:
            np.add.at(tree, pos, 1)
            pos = pos + (pos & -pos)
            pos = pos[pos <= n]
    return counts


def stack_distances_array(
    lines: Sequence[int] | np.ndarray, chunk: int | None = None
) -> np.ndarray:
    """Array-native stack distances — equals :func:`stack_distances`.

    Olken's query "distinct lines since the previous access" is recast as
    a fully offline counting problem.  With ``prev[t]`` the previous
    occurrence of position *t*'s line and ``D[t]`` the number of distinct
    lines in the prefix ``[0..t]``::

        distance(t) = D[t] - prev[t] - 1 + F[t]
        F[t] = #{s < t : 0 <= prev[s] <= prev[t]}

    (the ``D`` term counts lines whose first occurrence falls inside the
    reuse window; ``F`` corrects for lines re-entering the window from
    before it).  Three exact reductions keep the work small:

    - an immediate repeat (the line of the access just before) has
      distance 0 and leaves the trace first: any reuse window that
      contains it also contains its predecessor on the same line;
    - ``prev`` comes from one stable argsort of the raw line ids;
    - ``F`` is counted over warm positions only.  Their ``prev`` values
      are distinct, so ``F`` is their count of earlier, smaller values
      (:func:`_earlier_smaller_counts`); ``D[t]`` at the *j*-th warm
      position *t* is ``t - j``.

    Pass *chunk* to count ``F`` with the chunk-batched Fenwick tree
    (:func:`_prefix_dominance_counts_fenwick`) instead — slower, kept as
    a structurally independent engine for differential tests.

    Returns a ``float64`` array with ``inf`` for cold references.  The
    pure-Python :func:`stack_distances` is the differential oracle; the
    two must agree exactly on every trace.
    """
    arr = np.asarray(lines, dtype=np.int64).ravel()
    n = arr.size
    out = np.zeros(n, dtype=np.float64)
    if n == 0:
        return out
    changed = np.empty(n, dtype=bool)
    changed[0] = True
    np.not_equal(arr[1:], arr[:-1], out=changed[1:])
    kept = np.flatnonzero(changed)
    trace = arr[kept]
    prev = _previous_occurrences(trace)
    warm = np.flatnonzero(prev >= 0)
    warm_prev = prev[warm]
    if chunk is None:
        dominated = _earlier_smaller_counts(warm_prev)
    else:
        dominated = _prefix_dominance_counts_fenwick(prev, max(1, int(chunk)))[warm]
    distances = np.full(trace.size, np.inf)
    distances[warm] = warm - np.arange(warm.size) - warm_prev - 1 + dominated
    out[kept] = distances
    return out


def stack_distances_bruteforce(lines: Sequence[int]) -> list[float]:
    """O(N²) reference implementation of :func:`stack_distances`."""
    out: list[float] = []
    for t, line in enumerate(lines):
        prev = None
        for s in range(t - 1, -1, -1):
            if lines[s] == line:
                prev = s
                break
        if prev is None:
            out.append(INF)
        else:
            out.append(float(len(set(lines[prev + 1 : t]))))
    return out


def element_stack_distances(
    events: Sequence[AccessEvent],
    memory: MemoryModel,
    data: str | None = None,
    distances: Sequence[float] | None = None,
) -> dict[tuple[str, tuple[int, ...]], list[float]]:
    """Distances grouped per element: ``(container, indices) -> [d, ...]``.

    The heatmap of Fig. 5b visualizes, per element, the min / median / max
    of this list; the histogram panel plots the full list for a selected
    element.  Restrict to one container with *data*.  Pass precomputed
    *distances* (one per event) to reuse work across queries.
    """
    if distances is None:
        distances = stack_distances(line_trace(events, memory))
    out: dict[tuple[str, tuple[int, ...]], list[float]] = {}
    for event, dist in zip(events, distances):
        if data is not None and event.data != data:
            continue
        out.setdefault((event.data, event.indices), []).append(dist)
    return out
