"""Cache-miss classification and validation simulators (Section V-F).

Misses are predicted from stack distances under a fully-associative LRU
model:

- **cold miss** — first touch of a cache line (stack distance = ∞);
- **capacity miss** — stack distance ≥ threshold, where the threshold is
  the number of lines the modeled cache holds (user-adjustable, so the
  engineer can model different cache sizes or compensate for scaled-down
  simulation parameters);
- **conflict misses** are *not counted*: the model assumes full
  associativity, following McKinley & Temam and Beyls & D'Hollander, who
  show capacity misses dominate in low-associativity caches.

An exact LRU cache simulator (:func:`simulate_lru`) is included; for a
fully-associative LRU cache of C lines, an access misses **iff** its stack
distance is ≥ C or cold — the property tests pin this equivalence, which
is the correctness argument for the threshold model.
"""

from __future__ import annotations

import enum
import math
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "MissKind",
    "CacheModel",
    "classify_accesses",
    "classify_three_way",
    "count_misses",
    "count_misses_array",
    "count_three_way",
    "miss_masks",
    "MissCounts",
    "simulate_lru",
    "simulate_set_associative",
]


class MissKind(enum.Enum):
    """Outcome of one access in the cache model."""

    HIT = "hit"
    COLD = "cold"
    CAPACITY = "capacity"
    #: Only produced by the set-associative backend (see
    #: :func:`classify_three_way`): a miss that a fully-associative cache
    #: of the same total capacity would have avoided.
    CONFLICT = "conflict"

    @property
    def is_miss(self) -> bool:
        return self is not MissKind.HIT


class MissCounts:
    """Aggregated outcome counts for a trace (or a trace subset)."""

    __slots__ = ("hits", "cold", "capacity", "conflict")

    def __init__(
        self, hits: int = 0, cold: int = 0, capacity: int = 0, conflict: int = 0
    ):
        self.hits = hits
        self.cold = cold
        self.capacity = capacity
        #: Nonzero only under the set-associative backend.
        self.conflict = conflict

    @property
    def misses(self) -> int:
        return self.cold + self.capacity + self.conflict

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.total if self.total else 0.0

    def __iter__(self):
        yield from (self.hits, self.cold, self.capacity, self.conflict)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MissCounts):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __repr__(self) -> str:
        conflict = f", conflict={self.conflict}" if self.conflict else ""
        return (
            f"MissCounts(hits={self.hits}, cold={self.cold}, "
            f"capacity={self.capacity}{conflict})"
        )


class CacheModel:
    """A fully-associative LRU cache model parameterized by its capacity.

    Parameters
    ----------
    line_size:
        Cache line (block) size in bytes.
    capacity_lines:
        Number of lines the cache holds — the capacity-miss threshold.
        The UI exposes this directly so the user can adjust it on the fly.
    """

    def __init__(self, line_size: int = 64, capacity_lines: int = 512):
        if line_size <= 0 or capacity_lines <= 0:
            raise SimulationError("line size and capacity must be positive")
        self.line_size = int(line_size)
        self.capacity_lines = int(capacity_lines)

    @property
    def capacity_bytes(self) -> int:
        return self.line_size * self.capacity_lines

    def classify(self, distance: float) -> MissKind:
        """Outcome of an access with the given stack distance."""
        if math.isinf(distance):
            return MissKind.COLD
        if distance >= self.capacity_lines:
            return MissKind.CAPACITY
        return MissKind.HIT

    def __repr__(self) -> str:
        return (
            f"CacheModel(line_size={self.line_size}, "
            f"capacity_lines={self.capacity_lines})"
        )


def classify_accesses(
    distances: Sequence[float], model: CacheModel
) -> list[MissKind]:
    """Per-access outcomes from stack distances (a reference for
    :func:`miss_masks`; no production module calls it)."""
    return [model.classify(d) for d in distances]


def count_misses(distances: Sequence[float], model: CacheModel) -> MissCounts:
    """Aggregate outcome counts from stack distances (a reference for
    :func:`count_misses_array`; no production module calls it)."""
    counts = MissCounts()
    for d in distances:
        kind = model.classify(d)
        if kind is MissKind.HIT:
            counts.hits += 1
        elif kind is MissKind.COLD:
            counts.cold += 1
        else:
            counts.capacity += 1
    return counts


def miss_masks(
    distances: np.ndarray, model: CacheModel
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :meth:`CacheModel.classify`: boolean (cold, capacity) masks.

    ``cold`` marks infinite distances; ``capacity`` marks finite distances
    at or above the capacity threshold (``hit`` is the complement of
    both).  Equals the per-access enum classification exactly.
    """
    d = np.asarray(distances, dtype=np.float64)
    cold = np.isinf(d)
    capacity = (d >= model.capacity_lines) & ~cold
    return cold, capacity


def count_misses_array(distances: np.ndarray, model: CacheModel) -> MissCounts:
    """Vectorized :func:`count_misses` over a distance array."""
    cold, capacity = miss_masks(distances, model)
    k = int(np.count_nonzero(cold))
    p = int(np.count_nonzero(capacity))
    return MissCounts(hits=int(cold.size) - k - p, cold=k, capacity=p)


def simulate_lru(lines: Sequence[int], capacity_lines: int) -> list[bool]:
    """Exact fully-associative LRU simulation: True per access = miss."""
    if capacity_lines <= 0:
        raise SimulationError("capacity must be positive")
    cache: OrderedDict[int, None] = OrderedDict()
    out: list[bool] = []
    for line in lines:
        if line in cache:
            cache.move_to_end(line)
            out.append(False)
        else:
            out.append(True)
            cache[line] = None
            if len(cache) > capacity_lines:
                cache.popitem(last=False)
    return out


def classify_three_way(
    lines: Sequence[int], num_sets: int, ways: int
) -> list[MissKind]:
    """Full three-way miss taxonomy under a set-associative LRU cache.

    This is the "hardware-specific back-end" extension the paper's
    Discussion sketches: instead of assuming full associativity, simulate
    the actual set-associative cache and attribute each miss:

    - **cold** — first-ever touch of the line;
    - **capacity** — a fully-associative LRU cache of the same total
      capacity (``num_sets × ways`` lines) would also miss;
    - **conflict** — only the set-associative cache misses (the line was
      evicted by a set conflict).

    Note that set-associative caches can occasionally *hit* where the
    global-LRU cache misses; such accesses are plain hits here.
    """
    sa_miss = simulate_set_associative(lines, num_sets, ways)
    fa_miss = simulate_lru(lines, num_sets * ways)
    seen: set[int] = set()
    out: list[MissKind] = []
    for line, sa, fa in zip(lines, sa_miss, fa_miss):
        if not sa:
            out.append(MissKind.HIT)
        elif line not in seen:
            out.append(MissKind.COLD)
        elif fa:
            out.append(MissKind.CAPACITY)
        else:
            out.append(MissKind.CONFLICT)
        seen.add(line)
    return out


def count_three_way(lines: Sequence[int], num_sets: int, ways: int) -> MissCounts:
    """Aggregate :func:`classify_three_way` outcomes."""
    counts = MissCounts()
    for kind in classify_three_way(lines, num_sets, ways):
        if kind is MissKind.HIT:
            counts.hits += 1
        elif kind is MissKind.COLD:
            counts.cold += 1
        elif kind is MissKind.CAPACITY:
            counts.capacity += 1
        else:
            counts.conflict += 1
    return counts


def simulate_set_associative(
    lines: Sequence[int], num_sets: int, ways: int
) -> list[bool]:
    """Exact set-associative LRU simulation (True per access = miss).

    Included to quantify how far the fully-associative assumption is from
    a realistic cache on a given trace (conflict misses show up as extra
    ``True`` entries relative to :func:`simulate_lru` with
    ``num_sets * ways`` lines).
    """
    if num_sets <= 0 or ways <= 0:
        raise SimulationError("sets and ways must be positive")
    sets: list[OrderedDict[int, None]] = [OrderedDict() for _ in range(num_sets)]
    out: list[bool] = []
    for line in lines:
        target = sets[line % num_sets]
        if line in target:
            target.move_to_end(line)
            out.append(False)
        else:
            out.append(True)
            target[line] = None
            if len(target) > ways:
                target.popitem(last=False)
    return out
