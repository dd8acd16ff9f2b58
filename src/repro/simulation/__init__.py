"""Parameterized access-pattern simulation (the local view backend).

This subpackage implements the paper's Section V: given a program region
parameterized with small concrete sizes, it

1. enumerates the iteration spaces of the region's map scopes
   (:mod:`~repro.simulation.iterspace`),
2. evaluates every memlet's symbolic subset at every iteration to obtain
   the *exact access pattern* per data container
   (:mod:`~repro.simulation.simulator`, recorded as columnar
   :mod:`~repro.simulation.trace` blocks; affine scopes by
   :mod:`~repro.simulation.vectorized`),
3. maps logical elements to physical bytes and cache lines from the data
   descriptors' strides/alignment (:mod:`~repro.simulation.layout`),
4. computes stack (reuse) distances at cache-line granularity
   (:mod:`~repro.simulation.stackdist`),
5. classifies cold and capacity misses under a fully-associative LRU model
   (:mod:`~repro.simulation.cache`), and
6. estimates the resulting *physical* data movement
   (:mod:`~repro.simulation.movement`).

There is one trace representation: every simulated scope records
:class:`~repro.simulation.trace.TraceBlock` columns.  In production the
locality engine (:mod:`repro.locality`) takes stages 3–5 region by
region from those blocks, and the local view's set-associative misses
lay a whole trace out as an :class:`~repro.simulation.arrays.ArrayTrace`
(:mod:`~repro.simulation.arrays`).  The whole-trace array pipeline over
it (``stack_distances_array`` of its lines, ``element_distance_lists``,
the ``per_*_array`` aggregations) is the engine's test oracle, and the
per-event functions that remain — the interpreter
(``simulate_state(fast=False)``), ``line_trace``, Olken's
``stack_distances``, the brute-force distances,
``element_stack_distances``, ``classify_accesses``, ``count_misses`` and
the movement module's per-event aggregations — are the differential
oracles of that pipeline; no production module calls them.

Related-access derivation (which elements are touched by the same
computations, Section V-C) lives in :mod:`~repro.simulation.related`.
"""

from repro.simulation.arrays import (
    ArrayTrace,
    build_array_trace,
    container_physical_movement_array,
    element_distance_lists,
    per_container_misses_array,
    per_element_misses_array,
)
from repro.simulation.cache import (
    CacheModel,
    MissKind,
    classify_accesses,
    classify_three_way,
    count_misses,
    count_misses_array,
    count_three_way,
    miss_masks,
    simulate_lru,
    simulate_set_associative,
)
from repro.simulation.iterspace import iteration_points
from repro.simulation.layout import MemoryModel, PhysicalLayout
from repro.simulation.movement import (
    container_physical_movement,
    edge_physical_movement,
    per_container_misses,
    per_element_misses,
)
from repro.simulation.related import related_access_counts
from repro.simulation.simulator import AccessPatternSimulator, SimulationResult, simulate_state
from repro.simulation.stackdist import (
    element_stack_distances,
    stack_distances,
    stack_distances_array,
    stack_distances_bruteforce,
)
from repro.simulation.trace import AccessEvent, AccessKind, TraceBlock
from repro.simulation.affine import AffineForm, AffineSubset, affine_form
from repro.simulation.vectorized import simulate_scope_vectorized

__all__ = [
    "AffineForm",
    "AffineSubset",
    "affine_form",
    "simulate_scope_vectorized",
    "AccessEvent",
    "AccessKind",
    "TraceBlock",
    "AccessPatternSimulator",
    "SimulationResult",
    "simulate_state",
    "iteration_points",
    "PhysicalLayout",
    "MemoryModel",
    "stack_distances",
    "stack_distances_array",
    "stack_distances_bruteforce",
    "element_stack_distances",
    "CacheModel",
    "MissKind",
    "classify_accesses",
    "classify_three_way",
    "count_misses",
    "count_misses_array",
    "count_three_way",
    "miss_masks",
    "simulate_lru",
    "simulate_set_associative",
    "container_physical_movement",
    "edge_physical_movement",
    "per_container_misses",
    "per_element_misses",
    "ArrayTrace",
    "build_array_trace",
    "container_physical_movement_array",
    "element_distance_lists",
    "per_container_misses_array",
    "per_element_misses_array",
    "related_access_counts",
]
