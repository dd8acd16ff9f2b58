"""Region decomposition and static fold analysis for the analytic engine.

A *region* is one top-level node of a state — a map scope, a bare
tasklet, a nested SDFG, or an access-node copy — exactly the units the
access-pattern simulator's state walk dispatches on.  Simulating regions
independently through
:func:`~repro.simulation.simulator.simulate_region` and concatenating
the traces in walk order reproduces
:func:`~repro.simulation.simulator.simulate_state` event-for-event;
that invariant is what lets the engine analyze each region on its own
and stitch the results exactly.

:func:`fold_statics` is the static half of the window-fold analysis: it
checks that a flat affine map region has *uniform outer shift* — every
access to a container moves by the same per-dimension index delta per
outer-loop iteration — which is the property that makes the reuse
pattern of the steady state periodic in the outer loop
(:mod:`repro.locality.fold`).  It also describes outer block 0 without
simulating it: one :class:`AccessBox` per memlet, from which the fold
decides its guards before it simulates anything.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.sdfg.data import Array
from repro.sdfg.nodes import AccessNode, MapEntry, NestedSDFG, Node, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.simulation.affine import AffineSubset
from repro.simulation.layout import MemoryModel
from repro.simulation.simulator import SimulationResult

__all__ = [
    "Region",
    "RegionColumns",
    "AccessBox",
    "FoldCandidate",
    "extract_regions",
    "region_columns",
    "fold_statics",
]


class Region:
    """One top-level node of a state, simulated as an independent unit."""

    __slots__ = ("state", "node")

    def __init__(self, state: SDFGState, node: Node):
        self.state = state
        self.node = node

    def __repr__(self) -> str:
        return f"Region({self.state.name}, {type(self.node).__name__})"


def extract_regions(sdfg: SDFG, state: SDFGState | None = None) -> list[Region]:
    """Top-level regions of *state* (or all states), in simulation order.

    Mirrors the simulator's walk: topological node order, scoped nodes
    handled by their scope, and the same four dispatchable node kinds.
    Access nodes only form a region when they source a copy edge — a
    bare access node emits no events.
    """
    states = [state] if state is not None else list(sdfg.all_states_topological())
    regions: list[Region] = []
    for st in states:
        sdict = st.scope_dict()
        for node in st.topological_nodes():
            if sdict[node] is not None:
                continue
            if isinstance(node, (MapEntry, Tasklet, NestedSDFG)):
                regions.append(Region(st, node))
            elif isinstance(node, AccessNode) and any(
                isinstance(edge.dst, AccessNode) and edge.data.memlet is not None
                for edge in st.out_edges(node)
            ):
                regions.append(Region(st, node))
    return regions


class RegionColumns:
    """Columnar view of one region's trace.

    Parallel per-event arrays (trace order): region-local container ids
    and global cache-line ids (``None`` in a fold's block); plus, per
    container, the positions of its events and the matching
    element-index matrix.  Containers are listed in first-access order.
    """

    __slots__ = ("num_events", "containers", "container_ids", "lines",
                 "positions", "index_matrices")

    def __init__(
        self,
        num_events: int,
        containers: list[str],
        container_ids: np.ndarray,
        lines: np.ndarray,
        positions: dict[str, np.ndarray],
        index_matrices: dict[str, np.ndarray],
    ):
        self.num_events = num_events
        self.containers = containers
        self.container_ids = container_ids
        self.lines = lines
        self.positions = positions
        self.index_matrices = index_matrices


def region_columns(result: SimulationResult, memory: MemoryModel) -> RegionColumns:
    """Build the columnar view of a region's simulation result straight
    from its trace blocks: one stable sort of each container's positions
    orders its index rows, which the layout maps to cache lines."""
    grouped: dict[str, list] = {}
    for block in result.blocks:
        grouped.setdefault(block.data, []).append(block)
    container_ids = np.empty(result.num_events, dtype=np.int64)
    lines = np.empty(result.num_events, dtype=np.int64)
    positions: dict[str, np.ndarray] = {}
    index_matrices: dict[str, np.ndarray] = {}
    for cid, (name, blocks) in enumerate(grouped.items()):
        pos = np.concatenate([block.position_array() for block in blocks])
        order = np.argsort(pos, kind="stable")
        pos = positions[name] = pos[order]
        matrix = index_matrices[name] = np.concatenate([b.matrix for b in blocks])[order]
        container_ids[pos] = cid
        lines[pos] = memory.layout(name).cache_lines_of(matrix, memory.line_size)
    return RegionColumns(
        result.num_events, list(grouped), container_ids, lines, positions, index_matrices
    )


class AccessBox:
    """The element indices that memlets with one index map touch in
    outer block 0.

    For each point ``b`` of ``bases`` (one per memlet), index dimension
    ``d`` is ``b[d] + Σ_j column_j[d]·v_j`` over the box's ``terms``
    ``(column_j, lo_j, hi_j, step_j)``: one term per inner map parameter
    (its coefficients; it takes its concrete values) and one per range
    dimension of the subsets (a unit column; it takes the local
    offsets).  Variable ``v_j`` takes every value ``lo_j, lo_j + step_j,
    …, hi_j``, in every combination, so a weighted index sum is smallest
    and largest at the box's corners, and :meth:`runs` finds its gaps
    without listing it.  A stencil's memlets differ only in their base
    points, so they share one box.
    """

    __slots__ = ("data", "bases", "terms")

    def __init__(
        self,
        data: str,
        bases: list[tuple[int, ...]],
        terms: tuple[tuple[tuple[int, ...], int, int, int], ...],
    ):
        self.data = data
        self.bases = bases
        self.terms = terms

    def runs(self, weights: tuple[int, ...], gap: int) -> tuple[np.ndarray, np.ndarray]:
        """The values of ``Σ_d weights[d]·index[d]`` over block 0 as
        sorted runs ``(lo, hi)``: within a run consecutive values are at
        most *gap* apart, and runs are more than *gap* apart.

        Exact without listing the values: if every pair of neighbours of
        two sets is within *gap*, so is every pair of neighbours of their
        sum, so each term adds either one interval (its values are
        within *gap* of each other) or one shifted copy of the runs per
        value.
        """
        sums = np.array(
            [sum(w * b for w, b in zip(weights, base)) for base in self.bases],
            dtype=np.int64,
        )
        lo, hi = merge_runs(sums, sums, gap)
        scaled = sorted(
            (
                (sum(w * c for w, c in zip(weights, column)), v_lo, v_hi, step)
                for column, v_lo, v_hi, step in self.terms
            ),
            key=lambda term: abs(term[0]) * term[3],
        )
        for a, v_lo, v_hi, step in scaled:
            if a == 0:
                continue
            if abs(a) * step <= gap or v_lo == v_hi:
                lo = lo + min(a * v_lo, a * v_hi)
                hi = hi + max(a * v_lo, a * v_hi)
                if lo.size > 1 and v_lo != v_hi:
                    lo, hi = merge_runs(lo, hi, gap)
            else:
                values = a * np.arange(v_lo, v_hi + 1, step, dtype=np.int64)
                lo, hi = merge_runs(
                    (lo[:, None] + values).ravel(), (hi[:, None] + values).ravel(), gap
                )
        return lo, hi

    def index_bounds(self) -> list[tuple[int, int]]:
        """Per-dimension ``(min, max)`` element index over block 0, in
        one pass over the terms."""
        lo = [min(values) for values in zip(*self.bases)]
        hi = [max(values) for values in zip(*self.bases)]
        for column, v_lo, v_hi, _ in self.terms:
            for d, c in enumerate(column):
                if c:
                    lo[d] += min(c * v_lo, c * v_hi)
                    hi[d] += max(c * v_lo, c * v_hi)
        return list(zip(lo, hi))


def merge_runs(lo: np.ndarray, hi: np.ndarray, gap: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge intervals ``[lo, hi]`` whose distance is at most *gap* into
    sorted, pairwise more-than-*gap*-apart runs."""
    if lo.size == 1:
        return lo, hi
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    hi = hi[order]
    reach = np.maximum.accumulate(hi)
    starts = np.flatnonzero(np.concatenate(([True], lo[1:] - reach[:-1] > gap)))
    return lo[starts], np.maximum.reduceat(hi, starts)


class FoldCandidate:
    """Static description of a window-foldable map region.

    ``container_shifts[c]`` is the per-dimension element-index delta of
    every access to container *c* per outer-loop iteration (uniform by
    the statics guard); ``n`` is the concrete outer extent.  ``boxes``
    holds the :class:`AccessBox` of every memlet that records events,
    and ``block_events`` is the number of events of one outer block.
    """

    __slots__ = ("entry", "n", "step0", "container_shifts", "boxes",
                 "block_events")

    def __init__(
        self,
        entry: MapEntry,
        n: int,
        step0: int,
        container_shifts: dict[str, tuple[int, ...]],
        boxes: list[AccessBox],
        block_events: int,
    ):
        self.entry = entry
        self.n = n
        self.step0 = step0
        self.container_shifts = container_shifts
        self.boxes = boxes
        self.block_events = block_events


def _tracked(sdfg: SDFG, data: str, include_transients: bool) -> bool:
    if include_transients:
        return True
    desc = sdfg.arrays.get(data)
    return desc is None or isinstance(desc, Array)


def _progression(values) -> tuple[int, int, int]:
    """``(min, max, step)`` of a non-empty arithmetic progression."""
    step = abs(values[1] - values[0]) if len(values) > 1 else 1
    return min(values[0], values[-1]), max(values[0], values[-1]), step


def fold_statics(
    sdfg: SDFG,
    state: SDFGState,
    entry: MapEntry,
    env: Mapping[str, int],
    include_transients: bool = False,
) -> FoldCandidate | None:
    """Check the static fold preconditions of a map region.

    Returns ``None`` (→ enumerate the region instead) unless

    - the scope is flat: tasklets only, no nested maps or nested SDFGs;
    - the outer extent has ≥ 2 iterations and no range depends on any
      map parameter (triangular nests decline naturally);
    - every tracked memlet subset is affine in the map parameters;
    - each container's outer shift (per-dimension index delta per outer
      iteration) is identical across all accesses to it; and
    - an outer block records at least one event.
    """
    params = entry.map.params
    if not params:
        return None
    pset = frozenset(params)
    ranges = entry.map.ranges
    for r in ranges:
        if r.free_symbols() & pset:
            return None
    try:
        concrete = [r.concretize(env) for r in ranges]
    except Exception:  # noqa: BLE001 — undecidable extent: enumerate instead
        return None
    outer = concrete[0]
    n = len(outer)
    if n < 2 or not all(concrete[1:]):
        return None
    step0 = outer[1] - outer[0]
    inner = [
        (name, _progression(values))
        for name, values in zip(params[1:], concrete[1:])
    ]
    inner_points = math.prod(len(values) for values in concrete[1:])
    children = state.scope_children().get(entry, [])
    if any(isinstance(node, (MapEntry, NestedSDFG)) for node in children):
        return None
    container_shifts: dict[str, tuple[int, ...]] = {}
    bases: dict[tuple, list[tuple[int, ...]]] = {}
    block_events = 0
    for node in children:
        if not isinstance(node, Tasklet):
            continue
        for edge in list(state.in_edges(node)) + list(state.out_edges(node)):
            memlet = edge.data.memlet
            if memlet is None or not _tracked(sdfg, memlet.data, include_transients):
                continue
            subset = AffineSubset.from_memlet(memlet, pset)
            if subset is None:
                return None
            ndim = len(subset.dims)
            shifts = []
            base = []
            columns = [[0] * ndim for _ in inner]
            terms = []
            width = 1
            for d, dim in enumerate(subset.dims):
                offset, coeffs = dim.begin.concretize(env)
                shifts.append(coeffs.get(params[0], 0) * step0)
                base.append(offset + coeffs.get(params[0], 0) * outer[0])
                for column, (name, _) in zip(columns, inner):
                    column[d] = coeffs.get(name, 0)
                if dim.is_point:
                    continue
                local = dim.local_offsets(env)
                width *= len(local)
                if local:
                    unit = tuple(int(k == d) for k in range(ndim))
                    terms.append((unit, *_progression(local)))
            shift = tuple(shifts)
            previous = container_shifts.setdefault(memlet.data, shift)
            if previous != shift:
                return None
            if width:
                terms += [
                    (tuple(column), *bounds)
                    for column, (_, bounds) in zip(columns, inner)
                ]
                bases.setdefault((memlet.data, tuple(terms)), []).append(tuple(base))
                block_events += width * inner_points
    if not block_events:
        return None
    boxes = [AccessBox(data, points, terms) for (data, terms), points in bases.items()]
    return FoldCandidate(entry, n, step0, container_shifts, boxes, block_events)
