"""NumPy-vectorized fast path for access-trace generation.

The interpreter in :mod:`~repro.simulation.simulator` evaluates every
memlet subset with per-iteration ``eval`` calls — a handful of Python-VM
round trips per access event.  For memlets whose subsets are *affine* in
the map parameters (:mod:`~repro.simulation.affine`), the whole trace of
a map scope can instead be materialized with array arithmetic:

1. broadcast the scope's concrete parameter ranges into flat index grids
   (one ``int64`` column per parameter, row-major / last-parameter-fastest
   order — exactly the interpreter's iteration order);
2. combine the grids with each memlet's affine offsets and coefficients
   into per-dimension index columns (one matrix per memlet);
3. assemble :class:`~repro.simulation.trace.AccessEvent` objects in bulk
   with strided slice assignment, so the per-event Python cost is one
   constructor call instead of several ``eval`` s.

Memlets that are *not* affine fall back to the interpreter's compiled
subsets per memlet, inside the same scope walk, so mixed scopes still
produce byte-identical traces.

The index matrices are additionally kept on the result (as
:class:`VectorBlock` records) so the element→address→cache-line
projection of the locality pipeline can run as a single broadcast
(:func:`fast_line_trace`) instead of a per-event Python loop.
"""

from __future__ import annotations

import gc
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import MapEntry, Tasklet
from repro.sdfg.state import SDFGState
from repro.simulation.affine import AffineSubset
from repro.simulation.trace import AccessEvent, AccessKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer
    from repro.simulation.layout import MemoryModel
    from repro.simulation.simulator import SimulationResult

__all__ = ["VectorBlock", "simulate_scope_vectorized", "fast_line_trace"]


class VectorBlock:
    """Index matrix of one vectorized memlet, with its trace positions.

    The events of one (tasklet, edge, subset-point) column occupy
    positions ``start, start + stride, ...`` in the global event list
    (``stride`` is the scope's events-per-iteration).  ``matrix`` holds
    the per-event element indices, shape ``(count, ndims)``.
    """

    __slots__ = ("data", "matrix", "start", "stride", "count")

    def __init__(self, data: str, matrix: np.ndarray, start: int, stride: int, count: int):
        self.data = data
        self.matrix = matrix
        self.start = start
        self.stride = stride
        self.count = count

    def __repr__(self) -> str:
        return (
            f"VectorBlock({self.data}, count={self.count}, "
            f"start={self.start}, stride={self.stride})"
        )


class _VecPlan:
    """A vectorized edge: the scope-wide index matrix, tuples on demand.

    The index tuples back the object trace only; they are built lazily
    (first access) so the array pipeline, which consumes ``matrix``
    directly, never pays the per-event tuple cost.
    """

    __slots__ = ("data", "kind", "width", "matrix", "_tuples")

    def __init__(self, data: str, kind: AccessKind, width: int, matrix: np.ndarray):
        self.data = data
        self.kind = kind
        self.width = width
        self.matrix = matrix
        self._tuples: list | None = None

    @property
    def tuples(self) -> list:
        if self._tuples is None:
            matrix = self.matrix
            if matrix.shape[1] == 0:
                self._tuples = [()] * matrix.shape[0]
            else:
                self._tuples = list(
                    zip(*(matrix[:, d].tolist() for d in range(matrix.shape[1])))
                )
        return self._tuples


class _InterpPlan:
    """A non-affine edge: evaluated per iteration via the compiled subset."""

    __slots__ = ("data", "kind", "compiled")

    def __init__(self, data: str, kind: AccessKind, compiled):
        self.data = data
        self.kind = kind
        self.compiled = compiled


def _iteration_grids(
    entry: MapEntry, env: dict
) -> tuple[list[np.ndarray], int, list[tuple[int, ...]]] | None:
    """Flat parameter columns + iteration points, in interpreter order.

    Returns ``None`` for an empty iteration space (any dimension with no
    indices), matching the interpreter's "loop body never runs" case.
    """
    map_obj = entry.map
    try:
        concrete = [r.concretize(env) for r in map_obj.ranges]
    except Exception as exc:  # noqa: BLE001 — converted to SimulationError
        raise SimulationError(
            f"cannot concretize map {map_obj.label!r}: {exc}; provide values "
            f"for {sorted(set().union(*(r.free_symbols() for r in map_obj.ranges)))}"
        ) from exc
    dims = [np.fromiter(c, dtype=np.int64, count=len(c)) for c in concrete]
    if not dims:
        return [], 1, [()]
    if any(d.size == 0 for d in dims):
        return None
    shape = tuple(d.size for d in dims)
    niter = 1
    for s in shape:
        niter *= s
    cols: list[np.ndarray] = []
    for axis, arr in enumerate(dims):
        view = arr.reshape(tuple(-1 if i == axis else 1 for i in range(len(dims))))
        cols.append(np.ascontiguousarray(np.broadcast_to(view, shape).reshape(-1)))
    points = list(zip(*(c.tolist() for c in cols)))
    return cols, niter, points


def _materialize(
    affine: AffineSubset,
    cols: Sequence[np.ndarray],
    niter: int,
    env: dict,
    param_index: dict[str, int],
) -> tuple[int, np.ndarray]:
    """Index matrix (iteration-major, subset-point-minor) for one memlet."""
    ndims = len(affine.dims)
    bases: list[np.ndarray] = []
    locals_per_dim: list[list[int]] = []
    for dim in affine.dims:
        offset, coeffs = dim.begin.concretize(env)
        base = np.full(niter, offset, dtype=np.int64)
        for p, c in coeffs.items():
            if c:
                base = base + c * cols[param_index[p]]
        bases.append(base)
        locals_per_dim.append(dim.local_offsets(env))

    width = 1
    for offsets in locals_per_dim:
        width *= len(offsets)
    if width == 0:
        return 0, np.empty((0, ndims), dtype=np.int64)
    if ndims == 0:
        return 1, np.empty((niter, 0), dtype=np.int64)

    flats: list[np.ndarray] = []
    suffix = width
    prefix = 1
    for d, offsets in enumerate(locals_per_dim):
        suffix //= len(offsets)
        pattern = np.tile(np.repeat(np.asarray(offsets, dtype=np.int64), suffix), prefix)
        prefix *= len(offsets)
        flats.append((bases[d][:, None] + pattern[None, :]).reshape(-1))
    matrix = np.stack(flats, axis=1)
    return width, matrix


def simulate_scope_vectorized(
    state: SDFGState,
    entry: MapEntry,
    tasklets: Sequence[Tasklet],
    env: dict,
    result: "SimulationResult",
    outer_point: tuple[int, ...],
    tracked: Callable[[str], bool],
    compile_subset: Callable[[Memlet], object],
    timings: "Tracer | None" = None,
) -> bool:
    """Vectorized simulation of one flat map scope.

    Returns ``True`` when the scope was fully handled (events appended,
    step/execution counters advanced — trace-identical to the
    interpreter), or ``False`` to decline (no memlet vectorizes), in
    which case the caller runs the interpreter unchanged.
    """
    from repro.analysis.timing import maybe_span

    map_obj = entry.map
    params = frozenset(map_obj.params)
    param_index = {p: i for i, p in enumerate(map_obj.params)}

    with maybe_span(timings, "enumerate"):
        grids = _iteration_grids(entry, env)
    if grids is None:
        return True  # empty iteration space: no events, no steps
    cols, niter, points = grids

    with maybe_span(timings, "enumerate"):
        plans: list[tuple[str, list]] = []
        any_affine = False
        has_fallback = False
        for tasklet in tasklets:
            edge_plans: list = []
            for kind, edges in (
                (AccessKind.READ, state.in_edges(tasklet)),
                (AccessKind.WRITE, state.out_edges(tasklet)),
            ):
                for edge in edges:
                    memlet = edge.data.memlet
                    if memlet is None or not tracked(memlet.data):
                        continue
                    affine = AffineSubset.from_memlet(memlet, params)
                    if affine is None:
                        edge_plans.append(
                            _InterpPlan(memlet.data, kind, compile_subset(memlet))
                        )
                        has_fallback = True
                    else:
                        width, matrix = _materialize(
                            affine, cols, niter, env, param_index
                        )
                        edge_plans.append(
                            _VecPlan(memlet.data, kind, width, matrix)
                        )
                        any_affine = True
            plans.append((tasklet.name, edge_plans))

    if has_fallback and not any_affine:
        return False  # nothing vectorizes; the plain interpreter is faster

    full_points = [outer_point + p for p in points] if outer_point else points
    ntasklets = len(tasklets)
    step_base = result.num_steps
    exec_base = result.num_executions

    events_before = result.num_events
    with maybe_span(timings, "evaluate") as span:
        if has_fallback:
            # Bulk-allocating hundreds of thousands of events triggers the
            # cyclic collector over and over even though AccessEvent objects
            # (ints, strings, tuples of ints) cannot form cycles; pausing it
            # during assembly is worth ~8x on large scopes.
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                _assemble_mixed(
                    plans, map_obj.params, points, full_points, env, result,
                    step_base, exec_base, niter, ntasklets,
                )
            finally:
                if gc_was_enabled:
                    gc.enable()
        else:
            _assemble_pure(
                plans, full_points, result, step_base, exec_base, niter, ntasklets,
            )
        span.set(
            scope=map_obj.label,
            events=result.num_events - events_before,
            vectorized=not has_fallback,
        )
    result.num_steps += niter
    result.num_executions += niter * ntasklets
    return True


class _LazyScopeEvents:
    """Deferred event block of one fully-vectorized map scope.

    Registered on the result instead of real events: the array pipeline
    answers every locality query from the index matrices, so the
    per-event :class:`AccessEvent` objects are only built if a consumer
    reads the object trace (``result.events``).
    """

    __slots__ = (
        "plans", "full_points", "step_base", "exec_base",
        "niter", "ntasklets", "events_per_iter", "num_events",
    )

    def __init__(
        self,
        plans: list,
        full_points: list,
        step_base: int,
        exec_base: int,
        niter: int,
        ntasklets: int,
        events_per_iter: int,
    ):
        self.plans = plans
        self.full_points = full_points
        self.step_base = step_base
        self.exec_base = exec_base
        self.niter = niter
        self.ntasklets = ntasklets
        self.events_per_iter = events_per_iter
        self.num_events = niter * events_per_iter

    def materialize(self) -> list:
        """Build the event block — identical to eager assembly.

        Events per iteration are constant, so each (edge, subset-point)
        column occupies a strided slice of the scope's event block — one
        bulk ``map()`` per column, no per-iteration Python loop.
        """
        niter = self.niter
        events_per_iter = self.events_per_iter
        block = [None] * self.num_events
        steps = range(self.step_base, self.step_base + niter)
        full_points = self.full_points
        # Bulk-allocating hundreds of thousands of events triggers the
        # cyclic collector over and over even though AccessEvent objects
        # (ints, strings, tuples of ints) cannot form cycles; pausing it
        # during assembly is worth ~8x on large scopes.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            offset = 0
            for t_idx, (tname, edge_plans) in enumerate(self.plans):
                execs = range(
                    self.exec_base + t_idx,
                    self.exec_base + niter * self.ntasklets,
                    self.ntasklets,
                )
                for plan in edge_plans:
                    data, kind, width = plan.data, plan.kind, plan.width
                    tuples = plan.tuples if width else []
                    for r in range(width):
                        # map() + repeat() keeps the per-event Python work
                        # down to the AccessEvent constructor itself.
                        block[offset::events_per_iter] = list(
                            map(
                                AccessEvent,
                                repeat(data),
                                tuples[r::width] if width > 1 else tuples,
                                repeat(kind), steps, execs, repeat(tname),
                                full_points,
                            )
                        )
                        offset += 1
        finally:
            if gc_was_enabled:
                gc.enable()
        return block

    # -- matrix-answerable aggregates (no materialization) -------------------
    def container_order(self) -> list:
        """Containers in first-access order within this block."""
        return [
            p.data for _, edge_plans in self.plans for p in edge_plans if p.width
        ]

    def count_for(self, data: str) -> int:
        """Number of events touching *data* in this block."""
        return sum(
            p.width * self.niter
            for _, edge_plans in self.plans
            for p in edge_plans
            if p.data == data
        )

    def accumulate_counts(self, data: str, kind, counts: dict) -> None:
        """Add this block's per-element access counts for *data*."""
        for _, edge_plans in self.plans:
            for plan in edge_plans:
                if plan.data != data or not plan.width:
                    continue
                if kind is not None and plan.kind != kind:
                    continue
                matrix = plan.matrix
                if matrix.shape[1] == 0:
                    counts[()] = counts.get((), 0) + matrix.shape[0]
                    continue
                unique, freq = np.unique(matrix, axis=0, return_counts=True)
                for row, count in zip(unique.tolist(), freq.tolist()):
                    key = tuple(row)
                    counts[key] = counts.get(key, 0) + count


def _assemble_pure(
    plans: list,
    full_points: list,
    result: "SimulationResult",
    step_base: int,
    exec_base: int,
    niter: int,
    ntasklets: int,
) -> None:
    """Register the scope's events lazily when every memlet vectorized.

    Only the :class:`VectorBlock` index matrices and a deferred
    :class:`_LazyScopeEvents` segment are recorded; no per-event Python
    object is created here.
    """
    events_per_iter = sum(p.width for _, edge_plans in plans for p in edge_plans)
    if events_per_iter == 0:
        return
    base_pos = result.num_events
    offset = 0
    for _, edge_plans in plans:
        for plan in edge_plans:
            for r in range(plan.width):
                result.vector_blocks.append(
                    VectorBlock(
                        plan.data,
                        plan.matrix[r::plan.width],
                        base_pos + offset,
                        events_per_iter,
                        niter,
                    )
                )
                offset += 1
    result.add_lazy_segment(
        _LazyScopeEvents(
            plans, full_points, step_base, exec_base, niter, ntasklets,
            events_per_iter,
        )
    )


def _assemble_mixed(
    plans: list,
    params: Sequence[str],
    points: list,
    full_points: list,
    env: dict,
    result: "SimulationResult",
    step_base: int,
    exec_base: int,
    niter: int,
    ntasklets: int,
) -> None:
    """Per-iteration assembly when some memlets need the interpreter.

    Non-affine subsets may cover a varying number of points per
    iteration, so event positions are not strided; walk iterations in
    order, emitting prebuilt tuples for vectorized edges and evaluating
    compiled subsets for the rest.
    """
    local_env = dict(env)
    block: list[AccessEvent] = []
    append = block.append
    for it in range(niter):
        for name, value in zip(params, points[it]):
            local_env[name] = value
        step = step_base + it
        point = full_points[it]
        for t_idx, (tname, edge_plans) in enumerate(plans):
            execution = exec_base + it * ntasklets + t_idx
            for plan in edge_plans:
                if isinstance(plan, _VecPlan):
                    base = it * plan.width
                    for r in range(plan.width):
                        append(
                            AccessEvent(
                                plan.data, plan.tuples[base + r], plan.kind,
                                step, execution, tname, point,
                            )
                        )
                else:
                    for indices in plan.compiled.points(local_env):
                        append(
                            AccessEvent(
                                plan.data, indices, plan.kind,
                                step, execution, tname, point,
                            )
                        )
    result.extend_events(block)


def fast_line_trace(result: "SimulationResult", memory: "MemoryModel") -> list[int]:
    """Project a trace onto cache-line ids, vectorized where possible.

    When the whole trace was produced by the vectorized fast path, the
    element→address→line projection runs as one broadcast per
    :class:`VectorBlock` (index grid · strides → addresses → line ids).
    Traces with interpreted portions fall back to the per-event
    projection of :func:`~repro.simulation.stackdist.line_trace`.
    """
    from repro.simulation.stackdist import line_trace

    blocks = getattr(result, "vector_blocks", None)
    n = result.num_events
    if not blocks or sum(b.count for b in blocks) != n:
        return line_trace(result.events, memory)
    out = np.empty(n, dtype=np.int64)
    for b in blocks:
        layout = memory.layout(b.data)
        if b.matrix.shape[1]:
            strides = np.asarray(layout.strides, dtype=np.int64)
            offsets = layout.start_offset + b.matrix @ strides
        else:
            offsets = np.full(b.count, layout.start_offset, dtype=np.int64)
        addresses = layout.base_address + offsets * layout.itemsize
        stop = b.start + b.stride * b.count
        out[b.start:stop:b.stride] = addresses // memory.line_size
    return out.tolist()
