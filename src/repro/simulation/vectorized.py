"""NumPy-vectorized recording of flat map scopes.

The interpreter in :mod:`~repro.simulation.simulator` evaluates every
memlet subset with per-iteration ``eval`` calls — a handful of Python-VM
round trips per access event.  For memlets whose subsets are *affine* in
the map parameters (:mod:`~repro.simulation.affine`), the whole scope's
accesses are computed with array arithmetic instead:

1. broadcast the scope's concrete parameter ranges into flat index grids
   (one ``int64`` column per parameter, row-major / last-parameter-fastest
   order — exactly the interpreter's iteration order);
2. combine the grids with each memlet's affine offsets and coefficients
   into per-dimension index columns (one matrix per memlet);
3. record each (memlet, subset point) column as a
   :class:`~repro.simulation.trace.TraceBlock` whose rows' steps,
   executions and iteration points follow from the scope's bases
   (:class:`ScopeFirings`).

When every subset is affine, the scope's events-per-iteration is
constant, so each column's trace positions are a slice: nothing is
recorded per event or per iteration beyond the index matrices.  Subsets
that are not affine are evaluated per iteration through the
interpreter's compiled subsets inside the same scope walk; they may
cover a varying number of points per iteration, so the scope's blocks
then carry explicit positions.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import MapEntry, Tasklet
from repro.sdfg.state import SDFGState
from repro.simulation.affine import AffineSubset
from repro.simulation.trace import AccessKind, TraceBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer
    from repro.simulation.simulator import SimulationResult

__all__ = ["ScopeFirings", "simulate_scope_vectorized"]


def _grid_columns(axes: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Flat parameter columns of an iteration grid, in interpreter order."""
    shape = tuple(a.size for a in axes)
    return [
        np.ascontiguousarray(
            np.broadcast_to(
                values.reshape(tuple(-1 if i == axis else 1 for i in range(len(axes)))),
                shape,
            )
        ).reshape(-1)
        for axis, values in enumerate(axes)
    ]


class ScopeFirings:
    """Firings of one tasklet of a vectorized scope.

    Iteration *i* fires at step ``step_base + i`` as execution
    ``execution_base + ntasklets·i``, at the iteration point
    ``outer_point`` followed by grid point *i* of ``axes`` (the concrete
    values of each map parameter).  Row *i* of a block is iteration *i*,
    or, with ``counts``, iteration *i* covers ``counts[i]`` consecutive
    rows (a non-affine subset).
    """

    __slots__ = (
        "step_base", "execution_base", "ntasklets", "axes", "outer_point", "counts",
    )

    def __init__(
        self,
        step_base: int,
        execution_base: int,
        ntasklets: int,
        axes: Sequence[np.ndarray],
        outer_point: tuple[int, ...],
        counts: np.ndarray | None = None,
    ):
        self.step_base = step_base
        self.execution_base = execution_base
        self.ntasklets = ntasklets
        self.axes = tuple(axes)
        self.outer_point = outer_point
        self.counts = counts

    def _rows(self, values: np.ndarray) -> np.ndarray:
        if self.counts is None:
            return values
        return np.repeat(values, self.counts, axis=0)

    def _iterations(self) -> np.ndarray:
        return np.arange(math.prod(a.size for a in self.axes), dtype=np.int64)

    def steps(self) -> np.ndarray:
        return self._rows(self.step_base + self._iterations())

    def executions(self) -> np.ndarray:
        return self._rows(self.execution_base + self.ntasklets * self._iterations())

    def points(self) -> np.ndarray:
        niter = math.prod(a.size for a in self.axes)
        columns = [np.full(niter, v, dtype=np.int64) for v in self.outer_point]
        columns += _grid_columns(self.axes)
        if not columns:
            return self._rows(np.empty((niter, 0), dtype=np.int64))
        return self._rows(np.stack(columns, axis=1))


def _iteration_axes(entry: MapEntry, env: dict) -> list[np.ndarray] | None:
    """Concrete values of each map parameter, or ``None`` for an empty
    iteration space (the interpreter's "loop body never runs" case)."""
    map_obj = entry.map
    try:
        concrete = [r.concretize(env) for r in map_obj.ranges]
    except Exception as exc:  # noqa: BLE001 — converted to SimulationError
        raise SimulationError(
            f"cannot concretize map {map_obj.label!r}: {exc}; provide values "
            f"for {sorted(set().union(*(r.free_symbols() for r in map_obj.ranges)))}"
        ) from exc
    axes = [np.fromiter(c, dtype=np.int64, count=len(c)) for c in concrete]
    if any(a.size == 0 for a in axes):
        return None
    return axes


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


def _evaluate_subsets(
    compiled: Sequence, params: Sequence[str], cols: Sequence[np.ndarray], env: dict
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per non-affine subset: points per iteration and the index matrix."""
    if not compiled:
        return []
    local_env = dict(env)
    flats: list[list[int]] = [[] for _ in compiled]
    counts: list[list[int]] = [[] for _ in compiled]
    points = zip(*(c.tolist() for c in cols)) if cols else [()]
    for point in points:
        local_env.update(zip(params, point))
        for subset, flat, count in zip(compiled, flats, counts):
            rows = list(subset.points(local_env))
            flat.extend(chain.from_iterable(rows))
            count.append(len(rows))
    out = []
    for subset, flat, count in zip(compiled, flats, counts):
        count = np.array(count, dtype=np.int64)
        matrix = np.array(flat, dtype=np.int64).reshape(int(count.sum()), len(subset.dims))
        out.append((count, matrix))
    return out


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
) -> None:
    """Record one flat map scope — trace-identical to the interpreter:
    the same blocks' rows at the same positions, and the same step and
    execution counters afterwards."""
    from repro.analysis.timing import maybe_span

    map_obj = entry.map
    params = frozenset(map_obj.params)
    param_index = {p: i for i, p in enumerate(map_obj.params)}

    with maybe_span(timings, "enumerate"):
        axes = _iteration_axes(entry, env)
        if axes is None:
            return  # empty iteration space: no events, no steps
        cols = _grid_columns(axes)
        niter = math.prod(a.size for a in axes)
        # One plan per tracked memlet, in the interpreter's order:
        # (tasklet index, data, kind, width, matrix), with width None for
        # a non-affine subset, which ``compiled`` holds in plan order.
        plans: list[tuple] = []
        compiled: list = []
        for t_idx, tasklet in enumerate(tasklets):
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
                        compiled.append(compile_subset(memlet))
                        plans.append((t_idx, memlet.data, kind, None, None))
                    else:
                        width, matrix = _materialize(affine, cols, niter, env, param_index)
                        plans.append((t_idx, memlet.data, kind, width, matrix))

    ntasklets = len(tasklets)
    events_before = result.num_events
    with maybe_span(timings, "evaluate") as span:
        evaluated = _evaluate_subsets(compiled, map_obj.params, cols, env)
        # Accesses per iteration: a constant when every subset is affine
        # (positions are slices), else an array (positions are explicit).
        per_iter = sum(plan[3] or 0 for plan in plans)
        for count, _ in evaluated:
            per_iter = per_iter + count
        if evaluated:
            starts = events_before + np.cumsum(per_iter) - per_iter
            events = int(per_iter.sum())
        else:
            events = per_iter * niter
        firings = [
            ScopeFirings(
                result.num_steps, result.num_executions + t_idx, ntasklets,
                axes, outer_point,
            )
            for t_idx in range(ntasklets)
        ]
        pending = iter(evaluated)
        within = 0  # offset of the next plan's accesses inside an iteration
        for t_idx, data, kind, width, matrix in plans:
            name = tasklets[t_idx].name
            if width is None:
                count, matrix = next(pending)
                # Iteration i's rows sit at starts[i] + within[i] onwards.
                first_rows = np.cumsum(count) - count
                positions = np.repeat(starts + within - first_rows, count)
                positions += np.arange(matrix.shape[0], dtype=np.int64)
                if matrix.shape[0]:
                    counted = ScopeFirings(
                        result.num_steps, result.num_executions + t_idx, ntasklets,
                        axes, outer_point, counts=count,
                    )
                    result.add_block(TraceBlock(data, kind, name, matrix, positions, counted))
                within = within + count
                continue
            for r in range(width):
                if evaluated:
                    positions = starts + within
                else:
                    positions = slice(
                        events_before + within, events_before + events, per_iter
                    )
                result.add_block(
                    TraceBlock(data, kind, name, matrix[r::width], positions, firings[t_idx])
                )
                within = within + 1
        result.num_events += events
        span.set(scope=map_obj.label, events=events)
    result.num_steps += niter
    result.num_executions += niter * ntasklets
