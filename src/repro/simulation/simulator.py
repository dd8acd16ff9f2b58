"""The access-pattern simulator (paper Section V-C).

"In the parameterized graph, where parallel regions have their bounds
fixed, we can perform an iteration space simulation to evaluate these
symbolic expressions and derive the exact data accesses performed by each
computation in the graph."

The simulator walks a state's scopes in topological order, enumerates every
map's concrete iteration space and evaluates each memlet subset at each
point.  The trace it produces is columnar: a list of
:class:`~repro.simulation.trace.TraceBlock` records, one per (container,
kind, tasklet) column, which every view of :class:`SimulationResult` and
the array pipeline (:mod:`~repro.simulation.arrays`) read directly.

Flat map scopes are recorded by :mod:`~repro.simulation.vectorized`:
affine memlet subsets by NumPy broadcast arithmetic, which is what makes
the "fraction of a second" interactive loop of the paper feasible at
realistic sizes, the others per iteration.  Scopes with nested maps or
nested SDFGs, bare tasklets and access-node copies run through the
per-iteration interpreter, whose symbolic index expressions are compiled
to Python code objects once per memlet.  ``fast=False`` runs the
interpreter everywhere: it is the differential-testing oracle for the
vectorized path, and no production caller sets it.  Both paths record
identical traces, and both reject a negative element index with a
:class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sdfg.data import Array
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, MapEntry, NestedSDFG, Node, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.simulation.iterspace import iteration_points
from repro.simulation.trace import AccessEvent, AccessKind, RecordedFirings, TraceBlock

__all__ = [
    "AccessPatternSimulator",
    "SimulationResult",
    "simulate_state",
    "simulate_region",
]

#: Helper globals available when evaluating compiled index expressions.
_EVAL_GLOBALS = {"__builtins__": {}, "Min": min, "Max": max}


class _CompiledSubset:
    """A memlet subset pre-compiled for fast repeated evaluation."""

    __slots__ = ("dims",)

    def __init__(self, memlet: Memlet):
        self.dims = []
        for r in memlet.subset.ranges:
            begin = compile(str(r.begin), "<memlet>", "eval")
            if r.is_point:
                self.dims.append((begin, None, None))
            else:
                end = compile(str(r.end), "<memlet>", "eval")
                step = compile(str(r.step), "<memlet>", "eval")
                self.dims.append((begin, end, step))

    def points(self, env: dict) -> Iterator[tuple[int, ...]]:
        """Concrete element indices covered under *env* (row-major order)."""
        axes: list[list[int]] = []
        for begin, end, step in self.dims:
            b = eval(begin, _EVAL_GLOBALS, env)  # noqa: S307
            if end is None:
                axes.append([int(b)])
                continue
            e = eval(end, _EVAL_GLOBALS, env)  # noqa: S307
            s = eval(step, _EVAL_GLOBALS, env)  # noqa: S307
            if s == 0:
                raise SimulationError("memlet subset step evaluated to zero")
            if s > 0:
                axes.append(list(range(int(b), int(e) + 1, int(s))))
            else:
                axes.append(list(range(int(b), int(e) - 1, int(s))))
        if not axes:
            yield ()
            return
        pos = [0] * len(axes)
        while True:
            yield tuple(a[p] for a, p in zip(axes, pos))
            axis = len(axes) - 1
            while axis >= 0:
                pos[axis] += 1
                if pos[axis] < len(axes[axis]):
                    break
                pos[axis] = 0
                axis -= 1
            if axis < 0:
                return


def _seal_column(
    key: tuple, flat: list[int], runs: list[tuple[int, ...]]
) -> TraceBlock:
    """The block of one interpreter-recorded column: *flat* holds its
    rows' indices, *runs* one ``(start, count, step, execution, *point)``
    row per tasklet firing, whose rows sit at consecutive positions."""
    data, kind, tasklet, ndim, pdim = key
    table = np.array(runs, dtype=np.int64).reshape(len(runs), 4 + pdim)
    starts, counts = table[:, 0], table[:, 1]
    total = int(counts.sum())
    first_rows = np.cumsum(counts) - counts
    positions = np.repeat(starts - first_rows, counts) + np.arange(total, dtype=np.int64)
    firings = RecordedFirings(counts, table[:, 2], table[:, 3], table[:, 4:])
    matrix = np.array(flat, dtype=np.int64).reshape(total, ndim)
    return TraceBlock(data, kind, tasklet, matrix, positions, firings)


class SimulationResult:
    """The ordered access trace plus convenient aggregate views.

    The trace is stored as :class:`~repro.simulation.trace.TraceBlock`
    columns (:attr:`blocks`): vectorized scopes add strided blocks, the
    interpreter records its accesses per (container, kind, tasklet) and
    seals them into blocks with explicit positions.  Every view reads
    the blocks; :attr:`events` builds :class:`AccessEvent` objects on
    each read and keeps none.
    """

    def __init__(self, sdfg: SDFG, env: dict[str, int]):
        self.sdfg = sdfg
        self.env = dict(env)
        self.num_events = 0
        self.num_steps = 0
        self.num_executions = 0
        self._blocks: list[TraceBlock] = []
        #: The interpreter's recording: (data, kind, tasklet, ndim, pdim)
        #: -> (flattened indices, firing runs); see :func:`_seal_column`.
        self._columns: dict[tuple, tuple[list, list]] = {}
        self._sealed = True

    # -- trace construction ----------------------------------------------------
    def add_block(self, block: TraceBlock) -> None:
        """Add a block whose positions the caller has reserved."""
        block.check_indices()
        self._blocks.append(block)
        self._sealed = False

    def record(
        self,
        data: str,
        kind: AccessKind,
        tasklet: str,
        rows: Sequence[tuple[int, ...]],
        step: int,
        execution: int,
        point: tuple[int, ...],
    ) -> None:
        """Append one firing's accesses through one memlet (the
        interpreter path), at the next trace positions."""
        if not rows:
            return
        key = (data, kind, tasklet, len(rows[0]), len(point))
        flat, runs = self._columns.setdefault(key, ([], []))
        flat.extend(chain.from_iterable(rows))
        runs.append((self.num_events, len(rows), step, execution, *point))
        self.num_events += len(rows)

    def seal(self) -> None:
        """Turn the interpreter's recording into blocks and order every
        block by its first position (the simulator calls this last)."""
        if self._sealed and not self._columns:
            return
        for key, (flat, runs) in self._columns.items():
            block = _seal_column(key, flat, runs)
            block.check_indices()
            self._blocks.append(block)
        self._columns = {}
        self._blocks.sort(key=attrgetter("first_position"))
        self._sealed = True

    @property
    def blocks(self) -> list[TraceBlock]:
        """The trace's blocks, ordered by their first position."""
        self.seal()
        return self._blocks

    @property
    def events(self) -> list[AccessEvent]:
        """The ordered per-event trace, built from the blocks on each read."""
        out: list = [None] * self.num_events
        for block in self.blocks:
            events = block.events()
            if isinstance(block.positions, slice):
                out[block.positions] = events
            else:
                for position, event in zip(block.positions.tolist(), events):
                    out[position] = event
        return out

    # -- shapes --------------------------------------------------------------
    def shape(self, data: str) -> tuple[int, ...]:
        """Concrete shape of *data* under the simulation parameters."""
        desc = self.sdfg.arrays[data]
        return tuple(int(s.evaluate(self.env)) for s in desc.shape)

    def containers(self) -> list[str]:
        """Containers that appear in the trace, in first-access order."""
        return list(dict.fromkeys(block.data for block in self.blocks))

    # -- aggregate views ---------------------------------------------------------
    def access_counts(
        self, data: str, kind: AccessKind | None = None
    ) -> dict[tuple[int, ...], int]:
        """Flattened time dimension: access count per element (Fig. 4b)."""
        matrices = [
            block.matrix
            for block in self.blocks
            if block.data == data and (kind is None or block.kind == kind)
        ]
        if not matrices:
            return {}
        matrix = np.concatenate(matrices)
        if matrix.shape[1] == 0:
            return {(): matrix.shape[0]}
        unique, freq = np.unique(matrix, axis=0, return_counts=True)
        return dict(zip(map(tuple, unique.tolist()), freq.tolist()))

    def total_accesses(self, data: str | None = None) -> int:
        if data is None:
            return self.num_events
        return sum(block.count for block in self.blocks if block.data == data)

    def events_at_step(self, step: int) -> list[AccessEvent]:
        """Playback frame: all accesses of one timestep (Section V-C)."""
        found: list[tuple[int, AccessEvent]] = []
        for block in self.blocks:
            rows = np.flatnonzero(block.steps() == step)
            if rows.size:
                found.extend(
                    zip(block.position_array()[rows].tolist(), block.events(rows))
                )
        found.sort(key=itemgetter(0))
        return [event for _, event in found]

    def steps(self) -> Iterator[list[AccessEvent]]:
        """Iterate playback frames in order."""
        frame: list[AccessEvent] = []
        current = 0
        for e in self.events:
            if e.step != current:
                yield frame
                frame = []
                current = e.step
            frame.append(e)
        if frame:
            yield frame

    def executions(self) -> Iterator[tuple[int, list[AccessEvent]]]:
        """Iterate (execution id, events) groups — one tasklet firing each."""
        group: list[AccessEvent] = []
        current: int | None = None
        for e in self.events:
            if current is None:
                current = e.execution
            if e.execution != current:
                yield current, group
                group = []
                current = e.execution
            group.append(e)
        if group:
            yield current if current is not None else 0, group

    def __repr__(self) -> str:
        return (
            f"SimulationResult(events={self.num_events}, steps={self.num_steps}, "
            f"containers={self.containers()})"
        )


class AccessPatternSimulator:
    """Simulates the access pattern of a parameterized state.

    Parameters
    ----------
    sdfg:
        The program.
    symbols:
        Concrete values for every free symbol of the simulated region —
        the small "parameterization" sizes of the local view.
    state:
        The state to simulate (default: every state in order).
    include_transients:
        When False (default), accesses to scalar transients (tasklet
        locals) are excluded — they live in registers, not memory.
    fast:
        When True (default), flat map scopes are recorded by the
        vectorized path (:mod:`~repro.simulation.vectorized`).  False
        forces the per-iteration interpreter everywhere, nested SDFG
        bodies included: the differential-testing oracle, which no
        production caller uses.  Both paths record identical traces.
    timings:
        Optional :class:`~repro.obs.trace.Tracer` recording
        enumerate/evaluate wall-time spans.
    """

    def __init__(
        self,
        sdfg: SDFG,
        symbols: Mapping[str, int] | None = None,
        state: SDFGState | None = None,
        include_transients: bool = False,
        fast: bool = True,
        timings=None,
    ):
        self.sdfg = sdfg
        self.symbols = {k: int(v) for k, v in (symbols or {}).items()}
        self.state = state
        self.include_transients = include_transients
        self.fast = fast
        self.timings = timings
        missing = sorted(
            s for s in sdfg.free_symbols() if s not in self.symbols
        )
        if missing:
            raise SimulationError(
                f"simulation requires concrete values for symbols {missing}"
            )
        #: Per state: its scope children and topological node order; per
        #: map entry: its tasklets, nested maps and nested SDFGs in that
        #: order.  Computed once per simulator, which serves one run or
        #: one analysis of an unchanging graph.
        self._states: dict[SDFGState, tuple[dict, list]] = {}
        self._scopes: dict[MapEntry, tuple[list, list, list]] = {}

    # -- public API ---------------------------------------------------------
    def run(self) -> SimulationResult:
        result = SimulationResult(self.sdfg, self.symbols)
        states = [self.state] if self.state is not None else self.sdfg.all_states_topological()
        for state in states:
            self._simulate_state(state, result)
        result.seal()
        return result

    # -- internals -------------------------------------------------------------
    def _tracked(self, data: str) -> bool:
        if self.include_transients:
            return True
        desc = self.sdfg.arrays.get(data)
        return desc is None or isinstance(desc, Array)

    def _state_order(self, state: SDFGState) -> tuple[dict, list]:
        """*state*'s ``scope_children()`` and topological node order."""
        order = self._states.get(state)
        if order is None:
            order = self._states[state] = (
                state.scope_children(), state.topological_nodes()
            )
        return order

    def _simulate_state(self, state: SDFGState, result: SimulationResult) -> None:
        children, _ = self._state_order(state)
        env: dict[str, int] = dict(self.symbols)
        # The top-level nodes, in topological order; scoped nodes are
        # handled by their scope.
        for node in children[None]:
            if isinstance(node, MapEntry):
                self._simulate_scope(state, node, children, env, result, outer_point=())
            elif isinstance(node, Tasklet):
                step = self._next_step(result)
                self._execute_tasklet(state, node, env, result, point=(), step=step)
            elif isinstance(node, NestedSDFG):
                self._simulate_nested(state, node, env, result, outer_point=())
            elif isinstance(node, AccessNode):
                self._simulate_copies(state, node, env, result)

    def _simulate_scope(
        self,
        state: SDFGState,
        entry: MapEntry,
        children: dict,
        env: dict[str, int],
        result: SimulationResult,
        outer_point: tuple[int, ...],
    ) -> None:
        scope = self._scopes.get(entry)
        if scope is None:
            scope_nodes = set(children.get(entry, []))
            order = [n for n in self._state_order(state)[1] if n in scope_nodes]
            scope = self._scopes[entry] = (
                [n for n in order if isinstance(n, Tasklet)],
                [n for n in order if isinstance(n, MapEntry)],
                [n for n in order if isinstance(n, NestedSDFG)],
            )
        tasklets, nested, nested_sdfgs = scope
        params = entry.map.params

        if self.fast and not nested and not nested_sdfgs:
            from repro.simulation.vectorized import simulate_scope_vectorized

            simulate_scope_vectorized(
                state, entry, tasklets, env, result, outer_point,
                self._tracked, self._compiled, timings=self.timings,
            )
            return

        from repro.analysis.timing import maybe_span

        # Only the outermost scope records a span: recursive calls for
        # nested maps run inside it and must not double-count.
        events_before = result.num_events
        with maybe_span(self.timings if not outer_point else None, "evaluate") as span:
            for point in iteration_points(entry.map, env):
                for name, value in zip(params, point):
                    env[name] = value
                step = self._next_step(result)
                for tasklet in tasklets:
                    self._execute_tasklet(
                        state, tasklet, env, result, point=outer_point + point, step=step
                    )
                for nested_node in nested_sdfgs:
                    self._simulate_nested(
                        state, nested_node, env, result, outer_point=outer_point + point
                    )
                for inner in nested:
                    self._simulate_scope(
                        state, inner, children, env, result, outer_point=outer_point + point
                    )
            for name in params:
                env.pop(name, None)
            span.set(scope=entry.map.label, events=result.num_events - events_before)

    def _next_step(self, result: SimulationResult) -> int:
        step = result.num_steps
        result.num_steps += 1
        return step

    def _execute_tasklet(
        self,
        state: SDFGState,
        tasklet: Tasklet,
        env: dict[str, int],
        result: SimulationResult,
        point: tuple[int, ...],
        step: int,
    ) -> None:
        execution = result.num_executions
        result.num_executions += 1
        for kind, edges in (
            (AccessKind.READ, state.in_edges(tasklet)),
            (AccessKind.WRITE, state.out_edges(tasklet)),
        ):
            for edge in edges:
                memlet = edge.data.memlet
                if memlet is None or not self._tracked(memlet.data):
                    continue
                result.record(
                    memlet.data, kind, tasklet.name,
                    list(self._compiled(memlet).points(env)), step, execution, point,
                )

    def _simulate_nested(
        self,
        state: SDFGState,
        node: NestedSDFG,
        env: dict[str, int],
        result: SimulationResult,
        outer_point: tuple[int, ...],
    ) -> None:
        """Simulate a NestedSDFG node: recurse and translate the events.

        Connector memlets bind inner container names to outer containers
        at a per-dimension offset (the subset's begin); inner transients
        are private and excluded like tasklet locals.
        """
        from repro.symbolic.expr import sympify

        inner = node.sdfg
        inner_env: dict[str, int] = {}
        for name, value in node.symbol_mapping.items():
            inner_env[name] = int(sympify(value).evaluate(env))
        for symbol in inner.free_symbols():
            if symbol not in inner_env and symbol in env:
                inner_env[symbol] = env[symbol]

        bindings: dict[str, tuple[str, tuple[int, ...]]] = {}

        def bind(conn: str, memlet) -> None:
            offsets = tuple(
                int(r.begin.evaluate(env)) for r in memlet.subset.ranges
            )
            bindings[conn] = (memlet.data, offsets)

        for edge in state.in_edges(node):
            if edge.data.memlet is not None and edge.data.dst_conn is not None:
                bind(edge.data.dst_conn, edge.data.memlet)
        for edge in state.out_edges(node):
            if edge.data.memlet is not None and edge.data.src_conn is not None:
                if edge.data.src_conn not in bindings:
                    bind(edge.data.src_conn, edge.data.memlet)

        sub = AccessPatternSimulator(
            inner, inner_env, include_transients=False, fast=self.fast,
            timings=self.timings,
        ).run()
        blocks = sub.blocks
        kept = [block for block in blocks if block.data in bindings]
        rank = None
        if len(kept) < len(blocks):
            # Inner transients are private, like tasklet locals: drop
            # their accesses and close the gaps they leave.
            keep = np.zeros(sub.num_events, dtype=bool)
            for block in kept:
                keep[block.positions] = True
            rank = np.cumsum(keep) - 1
        base = result.num_events
        prefix = np.asarray(outer_point, dtype=np.int64)
        for block in kept:
            data, offsets = bindings[block.data]
            if len(offsets) != block.matrix.shape[1]:
                raise SimulationError(
                    f"nested connector {block.data!r} rank mismatch"
                )
            positions = block.position_array()
            if rank is not None:
                positions = rank[positions]
            points = block.points()
            firings = RecordedFirings(
                None,
                block.steps() + result.num_steps,
                block.executions() + result.num_executions,
                np.hstack(
                    [np.broadcast_to(prefix, (points.shape[0], prefix.size)), points]
                ),
            )
            result.add_block(
                TraceBlock(
                    data, block.kind, block.tasklet,
                    block.matrix + np.asarray(offsets, dtype=np.int64),
                    positions + base, firings,
                )
            )
            result.num_events += block.count
        result.num_steps += sub.num_steps
        result.num_executions += sub.num_executions

    def _simulate_copies(
        self,
        state: SDFGState,
        node: AccessNode,
        env: dict[str, int],
        result: SimulationResult,
    ) -> None:
        """Access-node-to-access-node edges are whole-subset copies."""
        for edge in state.out_edges(node):
            if not isinstance(edge.dst, AccessNode) or edge.data.memlet is None:
                continue
            memlet = edge.data.memlet
            if not (self._tracked(node.data) and self._tracked(edge.dst.data)):
                continue
            step = self._next_step(result)
            execution = result.num_executions
            result.num_executions += 1
            src_points = list(self._compiled(memlet).points(dict(self.symbols)))
            name = f"copy_{node.data}_{edge.dst.data}"
            result.record(
                memlet.data, AccessKind.READ, name, src_points, step, execution, ()
            )
            # Destination side: same shape, destination container; assume an
            # aligned (identical-subset) copy when ranks match.
            if edge.dst.data != memlet.data:
                dst_desc = self.sdfg.arrays.get(edge.dst.data)
                if dst_desc is not None and len(dst_desc.shape) == len(
                    self.sdfg.arrays[memlet.data].shape
                ):
                    result.record(
                        edge.dst.data, AccessKind.WRITE, name, src_points, step,
                        execution, (),
                    )

    # -- compiled memlet cache -----------------------------------------------------
    _cache_attr = "_compiled_subsets"

    def _compiled(self, memlet: Memlet) -> _CompiledSubset:
        cache: dict[int, _CompiledSubset] = getattr(self, "_subset_cache", None) or {}
        if not hasattr(self, "_subset_cache"):
            self._subset_cache = cache
        key = id(memlet)
        compiled = cache.get(key)
        if compiled is None:
            compiled = _CompiledSubset(memlet)
            cache[key] = compiled
        return compiled


def simulate_state(
    sdfg: SDFG,
    symbols: Mapping[str, int],
    state: SDFGState | None = None,
    include_transients: bool = False,
    fast: bool = True,
    timings=None,
) -> SimulationResult:
    """Convenience wrapper: build a simulator and run it."""
    return AccessPatternSimulator(
        sdfg, symbols=symbols, state=state, include_transients=include_transients,
        fast=fast, timings=timings,
    ).run()


class _ConcreteIndices:
    """A map range stand-in holding an explicit list of concrete indices.

    :func:`simulate_region` temporarily replaces the outermost map range
    with one of these to restrict simulation to a window of iterations.
    Only the protocol the simulation paths actually exercise is provided:
    ``concretize`` (both the interpreter's ``iteration_points`` and the
    vectorized ``_iteration_grids`` go through it), ``size`` and
    ``free_symbols``.
    """

    __slots__ = ("indices",)

    def __init__(self, indices: Sequence[int]):
        self.indices = list(indices)

    def concretize(self, env: Mapping[str, int]) -> list[int]:
        return list(self.indices)

    def size(self, env: Mapping[str, int]) -> int:
        return len(self.indices)

    def free_symbols(self) -> frozenset[str]:
        return frozenset()


def simulate_region(
    simulator: AccessPatternSimulator,
    state: SDFGState,
    node: Node,
    outer_slice: tuple[int, int] | None = None,
) -> SimulationResult:
    """Simulate a single top-level region (one node's scope) of a state.

    The analytic locality engine (:mod:`repro.locality`) decomposes a
    state into per-region traces; regions it cannot fold analytically are
    enumerated here through the regular simulator, so a stitched sequence
    of region traces is event-for-event identical to
    :func:`simulate_state` on the whole state.

    ``outer_slice=(lo, hi)`` restricts the *outermost* map dimension of a
    map region to the half-open window ``[lo, hi)`` of its iteration
    list — the window-fold path simulates a few representative blocks of
    the outer loop instead of its whole extent.

    *simulator* carries the program, its symbols and the options: the
    engine builds one per analysis, so the free-symbol check and each
    state's scope structure are computed once, not once per region.
    """
    result = SimulationResult(simulator.sdfg, simulator.symbols)
    env: dict[str, int] = dict(simulator.symbols)
    if isinstance(node, MapEntry):
        old_ranges = node.map.ranges
        try:
            if outer_slice is not None:
                lo, hi = outer_slice
                indices = list(old_ranges[0].concretize(env))[lo:hi]
                node.map.ranges = [_ConcreteIndices(indices)] + list(old_ranges[1:])
            simulator._simulate_scope(
                state, node, simulator._state_order(state)[0], env, result,
                outer_point=(),
            )
        finally:
            node.map.ranges = old_ranges
    elif isinstance(node, Tasklet):
        step = simulator._next_step(result)
        simulator._execute_tasklet(state, node, env, result, point=(), step=step)
    elif isinstance(node, NestedSDFG):
        simulator._simulate_nested(state, node, env, result, outer_point=())
    elif isinstance(node, AccessNode):
        simulator._simulate_copies(state, node, env, result)
    else:
        raise SimulationError(
            f"cannot simulate a region rooted at {type(node).__name__}"
        )
    result.seal()
    return result
