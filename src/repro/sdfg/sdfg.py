"""The top-level SDFG: a state machine over dataflow states."""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.errors import ReproError
from repro.graph import Edge, OrderedMultiDiGraph
from repro.sdfg import dtypes
from repro.sdfg.data import Array, Data, Scalar
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, Map, MapEntry, MapExit, NestedSDFG, Node, Tasklet
from repro.sdfg.state import SDFGState
from repro.symbolic.expr import ExprLike

__all__ = ["SDFG", "InterstateEdge"]


def _copy_descriptor(desc: Data) -> Data:
    """A fresh descriptor sharing *desc*'s (immutable) expressions."""
    if isinstance(desc, Array):
        return desc.with_strides(desc.strides)
    if isinstance(desc, Scalar):
        return Scalar(desc.dtype, transient=desc.transient)
    raise ReproError(f"cannot copy descriptor {desc!r}")


def _copy_node(node: Node, copies: dict[Node, Node]) -> Node:
    """A fresh, unconnected copy of *node*; *copies* maps earlier nodes.

    Only tasklets and nested SDFGs keep their connectors: the others get
    theirs back from the edges :meth:`SDFG.copy` re-adds.
    """
    if isinstance(node, AccessNode):
        return AccessNode(node.data)
    if isinstance(node, Tasklet):
        return Tasklet(node.name, node.in_connectors, node.out_connectors, node.code)
    if isinstance(node, MapEntry):
        return MapEntry(Map(node.map.label, node.map.params, node.map.ranges))
    if isinstance(node, MapExit):
        entry = copies.get(node.entry_node)
        if not isinstance(entry, MapEntry):
            raise ReproError(f"{node!r} precedes its map entry in node order")
        return MapExit(entry.map, entry)
    if isinstance(node, NestedSDFG):
        return NestedSDFG(
            node.sdfg.copy(),
            node.in_connectors,
            node.out_connectors,
            node.symbol_mapping,
        )
    raise ReproError(f"cannot copy node {node!r}")


class InterstateEdge:
    """Transition between states: optional condition plus symbol assignments.

    Conditions and assignment values are stored as expression strings so
    they stay symbolic; the analyses here only need the assignments for
    symbol tracking.
    """

    __slots__ = ("condition", "assignments")

    def __init__(
        self,
        condition: str | None = None,
        assignments: Mapping[str, str] | None = None,
    ):
        self.condition = condition
        self.assignments: dict[str, str] = dict(assignments or {})

    def __repr__(self) -> str:
        parts = []
        if self.condition:
            parts.append(f"if {self.condition}")
        if self.assignments:
            parts.append(", ".join(f"{k}={v}" for k, v in self.assignments.items()))
        return f"InterstateEdge({'; '.join(parts)})"


class SDFG:
    """A stateful dataflow multigraph.

    Holds the program's data descriptors (:attr:`arrays`), free symbols
    (:attr:`symbols`) and a state machine of dataflow states.  Most
    programs in this library are single-state; the state machine exists for
    completeness and sequential compositions (e.g. multi-kernel programs).
    """

    def __init__(self, name: str):
        if not name or not name.isidentifier():
            raise ReproError(f"invalid SDFG name {name!r}")
        self.name = name
        #: Data descriptors by container name.
        self.arrays: dict[str, Data] = {}
        #: Free symbols (size parameters) by name.
        self.symbols: set[str] = set()
        self._states: OrderedMultiDiGraph[SDFGState, InterstateEdge] = OrderedMultiDiGraph()
        self._start_state: SDFGState | None = None

    # -- data descriptors ------------------------------------------------------
    def add_array(
        self,
        name: str,
        shape: Sequence[ExprLike],
        dtype: dtypes.Dtype,
        strides: Sequence[ExprLike] | None = None,
        start_offset: ExprLike = 0,
        alignment: int = 0,
        transient: bool = False,
    ) -> Array:
        """Register an array container and return its descriptor."""
        self._check_name(name)
        desc = Array(
            dtype,
            shape,
            strides=strides,
            start_offset=start_offset,
            alignment=alignment,
            transient=transient,
        )
        self.arrays[name] = desc
        for sym in desc.free_symbols():
            self.symbols.add(sym)
        return desc

    def add_transient(
        self,
        name: str,
        shape: Sequence[ExprLike],
        dtype: dtypes.Dtype,
        strides: Sequence[ExprLike] | None = None,
    ) -> Array:
        """Register a transient (program-managed intermediate) array."""
        return self.add_array(name, shape, dtype, strides=strides, transient=True)

    def add_scalar(
        self, name: str, dtype: dtypes.Dtype, transient: bool = False
    ) -> Scalar:
        """Register a scalar container."""
        self._check_name(name)
        desc = Scalar(dtype, transient=transient)
        self.arrays[name] = desc
        return desc

    def add_symbol(self, name: str) -> str:
        """Register a free symbol (size parameter)."""
        if not name.isidentifier():
            raise ReproError(f"invalid symbol name {name!r}")
        self.symbols.add(name)
        return name

    def replace_descriptor(self, name: str, desc: Data) -> None:
        """Swap the descriptor of an existing container (layout transforms)."""
        if name not in self.arrays:
            raise ReproError(f"container {name!r} is not defined")
        self.arrays[name] = desc
        for sym in desc.free_symbols():
            self.symbols.add(sym)

    def remove_data(self, name: str) -> None:
        """Remove a container descriptor (caller removes its access nodes)."""
        if name not in self.arrays:
            raise ReproError(f"container {name!r} is not defined")
        del self.arrays[name]

    def _check_name(self, name: str) -> None:
        if not name or not name.isidentifier():
            raise ReproError(f"invalid container name {name!r}")
        if name in self.arrays:
            raise ReproError(f"container {name!r} already defined in {self.name!r}")

    # -- states -----------------------------------------------------------------
    def add_state(self, name: str | None = None, is_start: bool = False) -> SDFGState:
        """Create and register a new dataflow state."""
        if name is None:
            name = f"state_{self._states.number_of_nodes}"
        if any(s.name == name for s in self._states.nodes()):
            raise ReproError(f"state {name!r} already exists in {self.name!r}")
        state = SDFGState(name, sdfg=self)
        self._states.add_node(state)
        if is_start or self._start_state is None:
            self._start_state = state
        return state

    def add_state_after(
        self, predecessor: SDFGState, name: str | None = None
    ) -> SDFGState:
        """Create a state and connect it sequentially after *predecessor*."""
        state = self.add_state(name)
        self.add_interstate_edge(predecessor, state)
        return state

    def add_interstate_edge(
        self,
        src: SDFGState,
        dst: SDFGState,
        condition: str | None = None,
        assignments: Mapping[str, str] | None = None,
    ) -> Edge[SDFGState, InterstateEdge]:
        return self._states.add_edge(src, dst, InterstateEdge(condition, assignments))

    @property
    def start_state(self) -> SDFGState:
        if self._start_state is None:
            raise ReproError(f"SDFG {self.name!r} has no states")
        return self._start_state

    def states(self) -> list[SDFGState]:
        return self._states.nodes()

    def interstate_edges(self) -> list[Edge[SDFGState, InterstateEdge]]:
        return self._states.edges()

    def state_graph(self) -> OrderedMultiDiGraph[SDFGState, InterstateEdge]:
        return self._states

    # -- queries -----------------------------------------------------------------
    def all_states_topological(self) -> list[SDFGState]:
        """States in execution-compatible order (start state first)."""
        from repro.graph import topological_sort

        order = topological_sort(self._states)
        if self._start_state in order:
            order.remove(self._start_state)
            order.insert(0, self._start_state)
        return order

    def input_containers(self) -> list[str]:
        """Non-transient containers that are read before being written."""
        written: set[str] = set()
        inputs: list[str] = []
        for state in self.all_states_topological():
            for node in state.topological_nodes():
                if not isinstance(node, AccessNode):
                    continue
                desc = self.arrays.get(node.data)
                if desc is None or desc.transient:
                    continue
                has_reads = bool(state.out_edges(node))
                has_writes = bool(state.in_edges(node))
                if has_reads and node.data not in written and node.data not in inputs:
                    inputs.append(node.data)
                if has_writes:
                    written.add(node.data)
        return inputs

    def output_containers(self) -> list[str]:
        """Non-transient containers that are written anywhere."""
        outputs: list[str] = []
        for state in self.all_states_topological():
            for node in state.data_nodes():
                desc = self.arrays.get(node.data)
                if desc is None or desc.transient:
                    continue
                if state.in_edges(node) and node.data not in outputs:
                    outputs.append(node.data)
        return outputs

    def free_symbols(self) -> frozenset[str]:
        """All symbols the SDFG's descriptors and memlets depend on.

        Map parameters are bound within their scopes, so none is free;
        every declared symbol that no map binds is.
        """
        out: set[str] = set(self.symbols)
        for desc in self.arrays.values():
            out |= desc.free_symbols()
        for state in self.states():
            for _, memlet in state.all_memlets():
                out |= memlet.free_symbols()
            for entry in state.map_entries():
                for r in entry.map.ranges:
                    out |= r.free_symbols()
        return frozenset(out - self.map_params())

    def map_params(self) -> frozenset[str]:
        """The parameters the maps of the SDFG's states bind."""
        return frozenset(
            param
            for state in self.states()
            for entry in state.map_entries()
            for param in entry.map.params
        )

    def validate(self) -> None:
        """Run structural validation; raises on the first violation."""
        from repro.sdfg.validation import validate_sdfg

        validate_sdfg(self)

    def copy(self) -> "SDFG":
        """An independent structural clone.

        Fresh objects: the SDFG with its ``arrays`` dict and ``symbols``
        set, every state and its graph, every node (created in node
        order, so uids advance as a load would advance them), every
        :class:`~repro.sdfg.nodes.Map`, edge payload and memlet, every
        data descriptor, every interstate edge with its ``assignments``
        dict, and nested SDFGs (copied recursively).  Anything a
        transform, the simulator or a caller may assign or mutate is
        therefore the copy's own.

        Shared objects: only the symbolic leaves — ``Expr`` (hash-consed
        and never mutated), :class:`~repro.symbolic.ranges.Range` and
        :class:`~repro.symbolic.ranges.Subset` (value objects no code
        mutates; rewrites build new ones).  Sharing them is what keeps the
        copy cheap: nothing is re-parsed.

        Edges are added through :meth:`SDFGState.add_edge`, so every
        node's connectors come out as :func:`~repro.sdfg.serialize.from_json`
        rebuilds them: tasklets and nested SDFGs keep their declared
        connectors, other nodes get the ones their edges name.  The copy
        serializes exactly like a :func:`~repro.sdfg.serialize.to_json` /
        :func:`~repro.sdfg.serialize.from_json` round trip.
        """
        clone = SDFG(self.name)
        clone.symbols = set(self.symbols)
        for name, desc in self.arrays.items():
            clone.arrays[name] = _copy_descriptor(desc)
        states: dict[SDFGState, SDFGState] = {}
        for state in self._states.nodes():
            new_state = SDFGState(state.name, sdfg=clone)
            clone._states.add_node(new_state)
            states[state] = new_state
            nodes: dict[Node, Node] = {}
            for node in state.graph.nodes():
                nodes[node] = new_state.add_node(_copy_node(node, nodes))
            for edge in state.graph.edges():
                conn = edge.data
                memlet = conn.memlet
                if memlet is not None:
                    memlet = Memlet(
                        memlet.data, memlet.subset, wcr=memlet.wcr,
                        volume_hint=memlet.volume_hint,
                    )
                new_state.add_edge(
                    nodes[edge.src], conn.src_conn, nodes[edge.dst],
                    conn.dst_conn, memlet,
                )
        if self._start_state is not None:
            clone._start_state = states[self._start_state]
        for edge in self._states.edges():
            clone._states.add_edge(
                states[edge.src], states[edge.dst],
                InterstateEdge(edge.data.condition, edge.data.assignments),
            )
        return clone

    def __iter__(self) -> Iterator[SDFGState]:
        return iter(self._states.nodes())

    def __repr__(self) -> str:
        return (
            f"SDFG({self.name!r}, states={self._states.number_of_nodes}, "
            f"arrays={len(self.arrays)})"
        )
