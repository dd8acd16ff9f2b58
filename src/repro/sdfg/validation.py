"""Structural validation of SDFGs.

Checks the invariants every analysis in this library relies on; run via
:meth:`repro.sdfg.sdfg.SDFG.validate`.
"""

from __future__ import annotations

from repro.errors import InvalidSDFGError
from repro.graph import has_cycle
from repro.sdfg.nodes import AccessNode, MapEntry, NestedSDFG, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState

__all__ = ["validate_sdfg", "validate_state"]


def validate_sdfg(sdfg: SDFG) -> None:
    """Validate *sdfg*; raises :class:`InvalidSDFGError` on violations."""
    if not sdfg.states():
        raise InvalidSDFGError(f"SDFG {sdfg.name!r} has no states", sdfg)
    names = [s.name for s in sdfg.states()]
    if len(set(names)) != len(names):
        raise InvalidSDFGError(f"duplicate state names in {sdfg.name!r}", sdfg)
    for state in sdfg.states():
        validate_state(state, sdfg)
    for node in _all_nested(sdfg):
        node.sdfg.validate()


def _all_nested(sdfg: SDFG) -> list[NestedSDFG]:
    return [
        n
        for state in sdfg.states()
        for n in state.nodes()
        if isinstance(n, NestedSDFG)
    ]


def _check_bounds(memlet, desc, edge) -> None:
    """Flag subsets provably outside the container's extent.

    Only *provable* violations raise: when both a subset bound and the
    corresponding shape extent are integer constants.  For symbolic
    bounds, the simulator rejects a negative element index when it
    records it; an index past the end of a container is not checked.
    """
    from repro.symbolic.expr import Integer

    for dim, (rng, extent) in enumerate(zip(memlet.subset.ranges, desc.shape)):
        if isinstance(rng.begin, Integer) and rng.begin.value < 0:
            raise InvalidSDFGError(
                f"memlet {memlet!r} dimension {dim} starts at negative index "
                f"{rng.begin}",
                edge,
            )
        if (
            isinstance(rng.end, Integer)
            and isinstance(extent, Integer)
            and rng.end.value >= extent.value
        ):
            raise InvalidSDFGError(
                f"memlet {memlet!r} dimension {dim} ends at {rng.end} but "
                f"container extent is {extent}",
                edge,
            )


def validate_state(state: SDFGState, sdfg: SDFG | None = None) -> None:
    """Validate a single dataflow state."""
    sdfg = sdfg or state.sdfg
    if has_cycle(state.graph):
        raise InvalidSDFGError(f"state {state.name!r} contains a dataflow cycle", state)

    for node in state.nodes():
        if isinstance(node, AccessNode):
            if sdfg is not None and node.data not in sdfg.arrays:
                raise InvalidSDFGError(
                    f"access node references undefined container {node.data!r}",
                    node,
                )
        if isinstance(node, Tasklet):
            if not state.out_edges(node):
                raise InvalidSDFGError(
                    f"tasklet {node.name!r} has no outgoing edges", node
                )
        if isinstance(node, MapEntry):
            if node.exit_node is None or not state.graph.has_node(node.exit_node):
                raise InvalidSDFGError(
                    f"map entry {node.label!r} has no matching exit in the state",
                    node,
                )

    for edge in state.edges():
        conn = edge.data
        if conn is None:
            raise InvalidSDFGError("edge is missing its Connection payload", edge)
        memlet = conn.memlet
        if memlet is None:
            continue  # empty (ordering-only) edge
        if sdfg is not None:
            if memlet.data not in sdfg.arrays:
                raise InvalidSDFGError(
                    f"memlet references undefined container {memlet.data!r}", edge
                )
            desc = sdfg.arrays[memlet.data]
            if memlet.subset.dims != len(desc.shape):
                raise InvalidSDFGError(
                    f"memlet {memlet!r} has {memlet.subset.dims} dims but "
                    f"container {memlet.data!r} has rank {len(desc.shape)}",
                    edge,
                )
            _check_bounds(memlet, desc, edge)
        # Connector consistency.
        if conn.src_conn is not None and conn.src_conn not in edge.src.out_connectors:
            raise InvalidSDFGError(
                f"source connector {conn.src_conn!r} missing on {edge.src!r}", edge
            )
        if conn.dst_conn is not None and conn.dst_conn not in edge.dst.in_connectors:
            raise InvalidSDFGError(
                f"destination connector {conn.dst_conn!r} missing on {edge.dst!r}",
                edge,
            )

    # Scope balance: every map entry reachable set must close at its exit.
    try:
        state.scope_dict()
    except Exception as exc:  # noqa: BLE001 — scope computation signals imbalance
        raise InvalidSDFGError(f"invalid scope structure: {exc}", state) from exc

    # Tasklet connector/edge agreement.
    for node in state.tasklets():
        in_conns = {e.data.dst_conn for e in state.in_edges(node) if e.data.dst_conn}
        for conn in node.in_connectors:
            if conn not in in_conns:
                raise InvalidSDFGError(
                    f"tasklet {node.name!r} input connector {conn!r} is not fed "
                    "by any edge",
                    node,
                )
        out_conns = {e.data.src_conn for e in state.out_edges(node) if e.data.src_conn}
        for conn in node.out_connectors:
            if conn not in out_conns:
                raise InvalidSDFGError(
                    f"tasklet {node.name!r} output connector {conn!r} has no "
                    "outgoing edge",
                    node,
                )
