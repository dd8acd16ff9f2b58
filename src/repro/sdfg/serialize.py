"""JSON serialization and content hashing of SDFGs.

The paper's tool ships SDFGs from the analysis backend to the renderer as
JSON documents; this module provides the equivalent round-trippable format.
All symbolic expressions serialize as strings (re-parsed on load), node
cross-references serialize as per-state indices.  JSON is the wire and
disk format (process-pool workers receive :func:`dumps` text), not the
in-process copy path: :meth:`SDFG.copy <repro.sdfg.sdfg.SDFG.copy>` clones
structurally, and the :func:`to_json` / :func:`from_json` round trip is
its test oracle — the clone must serialize exactly like the round trip.

The same canonical documents double as *content fingerprints* for the
incremental analysis pipeline (:mod:`repro.passes`): every node, edge,
state, data descriptor and whole SDFG hashes to a stable hex digest.
Digests are SHA-256 over canonical JSON — dictionary keys sorted, compact
separators — so they are independent of dict construction order, process
hash seeds, and round trips through :func:`dumps`/:func:`loads`.  Two
orderings *are* semantic and therefore preserved in the hash document:

- graph (node/edge) order, which fixes the simulated execution sequence;
- container registration order, which fixes the physical allocation
  order :class:`~repro.simulation.layout.MemoryModel` assigns addresses by
  (hashed as an ordered name/descriptor pair list, not a JSON object).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Sequence

from repro.errors import ReproError
from repro.sdfg import dtypes
from repro.sdfg.data import Array, Data, Scalar
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, Map, MapEntry, MapExit, NestedSDFG, Node, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.symbolic.ranges import Range, Subset

__all__ = [
    "to_json",
    "from_json",
    "dumps",
    "loads",
    "canonical_json",
    "data_fingerprint",
    "node_fingerprint",
    "edge_fingerprint",
    "state_fingerprint",
    "arrays_fingerprint",
    "sdfg_fingerprint",
]


# -- serialization -----------------------------------------------------------


def _data_to_json(desc: Data) -> dict[str, Any]:
    if isinstance(desc, Scalar):
        return {
            "type": "Scalar",
            "dtype": desc.dtype.name,
            "transient": desc.transient,
        }
    if isinstance(desc, Array):
        return {
            "type": "Array",
            "dtype": desc.dtype.name,
            "shape": [str(s) for s in desc.shape],
            "strides": [str(s) for s in desc.strides],
            "start_offset": str(desc.start_offset),
            "alignment": desc.alignment,
            "transient": desc.transient,
        }
    raise ReproError(f"cannot serialize descriptor {desc!r}")


def _subset_to_json(subset: Subset) -> list[list[str]]:
    return [[str(r.begin), str(r.end), str(r.step)] for r in subset.ranges]


def _memlet_to_json(memlet: Memlet | None) -> dict[str, Any] | None:
    if memlet is None:
        return None
    return {
        "data": memlet.data,
        "subset": _subset_to_json(memlet.subset),
        "wcr": memlet.wcr,
        "volume_hint": None if memlet.volume_hint is None else str(memlet.volume_hint),
    }


def _node_to_json(node: Node, node_ids: dict[Node, int]) -> dict[str, Any]:
    if isinstance(node, AccessNode):
        return {"type": "AccessNode", "data": node.data}
    if isinstance(node, Tasklet):
        return {
            "type": "Tasklet",
            "name": node.name,
            "inputs": list(node.in_connectors),
            "outputs": list(node.out_connectors),
            "code": node.code,
        }
    if isinstance(node, MapEntry):
        return {
            "type": "MapEntry",
            "label": node.map.label,
            "params": list(node.map.params),
            "ranges": [[str(r.begin), str(r.end), str(r.step)] for r in node.map.ranges],
        }
    if isinstance(node, MapExit):
        return {"type": "MapExit", "entry": node_ids[node.entry_node]}
    if isinstance(node, NestedSDFG):
        return {
            "type": "NestedSDFG",
            "sdfg": to_json(node.sdfg),
            "inputs": list(node.in_connectors),
            "outputs": list(node.out_connectors),
            "symbol_mapping": {k: str(v) for k, v in node.symbol_mapping.items()},
        }
    raise ReproError(f"cannot serialize node {node!r}")


def _state_to_json(state: SDFGState) -> dict[str, Any]:
    nodes = state.nodes()
    node_ids = {n: i for i, n in enumerate(nodes)}
    return {
        "name": state.name,
        "nodes": [_node_to_json(n, node_ids) for n in nodes],
        "edges": [
            {
                "src": node_ids[e.src],
                "dst": node_ids[e.dst],
                "src_conn": e.data.src_conn,
                "dst_conn": e.data.dst_conn,
                "memlet": _memlet_to_json(e.data.memlet),
            }
            for e in state.edges()
        ],
    }


def to_json(sdfg: SDFG) -> dict[str, Any]:
    """Serialize *sdfg* to a JSON-compatible dictionary."""
    states = sdfg.states()
    state_ids = {s: i for i, s in enumerate(states)}
    return {
        "format": "repro-sdfg",
        "version": 1,
        "name": sdfg.name,
        "symbols": sorted(sdfg.symbols),
        "arrays": {name: _data_to_json(d) for name, d in sdfg.arrays.items()},
        "states": [_state_to_json(s) for s in states],
        "start_state": state_ids[sdfg.start_state] if states else None,
        "interstate_edges": [
            {
                "src": state_ids[e.src],
                "dst": state_ids[e.dst],
                "condition": e.data.condition,
                "assignments": dict(e.data.assignments),
            }
            for e in sdfg.interstate_edges()
        ],
    }


def dumps(sdfg: SDFG, indent: int | None = 2) -> str:
    """Serialize *sdfg* to a JSON string."""
    return json.dumps(to_json(sdfg), indent=indent)


# -- deserialization -----------------------------------------------------------


def _subset_from_json(doc: list[list[str]]) -> Subset:
    return Subset(Range(b, e, s) for b, e, s in doc)


def _memlet_from_json(doc: dict[str, Any] | None) -> Memlet | None:
    if doc is None:
        return None
    return Memlet(
        doc["data"],
        _subset_from_json(doc["subset"]),
        wcr=doc.get("wcr"),
        volume_hint=doc.get("volume_hint"),
    )


def _node_from_json(doc: dict[str, Any], nodes_so_far: list[Node]) -> Node:
    kind = doc["type"]
    if kind == "AccessNode":
        return AccessNode(doc["data"])
    if kind == "Tasklet":
        return Tasklet(doc["name"], doc["inputs"], doc["outputs"], doc["code"])
    if kind == "MapEntry":
        ranges = [Range(b, e, s) for b, e, s in doc["ranges"]]
        return MapEntry(Map(doc["label"], doc["params"], ranges))
    if kind == "MapExit":
        entry = nodes_so_far[doc["entry"]]
        if not isinstance(entry, MapEntry):
            raise ReproError("MapExit entry reference does not point to a MapEntry")
        return MapExit(entry.map, entry)
    if kind == "NestedSDFG":
        return NestedSDFG(
            from_json(doc["sdfg"]),
            doc["inputs"],
            doc["outputs"],
            doc.get("symbol_mapping"),
        )
    raise ReproError(f"unknown node type {kind!r}")


def from_json(doc: dict[str, Any]) -> SDFG:
    """Deserialize an SDFG from :func:`to_json` output."""
    if doc.get("format") != "repro-sdfg":
        raise ReproError("not a repro-sdfg document")
    sdfg = SDFG(doc["name"])
    for sym in doc.get("symbols", []):
        sdfg.add_symbol(sym)
    for name, d in doc.get("arrays", {}).items():
        if d["type"] == "Scalar":
            sdfg.add_scalar(name, dtypes.by_name(d["dtype"]), transient=d["transient"])
        else:
            sdfg.add_array(
                name,
                d["shape"],
                dtypes.by_name(d["dtype"]),
                strides=d["strides"],
                start_offset=d["start_offset"],
                alignment=d["alignment"],
                transient=d["transient"],
            )

    states: list[SDFGState] = []
    for sdoc in doc.get("states", []):
        state = sdfg.add_state(sdoc["name"])
        states.append(state)
        nodes: list[Node] = []
        for ndoc in sdoc["nodes"]:
            node = _node_from_json(ndoc, nodes)
            nodes.append(node)
            state.add_node(node)
        for edoc in sdoc["edges"]:
            src, dst = nodes[edoc["src"]], nodes[edoc["dst"]]
            state.add_edge(
                src,
                edoc["src_conn"],
                dst,
                edoc["dst_conn"],
                _memlet_from_json(edoc["memlet"]),
            )

    start = doc.get("start_state")
    if start is not None and states:
        sdfg._start_state = states[start]
    for edoc in doc.get("interstate_edges", []):
        sdfg.add_interstate_edge(
            states[edoc["src"]],
            states[edoc["dst"]],
            condition=edoc.get("condition"),
            assignments=edoc.get("assignments"),
        )
    return sdfg


def loads(text: str) -> SDFG:
    """Deserialize an SDFG from a JSON string."""
    return from_json(json.loads(text))


# -- content hashing -----------------------------------------------------------


def canonical_json(doc: Any) -> str:
    """Deterministic JSON text of *doc*: sorted keys, compact separators.

    Dict key order is normalized away (it is presentation, not content);
    list order is preserved (graph order and container registration order
    are semantic — see the module docstring).
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)


def _digest(doc: Any) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:16]


def data_fingerprint(desc: Data, logical: bool = False) -> str:
    """Stable digest of one data descriptor.

    With ``logical=True``, only the fields that determine the *logical*
    access pattern contribute (dtype, shape, transience) — physical layout
    fields (strides, start offset, alignment) are excluded, so e.g. stride
    padding does not perturb logical fingerprints.
    """
    doc = _data_to_json(desc)
    if logical:
        doc.pop("strides", None)
        doc.pop("start_offset", None)
        doc.pop("alignment", None)
    return _digest(doc)


def node_fingerprint(node: Node) -> str:
    """Stable digest of one graph node's content.

    Self-contained (no per-state index table): a :class:`MapExit` hashes
    its entry's map content instead of a node index, so the digest does
    not depend on the node's position in a particular state.
    """
    if isinstance(node, MapExit):
        doc: dict[str, Any] = {
            "type": "MapExit",
            "label": node.map.label,
            "params": list(node.map.params),
            "ranges": [
                [str(r.begin), str(r.end), str(r.step)] for r in node.map.ranges
            ],
        }
    else:
        doc = _node_to_json(node, {})
    return _digest(doc)


def edge_fingerprint(edge, node_ids: dict[Node, int]) -> str:
    """Stable digest of one dataflow edge (endpoints by state-local index)."""
    conn = edge.data
    doc = {
        "src": node_ids[edge.src],
        "dst": node_ids[edge.dst],
        "src_conn": None if conn is None else conn.src_conn,
        "dst_conn": None if conn is None else conn.dst_conn,
        "memlet": None if conn is None else _memlet_to_json(conn.memlet),
    }
    return _digest(doc)


def state_fingerprint(state: SDFGState) -> str:
    """Stable digest of one state: Merkle over node and edge fingerprints."""
    nodes = state.nodes()
    node_ids = {n: i for i, n in enumerate(nodes)}
    doc = {
        "name": state.name,
        "nodes": [node_fingerprint(n) for n in nodes],
        "edges": [edge_fingerprint(e, node_ids) for e in state.edges()],
    }
    return _digest(doc)


def arrays_fingerprint(sdfg: SDFG, logical: bool = False) -> str:
    """Stable digest of the SDFG's data descriptors.

    The full (physical) fingerprint hashes descriptors as an *ordered*
    pair list — registration order determines allocation order and thus
    physical addresses.  The ``logical=True`` variant drops layout fields
    and sorts by name, since the logical access pattern is insensitive to
    both.
    """
    if logical:
        pairs = sorted(
            (name, data_fingerprint(desc, logical=True))
            for name, desc in sdfg.arrays.items()
        )
    else:
        pairs = [
            (name, data_fingerprint(desc)) for name, desc in sdfg.arrays.items()
        ]
    return _digest(pairs)


def sdfg_fingerprint(
    sdfg: SDFG, state_digests: Sequence[str] | None = None
) -> str:
    """Stable digest of the whole SDFG's content.

    Invariant under process restarts and :func:`dumps`/:func:`loads`
    round trips; changes whenever any state graph, data descriptor,
    symbol set or interstate structure changes.

    The digest is a Merkle hash over the states'
    :func:`state_fingerprint` values.  A caller that already holds them
    (in state order) passes them as *state_digests* instead of having
    every state hashed again; the result is the same.
    """
    states = sdfg.states()
    state_ids = {s: i for i, s in enumerate(states)}
    if state_digests is None:
        state_digests = [state_fingerprint(s) for s in states]
    doc = {
        "name": sdfg.name,
        "symbols": sorted(sdfg.symbols),
        "arrays": [
            [name, _data_to_json(desc)] for name, desc in sdfg.arrays.items()
        ],
        "states": list(state_digests),
        "start_state": state_ids[sdfg.start_state] if states else None,
        "interstate_edges": [
            {
                "src": state_ids[e.src],
                "dst": state_ids[e.dst],
                "condition": e.data.condition,
                "assignments": dict(e.data.assignments),
            }
            for e in sdfg.interstate_edges()
        ],
    }
    return _digest(doc)
