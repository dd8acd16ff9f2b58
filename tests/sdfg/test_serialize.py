"""Round-trip and content-hashing tests for SDFG JSON serialization."""

import subprocess
import sys

import pytest
from hypothesis import given, settings

from repro.apps import bert, cloudsc, conv, hdiff, linalg
from repro.errors import ReproError
from repro.sdfg import SDFG, Memlet, dtypes
from repro.sdfg.data import Array
from repro.sdfg.nodes import AccessNode, MapEntry, MapExit, NestedSDFG, Tasklet
from repro.sdfg.serialize import (
    _state_to_json,
    arrays_fingerprint,
    canonical_json,
    data_fingerprint,
    dumps,
    from_json,
    loads,
    sdfg_fingerprint,
    state_fingerprint,
    to_json,
)
from repro.symbolic import symbols
from repro.symbolic.ranges import Range, Subset
from tests.sdfg.test_nested import build_outer
from tests.simulation.test_vectorized_differential import random_programs

I, J = symbols("I J")


def outer_product_sdfg():
    sdfg = SDFG("outer")
    sdfg.add_array("A", [I], dtypes.float64)
    sdfg.add_array("B", [J], dtypes.float64)
    sdfg.add_array("C", [I, J], dtypes.float64)
    state = sdfg.add_state("main")
    state.add_mapped_tasklet(
        "product",
        {"i": "0:I", "j": "0:J"},
        inputs={"a": Memlet("A", "i"), "b": Memlet("B", "j")},
        code="out = a * b",
        outputs={"out": Memlet("C", "i, j")},
    )
    return sdfg


def assert_equivalent(a: SDFG, b: SDFG):
    assert a.name == b.name
    assert a.symbols == b.symbols
    assert set(a.arrays) == set(b.arrays)
    for name in a.arrays:
        assert a.arrays[name] == b.arrays[name]
    assert len(a.states()) == len(b.states())
    for sa, sb in zip(a.states(), b.states()):
        assert sa.name == sb.name
        assert len(sa.nodes()) == len(sb.nodes())
        assert len(sa.edges()) == len(sb.edges())
        for ea, eb in zip(sa.edges(), sb.edges()):
            assert type(ea.src) is type(eb.src)
            assert ea.data.src_conn == eb.data.src_conn
            assert ea.data.dst_conn == eb.data.dst_conn
            assert ea.data.memlet == eb.data.memlet


class TestRoundTrip:
    def test_outer_product(self):
        sdfg = outer_product_sdfg()
        clone = from_json(to_json(sdfg))
        clone.validate()
        assert_equivalent(sdfg, clone)

    def test_double_round_trip_stable(self):
        sdfg = outer_product_sdfg()
        doc1 = to_json(sdfg)
        doc2 = to_json(from_json(doc1))
        assert doc1 == doc2

    def test_string_round_trip(self):
        sdfg = outer_product_sdfg()
        clone = loads(dumps(sdfg))
        assert_equivalent(sdfg, clone)

    def test_layout_attributes_preserved(self):
        sdfg = SDFG("layouts")
        sdfg.add_array(
            "A", [4, 5], dtypes.float32, strides=[8, 1], start_offset=2, alignment=64
        )
        sdfg.add_scalar("s", dtypes.int64)
        sdfg.add_transient("tmp", [4], dtypes.float64)
        sdfg.add_state("empty")
        clone = from_json(to_json(sdfg))
        a = clone.arrays["A"]
        assert a.strides[0].evaluate() == 8
        assert a.start_offset.evaluate() == 2
        assert a.alignment == 64
        assert clone.arrays["tmp"].transient

    def test_multi_state(self):
        sdfg = SDFG("two")
        sdfg.add_array("A", [I], dtypes.float64)
        s0 = sdfg.add_state("first")
        s1 = sdfg.add_state_after(s0, "second")
        sdfg.add_interstate_edge(s1, s0, condition="i < 10", assignments={"i": "i + 1"})
        clone = from_json(to_json(sdfg))
        assert [s.name for s in clone.states()] == ["first", "second"]
        assert clone.start_state.name == "first"
        edges = clone.interstate_edges()
        assert len(edges) == 2
        assert edges[1].data.condition == "i < 10"
        assert edges[1].data.assignments == {"i": "i + 1"}

    def test_wcr_and_volume_hint(self):
        sdfg = SDFG("wcr")
        sdfg.add_array("acc", [1], dtypes.float64)
        sdfg.add_array("A", [I], dtypes.float64)
        state = sdfg.add_state()
        state.add_mapped_tasklet(
            "reduce",
            {"i": "0:I"},
            inputs={"a": Memlet("A", "i")},
            code="out = a",
            outputs={"out": Memlet("acc", "0", wcr="sum")},
        )
        clone = from_json(to_json(sdfg))
        wcr_memlets = [
            m for s in clone.states() for _, m in s.all_memlets() if m.wcr is not None
        ]
        assert wcr_memlets
        hinted = [m for m in wcr_memlets if m.volume_hint is not None]
        assert any(m.volume() == I for m in hinted)

    def test_rejects_foreign_document(self):
        with pytest.raises(ReproError):
            from_json({"format": "something-else"})


class TestDeterminism:
    def test_dumps_is_deterministic(self):
        a = dumps(outer_product_sdfg())
        b = dumps(outer_product_sdfg())
        assert a == b

    def test_dumps_stable_across_round_trip(self):
        sdfg = outer_product_sdfg()
        assert dumps(loads(dumps(sdfg))) == dumps(sdfg)

    def test_canonical_json_normalizes_key_order(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_canonical_json_preserves_list_order(self):
        assert canonical_json([1, 2]) != canonical_json([2, 1])


class TestContentHashing:
    def test_fingerprint_stable_across_round_trip(self):
        sdfg = outer_product_sdfg()
        clone = loads(dumps(sdfg))
        assert sdfg_fingerprint(clone) == sdfg_fingerprint(sdfg)
        for ours, theirs in zip(sdfg.states(), clone.states()):
            assert state_fingerprint(ours) == state_fingerprint(theirs)
        assert arrays_fingerprint(clone) == arrays_fingerprint(sdfg)

    def test_fingerprint_stable_across_processes(self):
        """Content hashes must not depend on the process hash seed."""
        import os
        from pathlib import Path

        import repro

        script = (
            "from repro.apps import linalg\n"
            "from repro.sdfg.serialize import sdfg_fingerprint\n"
            "print(sdfg_fingerprint(linalg.build_outer_product()))\n"
        )
        from repro.apps import linalg

        expected = sdfg_fingerprint(linalg.build_outer_product())
        src = str(Path(repro.__file__).resolve().parents[1])
        for seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                check=True,
            )
            assert result.stdout.strip() == expected

    def test_state_fingerprint_tracks_content(self):
        a, b = outer_product_sdfg(), outer_product_sdfg()
        sa, sb = a.start_state, b.start_state
        assert state_fingerprint(sa) == state_fingerprint(sb)
        entry = sb.map_entries()[0]
        entry.map.params = list(reversed(entry.map.params))
        entry.map.ranges = list(reversed(entry.map.ranges))
        assert state_fingerprint(sa) != state_fingerprint(sb)

    def test_data_fingerprint_logical_ignores_layout(self):
        sdfg = outer_product_sdfg()
        physical_before = data_fingerprint(sdfg.arrays["C"])
        logical_before = data_fingerprint(sdfg.arrays["C"], logical=True)
        from repro.transforms import pad_strides_to_multiple

        pad_strides_to_multiple(sdfg, "C", 8)
        assert data_fingerprint(sdfg.arrays["C"]) != physical_before
        assert data_fingerprint(sdfg.arrays["C"], logical=True) == logical_before

    def test_arrays_fingerprint_is_order_sensitive(self):
        """Registration order determines allocation order: it is content."""
        a = SDFG("one")
        a.add_array("X", [I], dtypes.float64)
        a.add_array("Y", [I], dtypes.float64)
        b = SDFG("one")
        b.add_array("Y", [I], dtypes.float64)
        b.add_array("X", [I], dtypes.float64)
        assert arrays_fingerprint(a) != arrays_fingerprint(b)
        # ...but the logical variant is not: access patterns don't care.
        assert arrays_fingerprint(a, logical=True) == arrays_fingerprint(
            b, logical=True
        )

    def test_fingerprint_composes_from_state_digests(self):
        from repro.passes import PassContext

        sdfg = outer_product_sdfg()
        sdfg.add_state_after(sdfg.start_state, "second")
        digests = [state_fingerprint(s) for s in sdfg.states()]
        assert sdfg_fingerprint(sdfg, digests) == sdfg_fingerprint(sdfg)
        ctx = PassContext(sdfg)
        assert ctx.component("sdfg") == sdfg_fingerprint(sdfg)
        assert ctx.component("states") == tuple(digests)


# -- one digest per graph part ---------------------------------------------


def rich_sdfg():
    """A state with every kind of field its document holds: access nodes
    (one without edges), a nested SDFG (with its own arrays, state and
    symbol mapping), a map scope around a tasklet, a write-conflict
    memlet with a volume hint, and a spare map scope."""
    sdfg = build_outer()
    state = sdfg.start_state
    state.add_access("B")
    state.add_mapped_tasklet(
        "reduce",
        {"i": "0:N"},
        inputs={"a": Memlet("A", "i")},
        code="out = a",
        outputs={"out": Memlet("B", "0", wcr="sum")},
    )
    state.add_map("spare", {"k": "0:N"})
    return sdfg


def nodes_of(state, kind):
    return [n for n in state.nodes() if isinstance(n, kind)]


def wcr_edge(state):
    return next(e for e in state.edges() if e.data.memlet is not None and e.data.memlet.wcr)


def _move_last(state, node):
    """Re-insert an edgeless *node*: same content, new position."""
    state.remove_node(node)
    state.add_node(node)


def _rotate_edges(state):
    """Re-add the first edge at the end: same edges, new order."""
    edge = state.edges()[0]
    state.remove_edge(edge)
    state.add_edge(edge.src, edge.data.src_conn, edge.dst, edge.data.dst_conn, edge.data.memlet)


def _swap_edge_end(state, end):
    edge = wcr_edge(state)
    others = [n for n in state.nodes() if n is not getattr(edge, end)]
    setattr(edge, end, others[0])


#: ``field → mutation``: each changes exactly one field of the state's
#: document.  A field is ``kind.key`` (``kind`` a node type, ``edge``,
#: ``memlet`` or ``state``); nested-SDFG parts add the inner key.
STATE_FIELD_CASES = {
    "AccessNode.data": lambda st: setattr(nodes_of(st, AccessNode)[0], "data", "B"),
    "Tasklet.name": lambda st: setattr(nodes_of(st, Tasklet)[0], "name", "renamed"),
    "Tasklet.inputs": lambda st: nodes_of(st, Tasklet)[0].in_connectors.append("c"),
    "Tasklet.outputs": lambda st: nodes_of(st, Tasklet)[0].out_connectors.append("c"),
    "Tasklet.code": lambda st: setattr(nodes_of(st, Tasklet)[0], "code", "out = a + 1"),
    "MapEntry.label": lambda st: setattr(nodes_of(st, MapEntry)[0].map, "label", "other"),
    "MapEntry.params": lambda st: setattr(nodes_of(st, MapEntry)[0].map, "params", ["p"]),
    "MapEntry.ranges": lambda st: setattr(
        nodes_of(st, MapEntry)[0].map, "ranges", [Range.from_string("1:N")]
    ),
    "MapExit.entry": lambda st: setattr(
        nodes_of(st, MapExit)[1], "entry_node", nodes_of(st, MapEntry)[0]
    ),
    "NestedSDFG.sdfg.arrays": lambda st: nodes_of(st, NestedSDFG)[0].sdfg.add_array(
        "extra", [4], dtypes.float64
    ),
    "NestedSDFG.sdfg.states": lambda st: setattr(
        nodes_of(nodes_of(st, NestedSDFG)[0].sdfg.start_state, Tasklet)[0],
        "code", "y = x * 3.0",
    ),
    "NestedSDFG.symbol_mapping": lambda st: nodes_of(st, NestedSDFG)[0]
    .symbol_mapping.__setitem__("M", "N + 1"),
    "NestedSDFG.inputs": lambda st: nodes_of(st, NestedSDFG)[0].in_connectors.append("c"),
    "NestedSDFG.outputs": lambda st: nodes_of(st, NestedSDFG)[0].out_connectors.append("c"),
    "edge.src": lambda st: _swap_edge_end(st, "src"),
    "edge.dst": lambda st: _swap_edge_end(st, "dst"),
    "edge.src_conn": lambda st: setattr(wcr_edge(st).data, "src_conn", "other"),
    "edge.dst_conn": lambda st: setattr(wcr_edge(st).data, "dst_conn", "other"),
    "memlet.data": lambda st: setattr(wcr_edge(st).data.memlet, "data", "A"),
    "memlet.subset": lambda st: setattr(
        wcr_edge(st).data.memlet, "subset", Subset.from_string("1")
    ),
    "memlet.wcr": lambda st: setattr(wcr_edge(st).data.memlet, "wcr", "max"),
    "memlet.volume_hint": lambda st: setattr(
        wcr_edge(st).data.memlet, "volume_hint", I
    ),
    "state.nodes": lambda st: _move_last(st, nodes_of(st, AccessNode)[2]),
    "state.edges": _rotate_edges,
    "state.name": lambda st: setattr(st, "name", "renamed"),
}


def document_fields(doc: dict) -> set[str]:
    """The fields of one state document, named as in
    :data:`STATE_FIELD_CASES`."""
    fields = {f"state.{key}" for key in doc}
    for node in doc["nodes"]:
        for key in node:
            if key == "sdfg":
                fields |= {f"NestedSDFG.sdfg.{k}" for k in ("arrays", "states")}
            elif key != "type":
                fields.add(f"{node['type']}.{key}")
    for edge in doc["edges"]:
        fields |= {f"edge.{key}" for key in edge if key != "memlet"}
        fields |= {f"memlet.{key}" for key in edge["memlet"] or ()}
    return fields


class TestStateDigest:
    def test_every_document_field_has_a_case(self):
        doc = _state_to_json(rich_sdfg().start_state)
        assert document_fields(doc) <= set(STATE_FIELD_CASES)

    @pytest.mark.parametrize("field", sorted(STATE_FIELD_CASES))
    def test_field_moves_the_digest(self, field):
        state = rich_sdfg().start_state
        before = state_fingerprint(state)
        STATE_FIELD_CASES[field](state)
        assert state_fingerprint(state) != before

    def test_digest_is_one_hash_of_the_document(self):
        import hashlib

        state = rich_sdfg().start_state
        text = canonical_json(_state_to_json(state))
        assert state_fingerprint(state) == hashlib.sha256(text.encode()).hexdigest()[:16]


APPS = [
    pytest.param(hdiff.build_sdfg, id="hdiff"),
    pytest.param(conv.build_conv, id="conv"),
    pytest.param(bert.build_sdfg, id="bert"),
    pytest.param(linalg.build_matmul, id="matmul"),
    pytest.param(cloudsc.build_sdfg, id="cloudsc"),
    pytest.param(rich_sdfg, id="rich"),
]


def digests(sdfg):
    return (
        [state_fingerprint(s) for s in sdfg.states()],
        arrays_fingerprint(sdfg),
        arrays_fingerprint(sdfg, logical=True),
        sdfg_fingerprint(sdfg),
    )


class TestDigestsSurviveCopies:
    @pytest.mark.parametrize("build", APPS)
    def test_app(self, build):
        sdfg = build()
        assert digests(loads(dumps(sdfg))) == digests(sdfg)
        assert digests(sdfg.copy()) == digests(sdfg)

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_random_program(self, sdfg):
        assert digests(loads(dumps(sdfg))) == digests(sdfg)
        assert digests(sdfg.copy()) == digests(sdfg)


def _descriptor(**changes):
    fields = dict(
        dtype=dtypes.float64, shape=[I, J], strides=[J, 1], start_offset=0,
        alignment=0, transient=False,
    )
    fields.update(changes)
    return Array(**fields)


#: One descriptor field changed at a time, and whether the logical
#: variant must see it.
DESCRIPTOR_CASES = {
    "dtype": (dict(dtype=dtypes.float32), True),
    "shape": (dict(shape=[I, J + 1], strides=[J, 1]), True),
    "transient": (dict(transient=True), True),
    "strides": (dict(strides=[J + 8, 1]), False),
    "start_offset": (dict(start_offset=4), False),
    "alignment": (dict(alignment=64), False),
}


class TestArraysDigest:
    def test_every_descriptor_field_has_a_case(self):
        from repro.sdfg.serialize import _data_to_json

        assert set(_data_to_json(_descriptor())) - {"type"} == set(DESCRIPTOR_CASES)

    @pytest.mark.parametrize("field", sorted(DESCRIPTOR_CASES))
    def test_field_moves_the_digest(self, field):
        changes, logical = DESCRIPTOR_CASES[field]
        sdfg = outer_product_sdfg()
        sdfg.arrays["C"] = _descriptor()
        before = arrays_fingerprint(sdfg), arrays_fingerprint(sdfg, logical=True)
        sdfg.arrays["C"] = _descriptor(**changes)
        assert arrays_fingerprint(sdfg) != before[0]
        assert (arrays_fingerprint(sdfg, logical=True) != before[1]) is logical

    def test_scalar_and_array_differ(self):
        a, b = SDFG("s"), SDFG("s")
        a.add_scalar("x", dtypes.float64)
        b.add_array("x", [1], dtypes.float64)
        assert arrays_fingerprint(a) != arrays_fingerprint(b)
        assert arrays_fingerprint(a, logical=True) != arrays_fingerprint(b, logical=True)

    def test_names_are_content(self):
        a, b = SDFG("s"), SDFG("s")
        a.add_array("x", [I], dtypes.float64)
        b.add_array("y", [I], dtypes.float64)
        assert arrays_fingerprint(a) != arrays_fingerprint(b)
        assert arrays_fingerprint(a, logical=True) != arrays_fingerprint(b, logical=True)
