"""Round-trip and content-hashing tests for SDFG JSON serialization."""

import subprocess
import sys

import pytest

from repro.errors import ReproError
from repro.sdfg import SDFG, Memlet, dtypes
from repro.sdfg.serialize import (
    arrays_fingerprint,
    canonical_json,
    data_fingerprint,
    dumps,
    from_json,
    loads,
    node_fingerprint,
    sdfg_fingerprint,
    state_fingerprint,
    to_json,
)
from repro.symbolic import symbols

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

    def test_node_fingerprint_position_independent(self):
        a, b = outer_product_sdfg(), outer_product_sdfg()
        nodes_a, nodes_b = a.start_state.nodes(), b.start_state.nodes()
        for na, nb in zip(nodes_a, nodes_b):
            assert node_fingerprint(na) == node_fingerprint(nb)
