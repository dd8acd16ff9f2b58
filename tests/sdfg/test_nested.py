"""Tests for NestedSDFG construction, execution and simulation."""

import numpy as np
import pytest

from repro.codegen import interpret_sdfg
from repro.sdfg import SDFG, Memlet, dtypes
from repro.sdfg.serialize import from_json, to_json
from repro.simulation import simulate_state
from repro.symbolic import symbols

I, N = symbols("I N")


def build_inner():
    """Inner program: out[i] = inp[i] * 2 over N elements."""
    inner = SDFG("double_kernel")
    inner.add_array("inp", [N], dtypes.float64)
    inner.add_array("outp", [N], dtypes.float64)
    state = inner.add_state("body")
    state.add_mapped_tasklet(
        "double",
        {"i": "0:N"},
        inputs={"x": Memlet("inp", "i")},
        code="_out = x * 2.0",
        outputs={"_out": Memlet("outp", "i")},
    )
    return inner


def build_outer():
    """Outer program: apply the inner kernel to A[2:2+N] -> B[0:N]."""
    outer = SDFG("host")
    outer.add_symbol("N")
    outer.add_array("A", [N + 4], dtypes.float64)
    outer.add_array("B", [N], dtypes.float64)
    state = outer.add_state("main")
    a, b = state.add_access("A"), state.add_access("B")
    nested = state.add_nested_sdfg(build_inner(), ["inp"], ["outp"])
    state.add_edge(a, None, nested, "inp", Memlet("A", "2:N+2"))
    state.add_edge(nested, "outp", b, None, Memlet("B", "0:N"))
    return outer


class TestStructure:
    def test_validates(self):
        build_outer().validate()

    def test_serialization_round_trip(self):
        outer = build_outer()
        clone = from_json(to_json(outer))
        clone.validate()
        nested = [
            n for s in clone.states() for n in s.nodes()
            if type(n).__name__ == "NestedSDFG"
        ]
        assert len(nested) == 1
        assert nested[0].sdfg.name == "double_kernel"


class TestInterpreter:
    def test_executes_on_offset_window(self):
        outer = build_outer()
        a = np.arange(10.0)
        b = np.zeros(6)
        interpret_sdfg(outer, {"A": a, "B": b}, {"N": 6})
        np.testing.assert_allclose(b, a[2:8] * 2.0)

    def test_writes_through_views(self):
        """Inner writes land in the outer array region directly."""
        outer = SDFG("inplace")
        outer.add_symbol("N")
        outer.add_array("A", [N + 4], dtypes.float64)
        state = outer.add_state()
        src = state.add_access("A")
        dst = state.add_access("A")
        nested = state.add_nested_sdfg(build_inner(), ["inp"], ["outp"])
        state.add_edge(src, None, nested, "inp", Memlet("A", "0:N"))
        state.add_edge(nested, "outp", dst, None, Memlet("A", "4:N+4"))
        a = np.arange(8.0)
        interpret_sdfg(outer, {"A": a}, {"N": 4})
        np.testing.assert_allclose(a[4:8], np.arange(4.0) * 2.0)

    def test_symbol_mapping(self):
        outer = SDFG("mapped")
        outer.add_symbol("I")
        outer.add_array("A", [I], dtypes.float64)
        outer.add_array("B", [I], dtypes.float64)
        state = outer.add_state()
        a, b = state.add_access("A"), state.add_access("B")
        # The inner kernel's N is the outer I (renamed through the mapping).
        nested = state.add_nested_sdfg(
            build_inner(), ["inp"], ["outp"], symbol_mapping={"N": "I"}
        )
        state.add_edge(a, None, nested, "inp", Memlet("A", "0:I"))
        state.add_edge(nested, "outp", b, None, Memlet("B", "0:I"))
        arr = np.arange(5.0)
        out = np.zeros(5)
        interpret_sdfg(outer, {"A": arr, "B": out}, {"I": 5})
        np.testing.assert_allclose(out, arr * 2.0)

    def test_missing_binding_rejected(self):
        from repro.errors import CodegenError

        outer = SDFG("broken")
        outer.add_symbol("N")
        outer.add_array("A", [N], dtypes.float64)
        state = outer.add_state()
        a = state.add_access("A")
        nested = state.add_nested_sdfg(build_inner(), [], ["outp"])
        state.add_edge(nested, "outp", a, None, Memlet("A", "0:N"))
        with pytest.raises(CodegenError, match="binding"):
            interpret_sdfg(outer, {"A": np.zeros(3)}, {"N": 3})


class TestSimulation:
    def test_events_translated_to_outer_names(self):
        outer = build_outer()
        result = simulate_state(outer, {"N": 4})
        assert set(result.containers()) == {"A", "B"}
        # Inner reads of inp[i] become reads of A[i + 2].
        reads = sorted(e.indices for e in result.events if e.data == "A")
        assert reads == [(2,), (3,), (4,), (5,)]
        writes = sorted(e.indices for e in result.events if e.data == "B")
        assert writes == [(0,), (1,), (2,), (3,)]

    def test_steps_advance_through_nested(self):
        outer = build_outer()
        result = simulate_state(outer, {"N": 3})
        assert result.num_steps == 3

    @pytest.mark.parametrize("fast, expected", [(False, 0), (True, 1)])
    def test_interpreter_oracle_interprets_nested_bodies(
        self, monkeypatch, fast, expected
    ):
        """``fast=False`` reaches the nested body: the oracle must not
        compare the vectorized path against itself."""
        import repro.simulation.vectorized as vectorized

        calls = []
        real = vectorized.simulate_scope_vectorized

        def spy(*args, **kwargs):
            calls.append(args[1].map.label)
            return real(*args, **kwargs)

        monkeypatch.setattr(vectorized, "simulate_scope_vectorized", spy)
        simulate_state(build_outer(), {"N": 4}, fast=fast)
        assert len(calls) == expected

    def test_folding_summarizes_nested(self):
        from repro.viz.lod import FoldState, FoldedScope

        outer = build_outer()
        state = outer.start_state
        fold = FoldState(state)
        nested = next(
            n for n in state.nodes() if type(n).__name__ == "NestedSDFG"
        )
        fold.collapse(nested)
        summaries = [
            v for v in fold.visible_nodes() if isinstance(v, FoldedScope)
        ]
        assert len(summaries) == 1
        assert "folded SDFG" in summaries[0].summary
