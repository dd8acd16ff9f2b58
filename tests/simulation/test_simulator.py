"""Tests for the access-pattern simulator."""

import pytest

from repro.errors import SimulationError
from repro.frontend import pmap, program
from repro.sdfg.dtypes import float64
from repro.simulation import AccessKind, simulate_state
from repro.symbolic import symbols

I, J, K = symbols("I J K")


@program
def outer_product(A: float64[I], B: float64[J], C: float64[I, J]):
    for i, j in pmap(I, J):
        C[i, j] = A[i] * B[j]


@program
def matmul(A: float64[I, K], B: float64[K, J], C: float64[I, J]):
    for i, j, k in pmap(I, J, K):
        C[i, j] += A[i, k] * B[k, j]


@program
def stencil(A: float64[I + 2], B: float64[I]):
    for i in pmap(I):
        B[i] = (A[i] + A[i + 1] + A[i + 2]) / 3.0


@program
def with_local(A: float64[I], B: float64[I]):
    for i in pmap(I):
        t = A[i] * 2.0
        B[i] = t + 1.0


class TestOuterProduct:
    def test_event_counts(self):
        result = simulate_state(outer_product.to_sdfg(), {"I": 3, "J": 4})
        # Per iteration: read A, read B, write C -> 3 events * 12 iterations.
        assert len(result.events) == 36
        assert result.total_accesses("A") == 12
        assert result.total_accesses("C") == 12

    def test_access_counts_flattened(self):
        result = simulate_state(outer_product.to_sdfg(), {"I": 3, "J": 4})
        counts_a = result.access_counts("A")
        # A[i] read once per j -> 4 accesses each.
        assert counts_a == {(0,): 4, (1,): 4, (2,): 4}
        counts_c = result.access_counts("C")
        assert all(v == 1 for v in counts_c.values())
        assert len(counts_c) == 12

    def test_kind_filter(self):
        result = simulate_state(outer_product.to_sdfg(), {"I": 2, "J": 2})
        assert result.access_counts("C", AccessKind.READ) == {}
        assert len(result.access_counts("C", AccessKind.WRITE)) == 4

    def test_steps_are_iterations(self):
        result = simulate_state(outer_product.to_sdfg(), {"I": 3, "J": 4})
        assert result.num_steps == 12
        frame = result.events_at_step(0)
        touched = {(e.data, e.indices) for e in frame}
        assert touched == {("A", (0,)), ("B", (0,)), ("C", (0, 0))}

    def test_iteration_order_row_major(self):
        result = simulate_state(outer_product.to_sdfg(), {"I": 2, "J": 3})
        writes = [e.indices for e in result.events if e.data == "C"]
        assert writes == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_shape(self):
        result = simulate_state(outer_product.to_sdfg(), {"I": 3, "J": 4})
        assert result.shape("C") == (3, 4)

    def test_containers_order(self):
        result = simulate_state(outer_product.to_sdfg(), {"I": 2, "J": 2})
        assert set(result.containers()) == {"A", "B", "C"}


class TestMatmul:
    def test_total_events(self):
        result = simulate_state(matmul.to_sdfg(), {"I": 2, "J": 3, "K": 4})
        assert len(result.events) == 3 * 2 * 3 * 4

    def test_output_accumulation_counts(self):
        result = simulate_state(matmul.to_sdfg(), {"I": 2, "J": 3, "K": 4})
        counts = result.access_counts("C", AccessKind.WRITE)
        assert all(v == 4 for v in counts.values())  # K accumulations

    def test_innermost_parameter_fastest(self):
        result = simulate_state(matmul.to_sdfg(), {"I": 2, "J": 2, "K": 3})
        a_reads = [e.indices for e in result.events if e.data == "A"][:3]
        # k varies fastest: A[0,0], A[0,1], A[0,2].
        assert a_reads == [(0, 0), (0, 1), (0, 2)]


class TestStencil:
    def test_window_reads(self):
        result = simulate_state(stencil.to_sdfg(), {"I": 4})
        frame = result.events_at_step(0)
        a_reads = sorted(e.indices for e in frame if e.data == "A")
        assert a_reads == [(0,), (1,), (2,)]

    def test_overlap_counts(self):
        result = simulate_state(stencil.to_sdfg(), {"I": 4})
        counts = result.access_counts("A")
        # Elements in the middle are read by up to 3 windows.
        assert counts[(2,)] == 3
        assert counts[(0,)] == 1
        assert counts[(5,)] == 1


class TestLocals:
    def test_transients_excluded_by_default(self):
        result = simulate_state(with_local.to_sdfg(), {"I": 4})
        assert set(result.containers()) == {"A", "B"}

    def test_transients_included_on_request(self):
        sdfg = with_local.to_sdfg()
        from repro.simulation import AccessPatternSimulator

        result = AccessPatternSimulator(sdfg, {"I": 4}, include_transients=True).run()
        assert any(c.startswith("__t") for c in result.containers())

    def test_executions_grouping(self):
        result = simulate_state(with_local.to_sdfg(), {"I": 2})
        groups = list(result.executions())
        # Two tasklets per iteration, two iterations.
        assert len(groups) == 4
        for _, events in groups:
            tasklets = {e.tasklet for e in events}
            assert len(tasklets) == 1


class TestErrors:
    def test_missing_symbols(self):
        with pytest.raises(SimulationError, match="J"):
            simulate_state(outer_product.to_sdfg(), {"I": 2})


class TestMultiKernel:
    def test_sequential_kernels_share_trace(self):
        @program
        def two(A: float64[I], B: float64[I], C: float64[I]):
            for i in pmap(I):
                B[i] = A[i] * 2.0
            for i in pmap(I):
                C[i] = B[i] + 1.0

        result = simulate_state(two.to_sdfg(), {"I": 3})
        # Kernel 1 fully precedes kernel 2 in the trace.
        b_writes = [i for i, e in enumerate(result.events)
                    if e.data == "B" and e.kind == AccessKind.WRITE]
        b_reads = [i for i, e in enumerate(result.events)
                   if e.data == "B" and e.kind == AccessKind.READ]
        assert max(b_writes) < min(b_reads)
        assert result.num_steps == 6


class TestZeroStepSubset:
    def build(self):
        from repro.sdfg import dtypes
        from repro.sdfg.memlet import Memlet
        from repro.sdfg.sdfg import SDFG

        sdfg = SDFG("zerostep")
        sdfg.add_array("A", [8], dtypes.float64)
        sdfg.add_array("B", [8], dtypes.float64)
        state = sdfg.add_state("main")
        state.add_mapped_tasklet(
            "compute",
            {"i": "0:2"},
            inputs={"a": Memlet("A", "0:4:S")},
            code="out = a",
            outputs={"out": Memlet("B", "i")},
        )
        return sdfg

    def test_interpreter_rejects_zero_step(self):
        """A symbolic memlet step evaluating to 0 must raise, not loop."""
        with pytest.raises(SimulationError, match="step evaluated to zero"):
            simulate_state(self.build(), {"S": 0}, fast=False)

    def test_fast_path_rejects_zero_step(self):
        with pytest.raises(SimulationError, match="step evaluated to zero"):
            simulate_state(self.build(), {"S": 0}, fast=True)

    def test_nonzero_step_still_works(self):
        result = simulate_state(self.build(), {"S": 2}, fast=False)
        assert result.total_accesses("A") == 4  # 2 iterations x {0, 2}


class TestFastFlag:
    def test_fast_and_slow_agree(self):
        sdfg = outer_product.to_sdfg()
        slow = simulate_state(sdfg, {"I": 3, "J": 4}, fast=False)
        fast = simulate_state(sdfg, {"I": 3, "J": 4}, fast=True)
        assert [(e.data, e.indices, e.kind, e.step, e.execution, e.tasklet, e.point)
                for e in slow.events] == \
               [(e.data, e.indices, e.kind, e.step, e.execution, e.tasklet, e.point)
                for e in fast.events]

    def test_slow_path_records_no_vector_blocks(self):
        # The interpreter records blocks with explicit int64 positions;
        # only the vectorized path records strided (slice) blocks.
        result = simulate_state(outer_product.to_sdfg(), {"I": 2, "J": 2}, fast=False)
        assert result.blocks
        assert not any(isinstance(b.positions, slice) for b in result.blocks)
        assert sum(b.count for b in result.blocks) == result.num_events

    def test_fast_path_records_vector_blocks(self):
        result = simulate_state(outer_product.to_sdfg(), {"I": 2, "J": 2}, fast=True)
        assert all(isinstance(b.positions, slice) for b in result.blocks)
        assert sum(b.count for b in result.blocks) == len(result.events)
