"""Differential tests: vectorized fast path vs. the interpreter.

The correctness contract of the fast path is byte-identical traces —
same events, same order — so every test here simulates twice (``fast=
True`` and ``fast=False``) and compares full attribute tuples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import bert, conv, hdiff, linalg
from repro.errors import SimulationError
from repro.sdfg import dtypes
from repro.sdfg.memlet import Memlet
from repro.sdfg.sdfg import SDFG
from repro.simulation import MemoryModel, build_array_trace, simulate_state
from repro.simulation.stackdist import line_trace


def strided(result):
    """Whether every block of *result* is a vectorized (strided) column."""
    return bool(result.blocks) and all(
        isinstance(b.positions, slice) for b in result.blocks
    )


def trace_key(events):
    return [
        (e.data, e.indices, e.kind, e.step, e.execution, e.tasklet, e.point)
        for e in events
    ]


def assert_identical_traces(sdfg, symbols, state=None, include_transients=False):
    slow = simulate_state(
        sdfg, symbols, state=state, include_transients=include_transients, fast=False
    )
    fast = simulate_state(
        sdfg, symbols, state=state, include_transients=include_transients, fast=True
    )
    assert trace_key(fast.events) == trace_key(slow.events)
    assert fast.num_steps == slow.num_steps
    assert fast.num_executions == slow.num_executions
    return slow, fast


class TestExampleApps:
    @pytest.mark.parametrize(
        "sizes",
        [hdiff.LOCAL_VIEW_SIZES, {"I": 3, "J": 3, "K": 2}],
        ids=["local-view", "tiny"],
    )
    def test_hdiff(self, sizes):
        _, fast = assert_identical_traces(hdiff.build_sdfg(), sizes)
        assert strided(fast), "hdiff memlets are affine; fast path must engage"

    @pytest.mark.parametrize(
        "sizes",
        [
            conv.FIG4_SIZES,
            {"Cout": 1, "Cin": 2, "H": 5, "W": 5, "KY": 2, "KX": 2},
        ],
        ids=["fig4", "tiny"],
    )
    def test_conv(self, sizes):
        _, fast = assert_identical_traces(conv.build_conv(), sizes)
        assert strided(fast)

    @pytest.mark.parametrize(
        "sizes",
        [
            {"B": 1, "H": 2, "SM": 2, "EMB": 2, "FF": 2, "P": 2},
            {"B": 2, "H": 2, "SM": 3, "EMB": 4, "FF": 3, "P": 2},
        ],
        ids=["tiny", "small"],
    )
    def test_bert(self, sizes):
        assert_identical_traces(bert.build_sdfg(), sizes)

    @pytest.mark.parametrize(
        "sizes",
        [{"I": 3, "J": 4, "K": 2}, {"I": 5, "J": 2, "K": 3}],
        ids=["tiny", "small"],
    )
    def test_matmul(self, sizes):
        _, fast = assert_identical_traces(linalg.build_matmul(), sizes)
        assert strided(fast)

    @pytest.mark.parametrize(
        "sizes", [{"M": 4, "N": 3}, {"M": 2, "N": 7}], ids=["tiny", "wide"]
    )
    def test_outer_product(self, sizes):
        assert_identical_traces(linalg.build_outer_product(), sizes)

    def test_hdiff_line_trace_matches(self):
        fast = simulate_state(hdiff.build_sdfg(), hdiff.LOCAL_VIEW_SIZES, fast=True)
        slow = simulate_state(hdiff.build_sdfg(), hdiff.LOCAL_VIEW_SIZES, fast=False)
        memory = MemoryModel(fast.sdfg, fast.env, line_size=64)
        lines = build_array_trace(fast, memory).lines.tolist()
        assert lines == line_trace(slow.events, memory)


def single_map_sdfg(subset_strs, iteration, shape=(64, 64, 64)):
    """One mapped tasklet reading A at each subset and writing B at the first."""
    sdfg = SDFG("randprog")
    ndims = len(subset_strs[0].split(","))
    sdfg.add_array("A", list(shape[:ndims]), dtypes.float64)
    sdfg.add_array("B", list(shape[:ndims]), dtypes.float64)
    state = sdfg.add_state("main")
    state.add_mapped_tasklet(
        "compute",
        iteration,
        inputs={
            f"a{n}": Memlet("A", s) for n, s in enumerate(subset_strs)
        },
        code="out = " + " + ".join(f"a{n}" for n in range(len(subset_strs))),
        outputs={"out": Memlet("B", subset_strs[0])},
    )
    return sdfg


class TestEdgeCases:
    def test_strided_map(self):
        sdfg = single_map_sdfg(["i, j"], {"i": "0:8:2", "j": "1:7:3"})
        assert_identical_traces(sdfg, {})

    def test_strided_memlet_block(self):
        sdfg = single_map_sdfg(["i:i+4:2, j"], {"i": "0:4", "j": "0:3"})
        _, fast = assert_identical_traces(sdfg, {})
        assert strided(fast)

    def test_negative_step_memlet(self):
        # The block runs from i+3 down to i-1, so i starts at 1: a negative
        # index is rejected (see test_negative_index_rejected).
        sdfg = single_map_sdfg(["i+3:i:-1, j"], {"i": "1:4", "j": "0:2"})
        assert_identical_traces(sdfg, {})

    def test_zero_iteration_dimension(self):
        sdfg = single_map_sdfg(["i, j"], {"i": "0:N", "j": "0:4"})
        slow, fast = assert_identical_traces(sdfg, {"N": 0})
        assert fast.events == [] and fast.num_steps == 0

    def test_non_affine_falls_back(self):
        sdfg = single_map_sdfg(["i*i, j"], {"i": "0:4", "j": "0:3"})
        _, fast = assert_identical_traces(sdfg, {})
        # i*i is evaluated per iteration through the compiled subset and
        # may cover a varying number of points, so the scope's blocks
        # carry explicit positions: no strided column exists.
        assert fast.blocks
        assert not any(isinstance(b.positions, slice) for b in fast.blocks)

    def test_mixed_affine_and_non_affine(self):
        sdfg = single_map_sdfg(["i*i, j", "i, 2*j"], {"i": "0:4", "j": "0:3"})
        _, fast = assert_identical_traces(sdfg, {})
        assert not any(isinstance(b.positions, slice) for b in fast.blocks)

    @pytest.mark.parametrize("fast", [True, False], ids=["vectorized", "interpreter"])
    def test_negative_index_rejected(self, fast):
        sdfg = single_map_sdfg(["i - 1, j"], {"i": "0:4", "j": "0:3"})
        with pytest.raises(
            SimulationError, match=r"'A' .* index -1 in dimension 0"
        ):
            simulate_state(sdfg, {}, fast=fast)

    def test_min_max_subset_falls_back(self):
        sdfg = single_map_sdfg(["Min(i, j), Max(i, j)"], {"i": "0:4", "j": "0:4"})
        assert_identical_traces(sdfg, {})

    def test_symbolic_coefficients(self):
        sdfg = single_map_sdfg(["N*i + j, 0"], {"i": "0:3", "j": "0:N"})
        assert_identical_traces(sdfg, {"N": 4})


# -- Hypothesis: random affine map/memlet combinations -----------------------

index_exprs = st.one_of(
    # affine points: c0 + c1*i + c2*j
    st.tuples(
        st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)
    ).map(lambda t: f"{t[0]} + {t[1]}*i + {t[2]}*j"),
    # affine blocks with a parameter-free extent
    st.tuples(st.integers(0, 2), st.integers(1, 3)).map(
        lambda t: f"i + {t[0]}:i + {t[0]} + {t[1]}"
    ),
    # occasionally non-affine, exercising the in-scope fallback
    st.just("i*i"),
    st.just("i*j"),
)

map_ranges = st.tuples(
    st.integers(0, 2), st.integers(1, 4), st.integers(1, 2)
).map(lambda t: f"{t[0]}:{t[0] + t[1] * t[2]}:{t[2]}")


@st.composite
def random_programs(draw):
    iteration = {"i": draw(map_ranges), "j": draw(map_ranges)}
    nsubsets = draw(st.integers(1, 3))
    subsets = [draw(index_exprs) + ", j" for _ in range(nsubsets)]
    return single_map_sdfg(subsets, iteration)


class TestRandomAffinePrograms:
    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_random_program_traces_identical(self, sdfg):
        assert_identical_traces(sdfg, {})

    @given(random_programs())
    @settings(max_examples=25, deadline=None)
    def test_random_program_line_traces_identical(self, sdfg):
        fast = simulate_state(sdfg, {}, fast=True)
        slow = simulate_state(sdfg, {}, fast=False)
        memory = MemoryModel(sdfg, {}, line_size=64)
        lines = build_array_trace(fast, memory).lines.tolist()
        assert lines == line_trace(slow.events, memory)
