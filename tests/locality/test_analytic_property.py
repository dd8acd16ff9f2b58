"""Property tests for the analytic locality engine.

Two independent oracles pin the engine down:

* :func:`stack_distances_bruteforce` — the O(n²) textbook LRU stack
  simulation — on random small affine/non-affine nests (Hypothesis);
* plain enumeration on a *parameterized* stencil family, evaluated
  against the engine's closed-form :class:`SymbolicLocality` expressions
  across outer extents, including extents where a fresh fold would be
  uneconomic and the engine itself would enumerate.
"""

from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.linalg import build_matmul
from repro.locality import analyze_locality
from repro.sdfg import dtypes
from repro.sdfg.memlet import Memlet
from repro.sdfg.sdfg import SDFG
from repro.simulation import MemoryModel, simulate_state
from repro.simulation.cache import CacheModel
from repro.simulation.movement import per_container_misses
from repro.simulation.stackdist import line_trace, stack_distances_bruteforce
from repro.symbolic import evaluate_int
from tests.simulation.test_vectorized_differential import single_map_sdfg

LINE = 64
CAPACITIES = (4, 512)


def bruteforce_reference(sdfg, env):
    """Histograms/cold per container from the O(n²) oracle."""
    result = simulate_state(sdfg, env)
    memory = MemoryModel(sdfg, env, line_size=LINE)
    distances = stack_distances_bruteforce(line_trace(result.events, memory))
    hist: dict[str, Counter] = defaultdict(Counter)
    cold: Counter = Counter()
    for event, distance in zip(result.events, distances):
        if distance == float("inf"):
            cold[event.data] += 1
        else:
            hist[event.data][int(distance)] += 1
    return result, memory, hist, cold


index_exprs = st.one_of(
    st.tuples(
        st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)
    ).map(lambda t: f"{t[0]} + {t[1]}*i + {t[2]}*j"),
    st.tuples(st.integers(0, 2), st.integers(1, 3)).map(
        lambda t: f"i + {t[0]}:i + {t[0]} + {t[1]}"
    ),
    # non-affine subsets exercise the per-region enumeration fallback
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


class TestAgainstBruteforce:
    @given(random_programs())
    @settings(max_examples=50, deadline=None)
    def test_histograms_match_bruteforce(self, sdfg):
        result, _, ref_hist, ref_cold = bruteforce_reference(sdfg, {})
        analytic = analyze_locality(sdfg, {}, line_size=LINE)
        assert analytic.total_events == result.num_events
        for name in analytic.containers:
            assert analytic.histogram(name) == dict(ref_hist[name]), name
            assert analytic.cold_misses()[name] == ref_cold[name], name

    @given(random_programs())
    @settings(max_examples=25, deadline=None)
    def test_miss_counts_match_object_pipeline(self, sdfg):
        result, memory, _, _ = bruteforce_reference(sdfg, {})
        analytic = analyze_locality(sdfg, {}, line_size=LINE)
        for capacity in CAPACITIES:
            assert analytic.miss_counts(capacity) == per_container_misses(
                result.events, memory, CacheModel(LINE, capacity)
            )


def stencil_family(max_n):
    """Three-point stencil over ``0:N`` — one program, many extents.
    Arrays are sized for the largest extent and rounded to whole cache
    lines so the layout (and hence the fold geometry) is extent-invariant."""
    size = ((max_n + 3 + 7) // 8) * 8
    sdfg = SDFG("stencil_family")
    sdfg.add_array("A", [size], dtypes.float64)
    sdfg.add_array("B", [size], dtypes.float64)
    state = sdfg.add_state("main")
    state.add_mapped_tasklet(
        "stencil",
        {"i": "0:N"},
        inputs={"a": Memlet("A", "i:i+3")},
        code="out = a",
        outputs={"out": Memlet("B", "i")},
    )
    return sdfg


class TestSymbolicExtrapolation:
    """The closed-form expressions must predict *enumeration* exactly at
    every extent ≥ ``valid_from`` — far below the analysis point, and at
    extents where a fresh fold would decline on the economic guard."""

    MAX_N = 700
    BASE_N = 600

    def _symbolic(self):
        sdfg = stencil_family(self.MAX_N)
        analytic = analyze_locality(sdfg, {"N": self.BASE_N}, line_size=LINE)
        assert analytic.analytic_regions == 1
        assert analytic.symbolic is not None
        return sdfg, analytic.symbolic

    def test_symbolic_matches_enumeration_across_extents(self):
        sdfg, symbolic = self._symbolic()
        assert symbolic.outer_param == "i"
        extents = sorted(
            {symbolic.valid_from, 200, 300, 357, 512, self.BASE_N, 601}
        )
        for n in extents:
            assert n >= symbolic.valid_from
            result = simulate_state(sdfg, {"N": n})
            memory = MemoryModel(sdfg, {"N": n}, line_size=LINE)
            env = {"N": n}
            for capacity in CAPACITIES:
                ref = per_container_misses(
                    result.events, memory, CacheModel(LINE, capacity)
                )
                cap_exprs = symbolic.capacity_misses(capacity)
                for name, counts in ref.items():
                    total = counts.hits + counts.cold + counts.capacity
                    assert evaluate_int(symbolic.total[name], env) == total
                    assert evaluate_int(symbolic.cold[name], env) == counts.cold
                    assert (
                        evaluate_int(cap_exprs[name], env) == counts.capacity
                    ), (name, n, capacity)

    def test_symbolic_agrees_with_fresh_analysis(self):
        sdfg, symbolic = self._symbolic()
        for n in (400, 512):
            env = {"N": n}
            fresh = analyze_locality(sdfg, env, line_size=LINE)
            for name in fresh.containers:
                totals = fresh.events_per_container
                assert evaluate_int(symbolic.total[name], env) == totals[name]
                assert (
                    evaluate_int(symbolic.cold[name], env)
                    == fresh.cold_misses()[name]
                )

    def test_histogram_expressions_sum_to_total(self):
        _, symbolic = self._symbolic()
        env = {"N": 555}
        for name, bucket in symbolic.hist.items():
            finite = sum(evaluate_int(e, env) for e in bucket.values())
            cold = evaluate_int(symbolic.cold[name], env)
            assert finite + cold == evaluate_int(symbolic.total[name], env)


class TestValidFromIsASufficientBound:
    """``valid_from`` bounds exactness from above, not from below: matmul
    at ``{I: 14, J: 8, K: 8}`` folds although its ``valid_from`` is 17,
    and its expressions equal a fresh analysis at every extent of the
    analyzed family, below ``valid_from`` and above it."""

    SIZES = {"I": 14, "J": 8, "K": 8}

    @staticmethod
    def _line_offsets(sdfg, env):
        memory = MemoryModel(sdfg, env, line_size=LINE)
        return {
            name: memory.layout(name).base_address % LINE
            for name in ("A", "B", "C")
        }

    def test_matmul_expressions_hold_below_valid_from(self):
        sdfg = build_matmul()
        analytic = analyze_locality(sdfg, self.SIZES, line_size=LINE)
        assert analytic.analytic_regions == 1
        symbolic = analytic.symbolic
        assert symbolic.outer_param == "i"
        assert symbolic.valid_from == 17 > self.SIZES["I"]
        family = self._line_offsets(sdfg, self.SIZES)
        checked = []
        for extent in range(6, 21):
            env = {**self.SIZES, "I": extent}
            # An odd I moves B and C half a line: another layout family.
            if self._line_offsets(sdfg, env) != family:
                continue
            checked.append(extent)
            fresh = analyze_locality(sdfg, env, line_size=LINE)
            for capacity in CAPACITIES:
                capacity_exprs = symbolic.capacity_misses(capacity)
                counts = fresh.miss_counts(capacity)
                for name in fresh.containers:
                    assert evaluate_int(symbolic.total[name], env) == (
                        fresh.events_per_container[name]
                    ), (name, extent)
                    assert evaluate_int(symbolic.cold[name], env) == (
                        counts[name].cold
                    ), (name, extent)
                    assert evaluate_int(capacity_exprs[name], env) == (
                        counts[name].capacity
                    ), (name, extent, capacity)
        assert checked == list(range(6, 21, 2))
