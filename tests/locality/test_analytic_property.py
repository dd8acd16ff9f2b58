"""Property tests for the analytic locality engine.

:func:`stack_distances_bruteforce` — the O(n²) textbook LRU stack
simulation — pins the engine down on random small affine/non-affine
nests (Hypothesis).
"""

from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locality import analyze_locality
from repro.simulation import MemoryModel, simulate_state
from repro.simulation.cache import CacheModel
from repro.simulation.movement import per_container_misses
from repro.simulation.stackdist import line_trace, stack_distances_bruteforce
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
