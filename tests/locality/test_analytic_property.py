"""Property tests for the analytic locality engine.

:func:`stack_distances_bruteforce` — the O(n²) textbook LRU stack
simulation — pins the engine down on random small affine/non-affine
nests and on layouts whose fold meets several clusters and shared cache
lines (Hypothesis).
"""

from collections import Counter, defaultdict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.locality import analyze_locality
from repro.sdfg import dtypes
from repro.sdfg.memlet import Memlet
from repro.sdfg.sdfg import SDFG
from repro.simulation import MemoryModel, simulate_state
from repro.simulation.cache import CacheModel
from repro.simulation.movement import per_container_misses
from repro.simulation.stackdist import (
    element_stack_distances,
    line_trace,
    stack_distances_bruteforce,
)
from repro.transforms import pad_strides_to_multiple, permute_array_layout
from tests.simulation.test_vectorized_differential import single_map_sdfg

LINE = 64
CAPACITIES = (4, 512)


def bruteforce_reference(sdfg, env):
    """Histograms/cold per container and per-element distance lists from
    the O(n²) oracle."""
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
    lists = element_stack_distances(result.events, memory, distances=distances)
    return result, memory, hist, cold, lists


def engine_distance_lists(analytic):
    """The engine's per-element distance lists, keyed like
    :func:`element_stack_distances`."""
    out = {}
    for name in analytic.containers:
        elements = analytic.element_distances(name)
        out.update(zip(((name, idx) for idx in elements.indices()), elements.lists()))
    return out


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


def cluster_layout(kind, halo, outer, a, b, offsets, pad=None, stationary=False):
    """A one-map stencil whose fold meets several clusters per container
    and clusters of two containers on one cache line.

    ``A`` (with a *halo*, read at the ``(dx, dy)`` *offsets*) and ``B``
    are stored K-major.  In ``walk`` the outer parameter walks their
    middle dimension — hdiff's reshaped shape: one cluster per plane,
    neighbouring planes meeting mid-line, with one delta per container.
    In ``sweep`` it walks the outermost dimension — hdiff's padded
    shape: ``A`` and ``B`` move by different deltas and meet mid-line at
    their allocation boundary.  *pad* pads ``A``'s rows to a multiple of
    that many elements.  With *stationary*, the map also reads ``W``,
    allocated first in whole cache lines of its own and indexed by the
    innermost parameter only: a container that stays put while the
    others move, beside the lines they share.
    """
    x, y, z = (outer, a, b) if kind == "walk" else (a, b, outer)
    order = ["x", "y", "z"] if kind == "walk" else ["z", "x", "y"]
    ranges = {"x": f"0:{x}", "y": f"0:{y}", "z": f"0:{z}"}
    sdfg = SDFG("clusters")
    inputs = {}
    if stationary:
        inner = order[-1]
        lines = -(-{"x": x, "y": y, "z": z}[inner] // 8)  # 8 float64 per line
        sdfg.add_array("W", [8 * lines], dtypes.float64)
        inputs["w"] = Memlet("W", inner)
    sdfg.add_array("A", [x + halo, y + halo, z], dtypes.float64)
    sdfg.add_array("B", [x, y, z], dtypes.float64)
    inputs.update({
        f"a{n}": Memlet("A", f"x + {dx}, y + {dy}, z")
        for n, (dx, dy) in enumerate(offsets)
    })
    sdfg.add_state("main").add_mapped_tasklet(
        "stencil",
        {name: ranges[name] for name in order},
        inputs=inputs,
        code="out = " + " + ".join(inputs),
        outputs={"out": Memlet("B", "x, y, z")},
    )
    for name in ("A", "B"):
        permute_array_layout(sdfg, name, [2, 0, 1])
    if pad:
        pad_strides_to_multiple(sdfg, "A", pad)
    return sdfg


@st.composite
def cluster_layouts(draw, max_extent):
    """:func:`cluster_layout` with random extents (and an optional row
    padding), which put plane and allocation boundaries anywhere in a
    line, an outer extent that leaves the two copies of a shared line
    more than ``Δmax`` blocks apart or not, and an optional stationary
    container."""
    kind = draw(st.sampled_from(["walk", "sweep"]))
    halo = draw(st.integers(0, 2))
    outer = draw(st.integers(2, 36))
    a, b = draw(st.integers(1, max_extent)), draw(st.integers(1, max_extent))
    offsets = draw(st.lists(
        st.tuples(st.integers(0, halo), st.integers(0, halo)),
        min_size=1, max_size=3, unique=True,
    ))
    pad = draw(st.sampled_from([None, 3, 8]))
    stationary = draw(st.booleans())
    return cluster_layout(kind, halo, outer, a, b, offsets, pad, stationary)


class TestAgainstBruteforce:
    @given(random_programs())
    @settings(max_examples=50, deadline=None)
    def test_histograms_match_bruteforce(self, sdfg):
        result, _, ref_hist, ref_cold, ref_lists = bruteforce_reference(sdfg, {})
        analytic = analyze_locality(sdfg, {}, line_size=LINE)
        assert analytic.total_events == result.num_events
        for name in analytic.containers:
            assert analytic.histogram(name) == dict(ref_hist[name]), name
            assert analytic.cold_misses()[name] == ref_cold[name], name
        assert engine_distance_lists(analytic) == ref_lists

    @given(random_programs())
    @settings(max_examples=25, deadline=None)
    def test_miss_counts_match_object_pipeline(self, sdfg):
        result, memory, _, _, _ = bruteforce_reference(sdfg, {})
        analytic = analyze_locality(sdfg, {}, line_size=LINE)
        for capacity in CAPACITIES:
            assert analytic.miss_counts(capacity) == per_container_misses(
                result.events, memory, CacheModel(LINE, capacity)
            )

    def test_cluster_layouts_match_bruteforce(self):
        """Multi-cluster and shared-line layouts, some of which fold, and
        some of those with later copies of a shared line (always the
        explicit example: planes of ``A`` and ``B`` meeting mid-line,
        touched in blocks 0–1 and 34–35, beside a stationary ``W``)."""
        folded = []
        late = []

        @given(cluster_layouts(max_extent=3))
        @example(cluster_layout("walk", 0, 36, 3, 2, [(0, 0)], stationary=True))
        @settings(max_examples=40, deadline=None)
        def check(sdfg):
            result, memory, ref_hist, ref_cold, ref_lists = bruteforce_reference(sdfg, {})
            analytic = analyze_locality(sdfg, {}, line_size=LINE)
            assert analytic.total_events == result.num_events
            for name in analytic.containers:
                assert analytic.histogram(name) == dict(ref_hist[name]), name
                assert analytic.cold_misses()[name] == ref_cold[name], name
            for capacity in CAPACITIES:
                assert analytic.miss_counts(capacity) == per_container_misses(
                    result.events, memory, CacheModel(LINE, capacity)
                )
            assert engine_distance_lists(analytic) == ref_lists
            folded.append(analytic.analytic_regions)
            late.extend(
                summary.late for summary in analytic._summaries if summary.kind == "folded"
            )

        check()
        assert any(folded)
        assert any(late)
