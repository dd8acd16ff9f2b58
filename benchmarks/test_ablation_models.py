"""Ablations of the paper's modeling choices.

1. **Fully-associative assumption** (Section V-F): conflict misses are not
   counted, citing McKinley & Temam / Beyls & D'Hollander that capacity
   dominates.  We quantify it: on the case-study traces, the threshold
   model's miss count is compared against exact set-associative caches of
   the same capacity — the conflict share must be a small fraction.
2. **Olken/Fenwick stack distances**: the O(N log N) algorithm against the
   textbook O(N²) definition — the design choice that keeps the local
   view interactive — with the array kernel that production runs
   (``stack_distances_array``) timed on the same trace and checked
   against both.
3. **Green-yellow-red color scale** (Section IV-C): the inserted yellow
   mid-stop must yield more distinguishable colors on clustered
   mid-range distributions than the plain green-red ramp.
"""

import numpy as np

from repro.apps import hdiff, linalg
from repro.simulation import count_three_way, simulate_lru
from repro.simulation.stackdist import (
    line_trace,
    stack_distances,
    stack_distances_array,
    stack_distances_bruteforce,
)
from repro.tool import Session
from repro.viz.color import GREEN_RED, GREEN_YELLOW_RED
from repro.viz.heatmap import Heatmap

from conftest import print_table


def _case_study_lines():
    """Interleaved cache-line traces of the two case-study kernels."""
    traces = {}
    session = Session(hdiff.build_sdfg())
    lv = session.local_view(hdiff.LOCAL_VIEW_SIZES, line_size=64)
    traces["hdiff (1/32 scale)"] = line_trace(lv.result.events, lv.memory)
    session = Session(linalg.build_fig5_matmul())
    lv = session.local_view({"I": 9, "K": 10, "J": 15}, line_size=64)
    traces["matmul 9x10x15"] = line_trace(lv.result.events, lv.memory)
    return traces


def test_ablation_full_associativity(benchmark):
    """When is the fully-associative assumption safe?

    The paper (Section V-F, citing McKinley & Temam and Beyls &
    D'Hollander) assumes conflicts are a minority.  The sweep below shows
    the regime-dependence on the hdiff stencil trace: with a *starved*
    cache and low associativity the regular stencil strides conflict
    heavily, but as soon as capacity/associativity reach realistic values
    the conflict share collapses to zero and the fully-associative
    estimate becomes exact — the regime the paper's threshold model (and
    its user-adjustable threshold) targets.
    """
    traces = _case_study_lines()
    lines = traces["hdiff (1/32 scale)"]
    configs = [(8, 2), (16, 2), (16, 4), (32, 4)]

    def classify_all():
        return {cfg: count_three_way(lines, *cfg) for cfg in configs}

    results = benchmark(classify_all)
    rows = []
    shares = []
    for (sets, ways), counts in results.items():
        capacity_lines = sets * ways
        fa_misses = sum(simulate_lru(lines, capacity_lines))
        share = counts.conflict / counts.misses if counts.misses else 0.0
        shares.append(share)
        rows.append([
            f"{sets} sets x {ways} ways", counts.cold, counts.capacity,
            counts.conflict, f"{share:.1%}", fa_misses,
        ])
    print_table(
        "Ablation: conflict share vs cache configuration (hdiff trace)",
        ["configuration", "cold", "capacity", "conflict", "conflict share",
         "FA-model misses"],
        rows,
    )
    # The share decreases monotonically along the sweep and reaches zero —
    # at which point the fully-associative model is exact.
    assert all(a >= b - 1e-12 for a, b in zip(shares, shares[1:]))
    assert shares[-1] == 0.0
    last_counts = results[configs[-1]]
    assert last_counts.misses == sum(simulate_lru(lines, configs[-1][0] * configs[-1][1]))

    # The matmul trace conflicts barely at all even when small.
    mm = count_three_way(traces["matmul 9x10x15"], 4, 4)
    assert mm.conflict <= 0.05 * len(traces["matmul 9x10x15"])


def test_ablation_stackdist_algorithms(benchmark):
    """Fenwick-tree stack distances match brute force and scale better;
    the array kernel matches both."""
    rng = np.random.default_rng(11)
    lines = list(rng.integers(0, 64, size=4000))

    fast = benchmark(stack_distances, lines)

    import time

    t0 = time.perf_counter()
    slow = stack_distances_bruteforce(lines)
    brute_time = time.perf_counter() - t0
    assert fast == slow
    fast_time = benchmark.stats.stats.median

    array_lines = np.asarray(lines, dtype=np.int64)
    array_times = []
    for _ in range(5):
        t0 = time.perf_counter()
        array = stack_distances_array(array_lines)
        array_times.append(time.perf_counter() - t0)
    assert array.tolist() == fast == slow
    array_time = min(array_times)
    print_table(
        "Ablation: stack-distance algorithms (4000-access trace)",
        ["algorithm", "time [ms]"],
        [["Olken/Fenwick (O(N log N))", f"{fast_time * 1e3:.2f}"],
         ["array kernel (NumPy, O(N log N))", f"{array_time * 1e3:.2f}"],
         ["brute force (O(N^2))", f"{brute_time * 1e3:.2f}"]],
    )
    assert fast_time < brute_time


def test_ablation_color_scale_separation(benchmark):
    """The yellow mid-stop separates clustered mid-range values."""
    # Values clustered around the middle of the scale.
    values = {i: 40.0 + i for i in range(20)}

    def perceptual_spread(scale):
        hm = Heatmap(values, method="linear", colors=scale)
        colors = [hm.color(k) for k in sorted(values)]
        # Sum of channel-space distances between consecutive colors: how
        # much visual change the ramp spends on this value range.
        total = 0.0
        for a, b in zip(colors, colors[1:]):
            total += abs(a.r - b.r) + abs(a.g - b.g) + abs(a.b - b.b)
        return total

    def measure():
        return perceptual_spread(GREEN_YELLOW_RED), perceptual_spread(GREEN_RED)

    gyr, gr = benchmark(measure)
    print_table(
        "Ablation: color-ramp spread over clustered mid-range values",
        ["scale", "channel-space spread"],
        [["green-yellow-red", f"{gyr:.0f}"], ["green-red", f"{gr:.0f}"]],
    )
    assert gyr > gr
