"""Object pipeline vs. array-native pipeline on the hdiff local view.

The tentpole acceptance row: carrying NumPy arrays end to end through
layout → stack distances → miss classification → aggregation must beat
the per-event object pipeline by >= 5x on the hdiff local view, with
exactly equal results.  A second benchmark records the parametric-sweep
fan-out: a worker-pool sweep over an 8-point grid must not lose to the
serial loop (and must beat it when the machine has >1 core) — and the
adaptive executor must refuse the pool whenever it cannot win.  A third
records the compiled batched expression engine: evaluating the symbolic
movement product over a 64-point grid through ``ParameterSweep``'s grid
path, one batched call per metric, must beat the per-point tree
interpreter by >= 1.5x.

A fourth row records the analytic locality engine: closed-form reuse
distances must beat trace enumeration by >= 50x on the largest common
hdiff size, with exactly equal miss counts, and must complete a
production-size local view (>= 10^6 heatmap elements) that enumeration
cannot touch.  A fifth records a serial and a pooled sweep over a
100-point grid, which must agree.  Sweeps run ``Session.sweep`` on a fresh session per repeat — the
production path, whose pool workers ship each point's analytic product
home — so no repeat is a store hit.

Results are written to ``BENCH_localview.json`` at the repository root.
"""

import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis.parametric import parameter_grid
from repro.apps import hdiff
from repro.simulation import (
    CacheModel,
    MemoryModel,
    build_array_trace,
    element_stack_distances,
    per_container_misses,
    per_container_misses_array,
    per_element_misses,
    per_element_misses_array,
    simulate_state,
    stack_distances,
    stack_distances_array,
)
from repro.simulation.arrays import element_distance_lists
from repro.simulation.stackdist import line_trace
from repro.tool.session import Session

from conftest import print_table

BENCH_JSON = Path(__file__).parent.parent / "BENCH_localview.json"

SIZES = [
    ("paper local view", hdiff.LOCAL_VIEW_SIZES),
    ("2x per axis", {"I": 16, "J": 16, "K": 8}),
]

SWEEP_GRID = parameter_grid({"I": [6, 8, 10, 12], "J": [6, 10], "K": [5]})


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def _record(payload):
    existing = {}
    if BENCH_JSON.exists():
        existing = json.loads(BENCH_JSON.read_text())
    existing.update(payload)
    BENCH_JSON.write_text(json.dumps(existing, indent=2) + "\n")


def test_array_pipeline_speedup():
    sdfg = hdiff.build_sdfg()
    model = CacheModel(line_size=64, capacity_lines=512)
    rows, speedups, record = [], {}, {}
    for label, sizes in SIZES:
        result = simulate_state(sdfg, sizes, fast=True)
        memory = MemoryModel(sdfg, sizes, line_size=64)
        events = result.events  # materialize outside the timed region

        def object_pipeline():
            distances = stack_distances(line_trace(events, memory))
            return (
                per_container_misses(events, memory, model, distances),
                per_element_misses(events, memory, model, "out_field", distances),
                element_stack_distances(events, memory, distances=distances),
            )

        def array_pipeline():
            trace = build_array_trace(result, memory)
            distances = stack_distances_array(trace.lines)
            return (
                per_container_misses_array(trace, distances, model),
                per_element_misses_array(trace, distances, model, "out_field"),
                element_distance_lists(trace, distances),
            )

        t_obj, ref = _best_of(object_pipeline)
        t_arr, out = _best_of(array_pipeline)
        assert out == ref, f"array pipeline diverges at {label}"
        speedups[label] = t_obj / t_arr
        record[label] = {
            "events": result.num_events,
            "object_ms": round(t_obj * 1e3, 3),
            "array_ms": round(t_arr * 1e3, 3),
            "speedup": round(speedups[label], 2),
        }
        rows.append(
            [
                label,
                result.num_events,
                f"{t_obj * 1e3:.1f}",
                f"{t_arr * 1e3:.1f}",
                f"{speedups[label]:.1f}x",
            ]
        )
    print_table(
        "hdiff local view: object pipeline vs. array pipeline",
        ["size", "events", "object [ms]", "array [ms]", "speedup"],
        rows,
    )
    _record({"localview_pipeline": record})
    if os.environ.get("REPRO_BENCH_RELAXED", "0") == "1":
        # CI floor: the array pipeline must never lose to the object one
        # (shared runners are too noisy for the full bar).
        assert min(speedups.values()) >= 1.0, speedups
    else:
        # The acceptance bar: >= 5x on the hdiff local view.
        assert max(speedups.values()) >= 5.0, speedups
        assert min(speedups.values()) >= 3.0, speedups


def _sweep(sdfg, grid, **options):
    """A cold ``Session.sweep``: a fresh session, so nothing is stored."""
    return Session(sdfg).sweep(grid, **options)


def test_sweep_scaling():
    sdfg = hdiff.build_sdfg()
    _sweep(sdfg, SWEEP_GRID[:1], adaptive=False)  # warm up
    t_serial, serial = _best_of(
        lambda: _sweep(sdfg, SWEEP_GRID, adaptive=False), repeats=2
    )
    t_par, parallel = _best_of(
        lambda: _sweep(sdfg, SWEEP_GRID, workers=4, adaptive=False), repeats=2
    )
    t_adapt, adaptive = _best_of(
        lambda: _sweep(sdfg, SWEEP_GRID, workers=4, adaptive=True),
        repeats=2,
    )
    assert parallel == serial
    assert adaptive == serial
    cores = os.cpu_count() or 1
    print_table(
        f"hdiff parametric sweep, {len(SWEEP_GRID)} points ({cores} cores)",
        ["mode", "total [ms]", "per point [ms]"],
        [
            ["serial", f"{t_serial * 1e3:.1f}", f"{t_serial / len(SWEEP_GRID) * 1e3:.1f}"],
            ["4 workers", f"{t_par * 1e3:.1f}", f"{t_par / len(SWEEP_GRID) * 1e3:.1f}"],
            ["adaptive", f"{t_adapt * 1e3:.1f}", f"{t_adapt / len(SWEEP_GRID) * 1e3:.1f}"],
        ],
    )
    _record(
        {
            "sweep_8pt": {
                "points": len(SWEEP_GRID),
                "cores": cores,
                "serial_ms": round(t_serial * 1e3, 3),
                "workers4_ms": round(t_par * 1e3, 3),
                "adaptive_ms": round(t_adapt * 1e3, 3),
                "speedup": round(t_serial / t_par, 2),
                "adaptive_speedup": round(t_serial / t_adapt, 2),
            }
        }
    )
    if cores >= 2:
        # Fan-out must win once there is real parallelism to exploit.
        assert t_par < t_serial, (t_par, t_serial)
    # The adaptive executor never loses meaningfully to the serial loop:
    # on few cores it measures one point and refuses the pool, on many
    # cores it pools only when the cost model predicts a win.  15% slack
    # absorbs timer noise on the cheap grid.
    assert t_adapt <= t_serial * 1.15, (t_adapt, t_serial)


def test_grid_eval_speedup():
    """Batched compiled evaluation vs per-point tree interpretation."""
    from repro.analysis.movement import edge_movement_bytes
    from repro.analysis.parametric import ParameterSweep, evaluate_metrics
    from repro.symbolic.compiled import clear_compile_cache

    sdfg = hdiff.build_sdfg()
    state = next(iter(sdfg.states()))
    product = edge_movement_bytes(sdfg, state, unique=True)
    envs = parameter_grid(
        {"I": [8, 16, 24, 32], "J": [8, 16, 24, 32], "K": [2, 4, 6, 8]}
    )
    assert len(envs) == 64

    sweeper = ParameterSweep(envs[0])

    def batched():
        # ParameterSweep's grid path, once per metric.
        return {key: sweeper._eval_grid(expr, envs) for key, expr in product.items()}

    clear_compile_cache()
    batched()  # compile once, outside timing

    # Each side produces its natural shape: rows of per-env dicts for
    # the interpreter, one column per metric for the compiled engine
    # (the form ParameterSweep uses directly).
    def per_point():
        return [evaluate_metrics(product, env) for env in envs]

    t_tree, ref = _best_of(per_point, repeats=5)
    t_comp, grid = _best_of(batched, repeats=5)
    out = [
        {key: values[i] for key, values in grid.items()}
        for i in range(len(envs))
    ]
    assert out == ref, "compiled grid evaluation diverges from the interpreter"
    speedup = t_tree / t_comp
    print_table(
        f"hdiff movement product, {len(envs)}-point grid, "
        f"{len(product)} metrics",
        ["mode", "total [ms]", "speedup"],
        [
            ["per-point interpreter", f"{t_tree * 1e3:.2f}", "1.0x"],
            ["compiled batch", f"{t_comp * 1e3:.2f}", f"{speedup:.1f}x"],
        ],
    )
    _record(
        {
            "grid_eval_64pt": {
                "points": len(envs),
                "metrics": len(product),
                "per_point_ms": round(t_tree * 1e3, 3),
                "batched_ms": round(t_comp * 1e3, 3),
                "speedup": round(speedup, 2),
            }
        }
    )
    if os.environ.get("REPRO_BENCH_RELAXED", "0") == "1":
        assert speedup >= 1.0, speedup
    else:
        # Acceptance bar: batched grid eval >= 1.5x over per-point eval.
        assert speedup >= 1.5, speedup


@pytest.mark.parametrize(
    "steps", [0, 1, 3], ids=["original", "reshaped", "reshaped-reordered-padded"]
)
def test_analytic_locality_speedup(steps):
    """Closed-form reuse distances vs. trace enumeration on hdiff, and
    after the first *steps* of its tuning (reshape, reorder, pad).  Only
    the original program carries the speedup bar and is recorded; on
    the transformed ones the engine must equal enumeration and fold."""
    from repro.locality import analyze_locality

    sdfg = hdiff.build_sdfg()
    for step in (hdiff.apply_reshape, hdiff.apply_reorder, hdiff.apply_padding)[:steps]:
        step(sdfg)
    model = CacheModel(line_size=64, capacity_lines=512)
    relaxed = os.environ.get("REPRO_BENCH_RELAXED", "0") == "1"
    # The largest size both sides can evaluate: enumeration needs the
    # whole trace in memory and a stack-distance pass over it.  CI
    # runners get a smaller common size; the bar scales accordingly.
    common = (
        {"I": 64, "J": 32, "K": 16} if relaxed else {"I": 256, "J": 64, "K": 32}
    )

    def enumeration():
        result = simulate_state(sdfg, common, fast=True)
        memory = MemoryModel(sdfg, common, line_size=64)
        trace = build_array_trace(result, memory)
        distances = stack_distances_array(trace.lines)
        return trace.num_events, per_container_misses_array(
            trace, distances, model
        )

    def analytic():
        product = analyze_locality(sdfg, common)
        return product.total_events, product.miss_counts(model.capacity_lines)

    t_enum, (events, ref) = _best_of(enumeration, repeats=1)
    t_analytic, (total, counts) = _best_of(analytic, repeats=1)
    assert total == events
    assert counts == ref, "analytic engine diverges from enumeration"
    speedup = t_enum / t_analytic

    # Production demo: a size enumeration cannot reach interactively —
    # 75.5M accesses, a 2.2M-element in_field heatmap — analytic only.
    production = {"I": 1024, "J": 64, "K": 32}
    if relaxed:
        production = {"I": 256, "J": 32, "K": 16}
    t_prod, product = _best_of(
        lambda: analyze_locality(sdfg, production), repeats=1
    )
    assert product.analytic_regions >= 1, "fold must engage at scale"
    heatmap = product.per_element_misses("in_field", model.capacity_lines)
    if not relaxed:
        assert len(heatmap) >= 10**6, "production heatmap must be full-size"

    print_table(
        f"hdiff local view ({steps} tuning steps): trace enumeration vs. "
        "analytic engine",
        ["size", "events", "enum [ms]", "analytic [ms]", "speedup"],
        [
            [
                "common",
                events,
                f"{t_enum * 1e3:.0f}",
                f"{t_analytic * 1e3:.0f}",
                f"{speedup:.0f}x",
            ],
            [
                "production",
                product.total_events,
                "(intractable)",
                f"{t_prod * 1e3:.0f}",
                "-",
            ],
        ],
    )
    if steps:
        return
    _record(
        {
            "localview_analytic": {
                "common_sizes": common,
                "events": events,
                "enumeration_ms": round(t_enum * 1e3, 3),
                "analytic_ms": round(t_analytic * 1e3, 3),
                "speedup": round(speedup, 2),
                "production_sizes": production,
                "production_events": product.total_events,
                "production_heatmap_elements": len(heatmap),
                "production_analytic_ms": round(t_prod * 1e3, 3),
            }
        }
    )
    if relaxed:
        # CI floor: the engine must still win clearly at the small size.
        assert speedup >= 3.0, speedup
    else:
        # Acceptance bar: >= 50x at the largest common size.
        assert speedup >= 50.0, speedup


def test_sweep_100pt():
    """A pooled 100-point grid equals the serial one; both are timed."""
    grid = parameter_grid(
        {
            "I": [6, 8, 10, 12, 14, 16, 18, 20, 22, 24],
            "J": [6, 8, 10, 12, 14],
            "K": [4, 6],
        }
    )
    assert len(grid) == 100
    sdfg = hdiff.build_sdfg()
    _sweep(sdfg, grid[:1], adaptive=False)  # warm up
    t_serial, serial = _best_of(
        lambda: _sweep(sdfg, grid, adaptive=False), repeats=2
    )
    t_pool, pooled = _best_of(
        lambda: _sweep(sdfg, grid, workers=4, adaptive=False), repeats=2
    )
    assert pooled == serial
    cores = os.cpu_count() or 1
    print_table(
        f"hdiff parametric sweep, {len(grid)} points ({cores} cores)",
        ["mode", "total [ms]", "per point [ms]"],
        [
            ["serial", f"{t_serial * 1e3:.1f}", f"{t_serial / len(grid) * 1e3:.2f}"],
            ["4 workers", f"{t_pool * 1e3:.1f}", f"{t_pool / len(grid) * 1e3:.2f}"],
        ],
    )
    _record(
        {
            "sweep_100pt": {
                "points": len(grid),
                "cores": cores,
                "serial_ms": round(t_serial * 1e3, 3),
                "pool_ms": round(t_pool * 1e3, 3),
            }
        }
    )
