"""The benchmark's contract: workloads, metric names, units and links.

``BENCHMARK.json`` at the repository root mirrors this file (a test
checks that they agree).  Its schema has no room for a workload's loop
type or for which end-to-end metric a layer metric should move, so those
live here and in the report.

End-to-end metrics are emitted by every workload, so each has one
meaning per workload (:data:`E2E`).  The headline names each workload
also prints (``view_update_p90_ms``, ``serve_p95_ms.r40`` …) are listed
in :data:`NAMED`.
"""

from __future__ import annotations

#: name → (loop, load, why)
WORKLOADS = {
    "interactive_hdiff": (
        "closed",
        "1 simulated user",
        "the paper's slider loop on hdiff plus three manual transforms and a tune:"
        " fold, pass store, viz, transforms and fingerprints work; pool and serve idle",
    ),
    "sweep_enumerated": (
        "closed",
        "1 caller, workers=nproc",
        "BERT/CLOUDSC grids the analytic engine must enumerate, each re-swept at two"
        " capacities: simulation, stack distances and the executor/pool work; fold idle",
    ),
    "serve_mixed": (
        "open",
        "10, 20, 40 req/s over 2 keep-alive connections",
        "repro serve under distinct, repeated, heatmap and sweep requests: HTTP,"
        " admission, coalescing, ETags, disk tier and the session lock work",
    ),
}

#: name → (unit, better, bound, {workload: meaning}).  Every time here
#: is CPU-bound and follows the machine's speed, which drifts by tens of
#: percent within seconds on a shared host.  Work that runs one
#: operation at a time on one CPU (the interactive loop, in-process
#: set-ups, the serve probe, serial sweeps) is reported *at reference
#: speed*, scaled by ``bench_common.Gauge`` (by its array part for the
#: NumPy-heavy sweeps); pooled sweeps and the server's start-up did not
#: follow the reference in ten-seed trials and are reported raw.  The bounds sit just under the 0.25
#: allowed, with set-up time given the largest.
E2E = {
    "setup_s": ("s", "lower", 0.25, {
        "interactive_hdiff": "load hdiff from source to a ready Session, median of 8 spread"
        " over the run, at reference speed",
        "sweep_enumerated": "load BERT from source and build CLOUDSC, two Sessions, median"
        " of 3 + one per cycle, at reference speed",
        "serve_mixed": "spawn `repro serve` to the first healthz 200, median of 5",
    }),
    "peak_rss_mb": ("MB", "lower", 0.15, {
        "interactive_hdiff": "peak RSS of the process",
        "sweep_enumerated": "peak RSS of the process plus its largest pool worker",
        "serve_mixed": "peak RSS of the server process",
    }),
    "cold_ms": ("ms", "lower", 0.24, {
        "interactive_hdiff": "median view update at a new slider point, at reference speed",
        "sweep_enumerated": "first sweep of new points: time per point (serial sweeps at"
        " reference speed), median over cycles per program, mean of the programs",
        "serve_mixed": "probe: median latency of a distinct /v1/local/view with nothing else"
        " in flight, at reference speed",
    }),
    "warm_ms": ("ms", "lower", 0.24, {
        "interactive_hdiff": "median view update after a capacity change or revisit,"
        " at reference speed",
        "sweep_enumerated": "re-sweep at another capacity: time per point (serial sweeps at"
        " reference speed), median over cycles per (program, capacity), mean of the pairs",
        "serve_mixed": "probe: median latency of a repeated view (200) with nothing else"
        " in flight, at reference speed",
    }),
    "work_per_s": ("1/s", "higher", 0.24, {
        "interactive_hdiff": "candidates scored per second by the closing Session.tune,"
        " at reference speed",
        "sweep_enumerated": "grid points per second over all sweeps (serial ones at"
        " reference speed)",
        "serve_mixed": "probe: requests answered per second of latency, at reference speed",
    }),
}

#: Headline end-to-end names printed in each workload's report.
NAMED = {
    "interactive_hdiff": (
        "setup_s", "peak_rss_mb", "failed_ratio",
        "view_update_p50_ms", "view_update_p90_ms", "tune_s",
    ),
    "sweep_enumerated": (
        "setup_s", "peak_rss_mb", "failed_ratio",
        "sweep_points_per_s", "resweep_points_per_s",
    ),
    "serve_mixed": (
        "setup_s", "peak_rss_mb", "failed_ratio",
        "serve_p50_ms.r10", "serve_p95_ms.r10", "serve_p50_ms.r20",
        "serve_p95_ms.r20", "serve_p50_ms.r40", "serve_p95_ms.r40", "serve_max_rps",
    ),
}

_I, _S, _V = "interactive_hdiff", "sweep_enumerated", "serve_mixed"
PASS_PRODUCTS = (
    "local.analytic", "local.trace", "local.layout", "local.stackdist",
    "local.classify", "local.point", "global.movement.eval", "global.totals",
)

#: Per-layer metric → (unit, better, layer, moves).  *moves* names the
#: end-to-end metric (headline name) and workload the layer should move.
LAYERS: dict[str, tuple[str, str, str, str]] = {
    "frontend.to_sdfg_ms": ("ms", "lower", "frontend", f"setup_s ({_I}, {_S}, {_V})"),
    "sdfg.fingerprint_calls": ("count", "lower", "sdfg", f"tune_s ({_I}); serve_p50_ms.* ({_V})"),
    "sdfg.fingerprint_ms": ("ms", "lower", "sdfg", f"tune_s ({_I}); serve_p50_ms.* ({_V})"),
    "sdfg.copy_ms": ("ms", "lower", "sdfg", f"tune_s, post-transform views ({_I})"),
    "transforms.apply_calls": ("count", "lower", "transforms", f"tune_s ({_I})"),
    "transforms.apply_ms": ("ms", "lower", "transforms", f"tune_s ({_I})"),
    "tuning.candidates": ("count", "lower", "tuning", f"tune_s ({_I})"),
    "tuning.dedup_ratio": ("ratio", "higher", "tuning", f"tune_s ({_I})"),
    "tuning.pass_hit_ratio": ("ratio", "higher", "tuning", f"tune_s ({_I})"),
}
for _product in PASS_PRODUCTS:
    _moves = (
        f"view_update_p50_ms ({_I}); resweep_points_per_s ({_S}); serve_p50_ms.* ({_V})"
    )
    LAYERS[f"passes.{_product}.runs"] = ("count", "lower", "passes", _moves)
    LAYERS[f"passes.{_product}.hits"] = ("count", "higher", "passes", _moves)
    LAYERS[f"passes.{_product}.self_ms"] = ("ms", "lower", "passes", _moves)
LAYERS.update({
    "passes.key_ms": ("ms", "lower", "passes", f"view_update_p50_ms ({_I}); serve_p50_ms.* ({_V})"),
    "passes.store_hit_ratio": ("ratio", "higher", "passes", f"view_update_p50_ms ({_I}); resweep_points_per_s ({_S})"),
    "locality.analyze_ms": ("ms", "lower", "locality", f"view_update_p90_ms ({_I}); sweep_points_per_s ({_S})"),
    "locality.fold_ms": ("ms", "lower", "locality", f"view_update_p90_ms ({_I})"),
    "locality.folded_regions": ("count", "higher", "locality", f"view_update_p90_ms ({_I})"),
    "locality.enumerated_regions": ("count", "lower", "locality", f"sweep_points_per_s ({_S})"),
    "simulation.region_ms": ("ms", "lower", "simulation", f"sweep_points_per_s ({_S}); tune_s ({_I})"),
    "simulation.simulate_ms": ("ms", "lower", "simulation", f"sweep_points_per_s ({_S}); tune_s ({_I})"),
    "simulation.layout_ms": ("ms", "lower", "simulation", f"sweep_points_per_s ({_S}); tune_s ({_I})"),
    "simulation.stackdist_ms": ("ms", "lower", "simulation", f"sweep_points_per_s ({_S}); tune_s ({_I})"),
    "simulation.events": ("count", "lower", "simulation", f"sweep_points_per_s ({_S}); tune_s ({_I})"),
    "symbolic.compile_ms": ("ms", "lower", "symbolic", f"serve_p50_ms.* heatmap share ({_V})"),
    "symbolic.eval_ms": ("ms", "lower", "symbolic", f"serve_p50_ms.* heatmap share ({_V})"),
    "executor.run_ms": ("ms", "lower", "analysis", f"sweep_points_per_s, resweep_points_per_s ({_S})"),
    "executor.pool_chosen": ("count", "lower", "analysis", f"sweep_points_per_s, resweep_points_per_s ({_S})"),
    "executor.pool_spawns": ("count", "lower", "analysis", f"sweep_points_per_s, resweep_points_per_s ({_S})"),
    "executor.serial_fallbacks": ("count", "lower", "analysis", f"sweep_points_per_s ({_S})"),
    "executor.overhead_ms": ("ms", "lower", "analysis", f"sweep_points_per_s, resweep_points_per_s ({_S})"),
    "storage.disk_get_ms": ("ms", "lower", "storage", f"serve_p95_ms.* ({_V})"),
    "storage.disk_put_ms": ("ms", "lower", "storage", f"serve_p95_ms.* ({_V})"),
    "storage.disk_hit_ratio": ("ratio", "higher", "storage", f"serve_p95_ms.* ({_V})"),
    "storage.io_errors": ("count", "lower", "storage", f"serve_p95_ms.*, failed_ratio ({_V})"),
    "session.sim_cache_hit_ratio": ("ratio", "higher", "tool", f"view_update_p50_ms ({_I})"),
    "viz.render_ms": ("ms", "lower", "viz", f"view_update_p50_ms ({_I}); serve_p50_ms.* SVG share ({_V})"),
    "viz.svg_bytes": ("count", "lower", "viz", f"view_update_p50_ms ({_I})"),
    "serve.server_ms": ("ms", "lower", "serve", f"serve_p95_ms.r40, serve_max_rps ({_V})"),
    "serve.eval_ms": ("ms", "lower", "serve", f"serve_p95_ms.r40, serve_max_rps ({_V})"),
    "serve.wait_ms": ("ms", "lower", "serve", f"serve_p95_ms.r40, serve_max_rps ({_V})"),
    "serve.client_overhead_ms": ("ms", "lower", "serve", f"serve_p50_ms.* ({_V})"),
    "serve.coalesce_joined_ratio": ("ratio", "higher", "serve", f"serve_p95_ms.r40 ({_V})"),
    "serve.etag_304_ratio": ("ratio", "higher", "serve", f"serve_p50_ms.* ({_V})"),
    "serve.gen_late_ms": ("ms", "lower", "serve", f"serve_max_rps ({_V})"),
    "resilience.admission_wait_ms": ("ms", "lower", "resilience", f"serve_max_rps, failed_ratio ({_V})"),
    "resilience.shed_ratio": ("ratio", "lower", "resilience", f"serve_max_rps, failed_ratio ({_V})"),
    "resilience.breaker_opens": ("count", "lower", "resilience", f"failed_ratio ({_V})"),
    "obs.spans_retained": ("count", "lower", "obs", f"peak_rss_mb ({_I}, {_S}, {_V})"),
})

#: Per-layer metrics of the result line: those every workload exercises.
#: A traced run reports every metric listed, and one whose layer a
#: workload leaves idle would read 0 on every run of that workload, a
#: constant; the rule is the same for times, counts and ratios.  The
#: report prints every metric of :data:`LAYERS`, marking the idle ones
#: "not observed" (viz, storage, serve, tuning and transforms among them).
JSON_LAYERS = (
    "frontend.to_sdfg_ms",
    "sdfg.fingerprint_calls", "sdfg.fingerprint_ms", "sdfg.copy_ms",
    "passes.local.analytic.runs", "passes.local.analytic.hits", "passes.local.analytic.self_ms",
    "passes.local.classify.runs", "passes.local.classify.hits", "passes.local.classify.self_ms",
    "passes.local.point.runs", "passes.local.point.self_ms",
    "passes.key_ms", "passes.store_hit_ratio",
    "locality.analyze_ms", "locality.enumerated_regions",
    "simulation.region_ms", "simulation.layout_ms", "simulation.stackdist_ms",
    "simulation.events",
    "executor.run_ms", "executor.overhead_ms",
    "obs.spans_retained",
)

RUN_SECONDS = 24


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": f"{loop} loop, {load}: {why}"}
            for name, (loop, load, why) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _) in E2E.items()
        ],
        "per_layer": [
            {"name": name, "unit": LAYERS[name][0], "better": LAYERS[name][1]}
            for name in JSON_LAYERS
        ],
    }


if __name__ == "__main__":
    import json
    import sys

    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
