"""Tests of the benchmark itself, in short mode (``--seconds 1``).

Run from the repository root::

    python3 -m pytest -q perfbench

The short runs still execute every workload end to end (about two
minutes in all); they check the contract, not performance.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_common  # noqa: E402
import bench_trace  # noqa: E402
import catalog  # noqa: E402
import expected  # noqa: E402

bench_common.bootstrap()

#: Traced self times must cover this share of the traced closed-loop
#: run's wall time (the rest is the benchmark's own checking between
#: operations).
COVERAGE_TOLERANCE = 0.10


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_cli(workload: str, trace: int, cwd: Path = ROOT, seconds: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the contract --------------------------------------------------------------
def test_benchmark_json_mirrors_catalog():
    spec = contract()
    assert spec == catalog.benchmark_json()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    for workload in spec["workloads"]:
        loop, load, why = catalog.WORKLOADS[workload["name"]]
        assert workload["why"].startswith(f"{loop} loop, {load}: ")
        assert len(workload["why"]) <= 200
    assert [m["name"] for m in spec["end_to_end"]] == list(catalog.E2E)
    for metric in spec["end_to_end"]:
        unit, better, bound, meanings = catalog.E2E[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == (unit, better, bound)
        assert set(meanings) == set(catalog.WORKLOADS)
    for metric in spec["per_layer"]:
        unit, better, _, _ = catalog.LAYERS[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload):
    spec = contract()
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run_cli(workload, trace)
        result = result_of(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in metrics
        }
        for name in catalog.NAMED[workload]:
            assert re.search(rf"^{re.escape(name)} .*\(n=\d+\)$", proc.stdout, re.M), name
        if trace:
            # Every per-layer metric appears in the report, observed or not,
            # and the result line lists only layers this workload exercises.
            for name in catalog.LAYERS:
                assert f" {name} " in proc.stdout, name
            idle = [n for n, m in result["metrics"].items() if m["value"] == 0]
            assert idle == []


def test_no_result_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            target = tmp_path / "perfbench" / path.relative_to(HERE)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(path, target)
    proc = run_cli("interactive_hdiff", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the correctness gate ------------------------------------------------------
def test_corrupted_expected_value_trips_the_gate(monkeypatch, capsys):
    import run

    real = expected.load

    def corrupted(name):
        table = real(name)
        table["tune_best_bytes"] += 64
        return table

    monkeypatch.setattr(expected, "load", corrupted)
    status = run.main(["--workload", "interactive_hdiff", "--seconds", "1"])
    out = capsys.readouterr().out
    assert status == run.EXIT_MISMATCH
    assert "MISMATCH tune best" in out
    assert '"correct"' not in out


def test_sweep_check_compares_every_container():
    table = expected.load("sweep_enumerated")["points"]
    params = expected.CLOUDSC_POINTS[0]
    want = table[expected.sweep_key("cloudsc", params, 8)]

    class Counts:
        def __init__(self, misses):
            self.misses = misses

    class Point:
        misses = {name: Counts(n) for name, n in want["misses"].items()}
        moved_bytes = dict(want["moved_bytes"])

    import wl_sweep

    assert wl_sweep.check("cloudsc", [Point()], [params], 8, table) == []
    Point.moved_bytes = {**want["moved_bytes"], "pt": want["moved_bytes"]["pt"] + 64}
    assert wl_sweep.check("cloudsc", [Point()], [params], 8, table)


# -- tracing -------------------------------------------------------------------
def test_self_times_partition_a_span_tree():
    log = bench_trace.SpanLog()
    log.spans = [
        (1, None, 1, "root", 0.0, 10.0),
        (2, 1, 1, "a", 1.0, 4.0),
        (3, 2, 1, "b", 2.0, 3.0),
        (4, 1, 1, "b", 5.0, 9.0),
    ]
    totals, counts = bench_trace.self_times(log.spans)
    assert totals == {"root": 3.0, "a": 2.0, "b": 5.0}
    assert counts == {"root": 1, "a": 1, "b": 2}
    assert sum(totals.values()) == bench_trace.root_seconds(log.spans)


def test_traced_self_times_sum_to_traced_wall_time():
    import run

    outcome, layers = run.run_workload("interactive_hdiff", 3, 1, trace=True)
    check = outcome["self_check"]
    assert check["self_s"] == pytest.approx(check["roots_s"], rel=1e-9)
    assert 1.0 - COVERAGE_TOLERANCE <= check["coverage"] <= 1.0 + 1e-6
    assert layers["viz.render_ms"] > 0 and layers["locality.fold_ms"] > 0
    assert layers["tuning.candidates"] == expected.TUNE_CANDIDATES


def test_pooled_work_feeds_only_the_executor_metrics():
    """Pool workers' counters never reach the parent, so compute layers
    come from the serial pass and executor figures from the pooled ops."""
    log = bench_trace.SpanLog()
    log.spans = [
        (1, None, 1, "op.sweep", 0.0, 4.0),
        (2, 1, 1, "executor.run", 0.0, 4.0),
        (3, 2, 1, "passes.local.point", 1.0, 2.0),
        (4, None, 4, "op.serial_pass", 5.0, 8.0),
        (5, 4, 4, "executor.run", 5.0, 8.0),
        (6, 5, 4, "passes.local.point", 5.0, 7.0),
    ]
    pooled = {
        "counters": {"pass.local.point.runs": 3, "sweep.pool_spawns": 1},
        "histograms": {"sweep.point_seconds": {"sum": 1.5}},
    }
    serial = {"counters": {"pass.local.point.runs": 8, "sweep.pool_spawns": 0}}
    values = bench_trace.layer_values(log, {
        "registries": [serial],
        "executor_registries": [pooled],
        "compute_ops": ("op.serial_pass",),
        "layers": {},
    })
    assert values["passes.local.point.runs"] == 8
    assert values["passes.local.point.self_ms"] == pytest.approx(2000.0)
    assert values["executor.pool_spawns"] == 1
    assert values["executor.run_ms"] == pytest.approx(3000.0)
    assert values["executor.overhead_ms"] == pytest.approx(2500.0)


def test_gauge_scales_by_the_reference_near_the_operation():
    gauge = bench_common.Gauge()
    interp, array = bench_common.REFERENCE_MS
    gauge.ticks = [
        (0.0, 2 * interp, 2 * array),
        (10.0, interp, array),
        (10.5, interp, array),
        (20.0, 2 * interp, 3 * array),
    ]
    # Ticks within the window around 10.1 .. 10.2 s: both at the
    # reference speed.
    assert gauge.scale(1.0, 10.1, 10.2) == pytest.approx(1.0)
    # None within the window: the nearest tick on either side.
    assert gauge.scale(1.0, 15.0, 16.0, bench_common.Gauge.ARRAY) == pytest.approx(0.5)
    assert gauge.speed() == pytest.approx(1 / 1.5)


def test_wrappers_are_removed_after_a_traced_run():
    from repro.passes.pipeline import Pipeline
    from repro.sdfg import serialize

    before = (Pipeline.run, serialize.state_fingerprint)
    patcher = bench_trace.Patcher(bench_trace.SpanLog()).install_all(serve_eval=True)
    assert Pipeline.run is not before[0]
    patcher.restore()
    assert (Pipeline.run, serialize.state_fingerprint) == before


# -- inputs ----------------------------------------------------------------------
def test_balanced_order_is_a_seeded_permutation_with_mixed_prefixes():
    items = list(range(40))
    one = bench_common.balanced_order(items, random.Random(1), lambda x: x)
    assert sorted(one) == items
    assert one == bench_common.balanced_order(items, random.Random(1), lambda x: x)
    assert one != bench_common.balanced_order(items, random.Random(2), lambda x: x)
    first = one[:8]
    assert sum(x < 20 for x in first) == sum(x >= 20 for x in first)


def test_workload_inputs_are_covered_by_expected_outputs():
    import wl_interactive

    views = expected.load("interactive_hdiff")["moved_bytes"]
    blocks = wl_interactive.MAX_BLOCKS
    for seed in (5, 6):
        trace = wl_interactive.SliderTrace(seed)
        for variant in range(expected.HDIFF_VARIANTS):
            kinds = trace.segment(blocks)
            # Every seed times the same mix of step kinds per variant.
            assert sorted(kinds) == sorted(wl_interactive.BLOCK * blocks)
            for kind in kinds:
                point, capacity = trace.step(kind)
                assert expected.hdiff_key(variant, point, capacity) in views
            trace.transformed()
    points = expected.load("sweep_enumerated")["points"]
    for app, space, capacities in (
        ("bert", expected.BERT_POINTS, expected.BERT_CAPACITIES),
        ("cloudsc", expected.CLOUDSC_POINTS, expected.CLOUDSC_CAPACITIES),
    ):
        for params in space:
            for capacity in capacities:
                assert expected.sweep_key(app, params, capacity) in points


def test_serve_mix_follows_the_block_pattern():
    import wl_serve

    requests = wl_serve.build_requests(3, 200)
    kinds = [r.kind for r in requests[40:]]
    assert kinds.count("sweep") == 16 and kinds.count("heatmap") == 32
    assert kinds.count("repeat") == 40 and kinds.count("view") == 72
    views = [r.path for r in requests if r.kind == "view"]
    assert len(views) == len(set(views))
    assert [r.path for r in wl_serve.build_requests(3, 50)] == [r.path for r in requests[:50]]


# -- lint ------------------------------------------------------------------------
def test_no_bare_or_blind_exception_handlers():
    """The repository's ruff rules (E722, BLE001) over the benchmark."""
    pattern = re.compile(r"except\s*:|except\s+(BaseException|Exception)\b")
    for path in HERE.glob("*.py"):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                assert "noqa: BLE001" in line, f"{path.name}:{number}: {line.strip()}"
