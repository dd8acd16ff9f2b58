"""The repository benchmark: one command, three workloads, checked outputs.

Run one workload (what ``BENCHMARK.json`` describes)::

    python3 perfbench/run.py --workload interactive_hdiff --seed 1 --seconds 20 --trace 0

or all three, untraced and traced, with the tracing overhead::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The report goes to standard output; its last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, measured
with tracing off; with ``--trace 1`` a separate traced run wraps each
layer's public entry points (``bench_trace.py``) and the metrics are the
per-layer metrics.  Any output that differs from its expected value
(``perfbench/expected``) makes the run exit non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402
from bench_common import (  # noqa: E402
    OUT,
    ROOT,
    BenchError,
    bootstrap,
    sample_line,
    stamp,
)

EXIT_MISMATCH = 1
EXIT_ERROR = 2
HASH_SEED = "0"


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def workload_module(name: str):
    if name == "interactive_hdiff":
        import wl_interactive as module
    elif name == "sweep_enumerated":
        import wl_sweep as module
    elif name == "serve_mixed":
        import wl_serve as module
    else:
        raise BenchError(f"unknown workload {name!r}")
    return module


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, in_process: bool = False
) -> tuple[dict, dict]:
    """Run one workload; returns ``(outcome, per-layer values or {})``.
    *in_process* hosts an untraced ``serve_mixed`` server the way a
    traced run does (the baseline of its tracing overhead)."""
    import bench_trace

    module = workload_module(name)
    if not trace:
        if in_process and name == "serve_mixed":
            return module.run(seed, seconds, in_process=True), {}
        return module.run(seed, seconds), {}
    log = bench_trace.SpanLog()
    patcher = bench_trace.Patcher(log).install_all(serve_eval=name == "serve_mixed")
    try:
        outcome = module.run(seed, seconds, log=log)
    finally:
        patcher.restore()
    layers = bench_trace.layer_values(log, outcome)
    OUT.mkdir(exist_ok=True)
    log.dump(OUT / f"spans_{name}_{seed}.json")
    outcome["self_check"] = bench_trace.self_check(log, outcome["phase_wall_s"])
    return outcome, layers


def report(name: str, outcome: dict, layers: dict, info: dict) -> list[str]:
    lines = [f"# {name}  " + "  ".join(f"{k}={v}" for k, v in info.items())]
    loop, load, why = catalog.WORKLOADS[name]
    lines.append(f"# {loop} loop, {load}: {why}")
    lines.append("## end-to-end (headline names)")
    for metric in catalog.NAMED[name]:
        value, unit, count = outcome["named"][metric]
        lines.append(f"{metric:<24} {value:12.4f} {unit:<6} (n={count})")
    speed = outcome["speed"]
    lines.append(
        "## end-to-end (BENCHMARK.json names; raw = as measured"
        + (f"; machine speed {speed:.3f} of the reference machine)" if speed else ")")
    )
    for metric, value in outcome["e2e"].items():
        unit, _, _, meaning = catalog.E2E[metric]
        raw = outcome["raw"].get(metric, value)
        lines.append(f"{metric:<24} {value:12.4f} {unit:<6} raw {raw:12.4f}  {meaning[name]}")
    for kind, values in outcome.get("samples_ms", {}).items():
        if values:
            lines.append(sample_line(f"samples {kind}", values))
    lines.extend(outcome.get("notes", ()))
    if layers:
        lines.append("## per layer (traced run; self time over the run)")
        for metric, (unit, _, layer, moves) in catalog.LAYERS.items():
            value = layers[metric]
            observed = value != 0 or unit == "ratio"
            shown = f"{value:12.4f} {unit}" if observed else "not observed"
            lines.append(f"{layer:<10} {metric:<34} {shown:<22} -> {moves}")
        check = outcome["self_check"]
        lines.append(
            f"self times sum {check['self_s']:.4f} s = root spans {check['roots_s']:.4f} s;"
            f" traced phase wall {check['wall_s']:.4f} s (covered {check['coverage']:.3f})"
        )
    for mismatch in outcome["mismatches"]:
        lines.append(f"MISMATCH {mismatch}")
    return lines


def result_line(outcome: dict, metrics: dict, contract_metrics: list) -> str:
    out = {}
    for spec in contract_metrics:
        name = spec["name"]
        if name not in metrics:
            raise BenchError(f"metric {name} was not measured")
        out[name] = {"value": float(metrics[name]), "unit": spec["unit"]}
    return json.dumps(
        {
            "correct": not outcome["mismatches"],
            "attempted": int(outcome["attempted"]),
            "failed": int(outcome["failed"]),
            "metrics": out,
        }
    )


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced then traced, each in its own process, with
    the tracing overhead as the traced-minus-untraced raw ``cold_ms``.
    A traced ``serve_mixed`` hosts its server in-process, so its baseline
    is an extra untraced run hosted the same way."""
    status = 0
    for name in catalog.WORKLOADS:
        runs = [("untraced", 0, []), ("traced", 1, [])]
        if name == "serve_mixed":
            runs.insert(1, ("untraced in-process", 0, ["--in-process"]))
        cold = {}
        for label, trace, extra in runs:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace), *extra],
                capture_output=True, text=True, check=False, timeout=600,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = proc.returncode
                break
            match = re.search(r"^cold_ms\s.*\sraw\s+([0-9.]+)", proc.stdout, re.M)
            cold[label] = float(match.group(1))
        if len(cold) == len(runs):
            base = runs[-2][0]
            print(
                f"# {name}: tracing overhead {cold['traced'] - cold[base]:+.2f} ms on raw"
                f" cold_ms ({cold['traced']:.2f} traced, {cold[base]:.2f} {base})"
            )
    return status


def pin_hash_seed() -> None:
    """Re-execute with a fixed ``PYTHONHASHSEED``: set and dict orders then
    repeat from run to run, and so does the work that depends on them."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--in-process", action="store_true",
        help="host serve_mixed's server in this process, as a traced run does",
    )
    args = parser.parse_args(argv)
    try:
        contract = load_contract()
        bootstrap()
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        if args.workload not in catalog.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")
        trace = bool(args.trace)
        info = stamp(args.workload, args.seed, args.seconds, trace)
        started = time.perf_counter()
        outcome, layers = run_workload(
            args.workload, args.seed, args.seconds, trace, args.in_process
        )
        info["run_s"] = round(time.perf_counter() - started, 3)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for line in report(args.workload, outcome, layers, info):
        print(line)
    if outcome["mismatches"]:
        print(f"error: {len(outcome['mismatches'])} output mismatches", file=sys.stderr)
        return EXIT_MISMATCH
    metrics = layers if trace else outcome["e2e"]
    specs = contract["per_layer"] if trace else contract["end_to_end"]
    try:
        line = result_line(outcome, metrics, specs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(line)
    return 0


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
