"""``repro-view``: generate an HTML analysis report from the command line.

Usage::

    repro-view path/to/module.py --function myprog \\
        --params I=256,J=256,K=160 --local I=8,J=8,K=5 \\
        --line-size 64 --capacity 512 -o report.html

The module is imported, the named ``@repro.program`` function (or the only
one, when unambiguous) is analyzed, and a report containing the global
view, per-container access heatmaps and physical-movement estimates is
written.

``repro-view serve MODULE`` instead starts the long-lived concurrent
analysis service (see :mod:`repro.serve`), exposing the same products
over HTTP.  ``repro-view tune MODULE`` runs the auto-tuning search over
transform sequences (see :mod:`repro.tool.tune_cli`).

Exit codes: ``0`` on success, ``1`` on a usage or analysis error, and
``3`` when the report was written but one or more ``--sweep`` points
failed (partial results).
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.frontend.program import Program
from repro.tool.session import Session

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-view",
        description="Data-movement analysis report generator",
    )
    parser.add_argument("module", help="Python file containing @repro.program functions")
    parser.add_argument("--function", help="program name (default: the only one)")
    parser.add_argument(
        "--params",
        default="",
        help="comma-separated SYMBOL=VALUE pairs for the global view",
    )
    parser.add_argument(
        "--local",
        default="",
        help="comma-separated SYMBOL=VALUE pairs enabling the local view",
    )
    parser.add_argument("--line-size", type=int, default=64, help="cache line bytes")
    parser.add_argument(
        "--capacity", type=int, default=512, help="modeled cache capacity in lines"
    )
    parser.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="sweep a local-view parameter over the listed values "
        "(repeatable; axes combine as a cross product on top of --local)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --sweep evaluation (default: serial)",
    )
    parser.add_argument(
        "--no-adaptive",
        action="store_true",
        help="always honour --workers instead of measuring the first sweep "
        "point and choosing serial when the pool cannot win",
    )
    parser.add_argument("-o", "--output", default="report.html", help="output HTML path")
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print per-stage wall-time spans of the analysis pipeline",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write the hierarchical span trace of the run as JSON to PATH",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write run metrics (counters/gauges/histograms) as JSON to PATH",
    )
    parser.add_argument(
        "--explain-cache",
        action="store_true",
        help="print the per-pass cache report (runs, hits, timings, and why "
        "each pass last recomputed)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist analysis results to this directory and reuse them "
        "across runs and processes (default: $REPRO_CACHE_DIR if set, "
        "else memory-only)",
    )
    return parser


def _parse_sweep_spec(items: list[str]) -> dict[str, list[int]]:
    spec: dict[str, list[int]] = {}
    for item in items:
        if "=" not in item:
            raise ReproError(
                f"invalid sweep axis {item!r} (use NAME=V1,V2,...)"
            )
        name, values = item.split("=", 1)
        try:
            spec[name.strip()] = [int(v) for v in values.split(",") if v.strip()]
        except ValueError as exc:
            raise ReproError(f"invalid sweep values in {item!r}: {exc}") from exc
        if not spec[name.strip()]:
            raise ReproError(f"sweep axis {item!r} lists no values")
    return spec


def _parse_env(text: str) -> dict[str, int]:
    env: dict[str, int] = {}
    if not text:
        return env
    for pair in text.split(","):
        if "=" not in pair:
            raise ReproError(f"invalid parameter assignment {pair!r} (use NAME=VALUE)")
        name, value = pair.split("=", 1)
        env[name.strip()] = int(value)
    return env


def _load_program(path: str, function: str | None) -> Program:
    file = Path(path)
    if not file.exists():
        raise ReproError(f"no such file: {path}")
    spec = importlib.util.spec_from_file_location(file.stem, file)
    if spec is None or spec.loader is None:
        raise ReproError(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    programs = {
        name: obj for name, obj in vars(module).items() if isinstance(obj, Program)
    }
    if not programs:
        raise ReproError(f"{path} defines no @repro.program functions")
    if function is not None:
        if function not in programs:
            raise ReproError(
                f"{path} has no program {function!r}; found {sorted(programs)}"
            )
        return programs[function]
    if len(programs) > 1:
        raise ReproError(
            f"{path} defines several programs ({sorted(programs)}); "
            "pick one with --function"
        )
    return next(iter(programs.values()))


#: Exit code when the report was produced but sweep points failed.
EXIT_SWEEP_FAILURES = 3


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # ``repro-view serve MODULE ...`` — the long-lived analysis
        # service (kept out of build_parser so the report-generator
        # interface is unchanged).
        from repro.serve.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "tune":
        # ``repro-view tune MODULE ...`` — auto-tuning search over
        # transform sequences (see :mod:`repro.tuning`).
        from repro.tool.tune_cli import main as tune_main

        return tune_main(argv[1:])
    args = build_parser().parse_args(argv)
    sweep_failures = 0
    try:
        program = _load_program(args.module, args.function)
        env = _parse_env(args.params)
        local_env = _parse_env(args.local)

        session = Session(program, cache_dir=args.cache_dir)
        report = session.report(f"Analysis of {program.name}")

        gv = session.global_view()
        report.add_heading("Global view")
        if env:
            report.add_svg(
                gv.render(env=env, edge_overlay="movement"),
                caption=f"logical data movement at {env}",
            )
            report.add_table(
                ["metric", "value"],
                [
                    ["total logical movement [bytes]", f"{gv.total_movement(env):.3g}"],
                    ["total arithmetic operations", f"{gv.total_ops(env):.3g}"],
                ],
            )
        else:
            report.add_svg(gv.render(), caption="program dataflow")
            report.add_paragraph(
                "Pass --params to evaluate the symbolic metrics and color "
                "the movement heatmap."
            )

        if local_env:
            lv = session.local_view(
                local_env,
                line_size=args.line_size,
                capacity_lines=args.capacity,
            )
            report.add_heading(f"Local view (parameterized at {local_env})")
            for data in lv.containers():
                counts = lv.access_heatmap(data)
                report.add_svg(
                    lv.render_container(data, values=dict(counts)),
                    caption=f"access counts on {data}",
                )
            moved = lv.physical_movement()
            misses = lv.miss_counts()
            report.add_table(
                ["container", "cold misses", "capacity misses", "est. moved bytes"],
                [
                    [name, misses[name].cold, misses[name].capacity, moved[name]]
                    for name in sorted(moved)
                ],
                caption=(
                    f"cache model: {args.line_size}-byte lines, "
                    f"{args.capacity}-line capacity"
                ),
            )

        if args.sweep:
            from repro.analysis.executor import SweepPointError
            from repro.analysis.parametric import parameter_grid

            spec = _parse_sweep_spec(args.sweep)
            grid = [
                {**local_env, **point} for point in parameter_grid(spec)
            ]
            run = session.sweep(
                grid,
                workers=args.workers,
                line_size=args.line_size,
                capacity_lines=args.capacity,
                on_error="record",
                adaptive=not args.no_adaptive,
            )
            rows = []
            for outcome in run.outcomes:
                label = ", ".join(f"{k}={v}" for k, v in (
                    outcome.params.items()
                ))
                if isinstance(outcome, SweepPointError):
                    rows.append([
                        label,
                        f"failed ({outcome.kind})",
                        outcome.message,
                        "",
                        "",
                    ])
                else:
                    rows.append([
                        label,
                        outcome.total_accesses,
                        sum(c.cold for c in outcome.misses.values()),
                        sum(c.capacity for c in outcome.misses.values()),
                        outcome.total_moved_bytes,
                    ])
            caption = f"{len(run)} sweep points"
            if args.workers:
                caption += f", {args.workers} workers"
            if run.errors:
                sweep_failures = len(run.errors)
                caption += f", {sweep_failures} failed"
                print(
                    f"warning: {sweep_failures} of {len(run)} sweep points "
                    f"failed (first: {run.errors[0].params}: "
                    f"{run.errors[0].message})",
                    file=sys.stderr,
                )
            report.add_heading("Parametric sweep")
            if run.errors:
                report.add_paragraph(
                    f"{sweep_failures} of {len(run)} sweep points failed — "
                    "see the rows marked 'failed' below."
                )
            report.add_table(
                ["parameters", "accesses", "cold", "capacity", "est. moved bytes"],
                rows,
                caption=caption,
            )

        report.save(args.output)
        print(f"report written to {args.output}")
        if args.timings:
            print("pipeline stage timings:")
            print(session.tracer.table())
        if args.explain_cache:
            print("analysis-pass cache report:")
            print(session.pass_report())
            from repro.symbolic.compiled import compile_cache_info

            info = compile_cache_info()
            print(
                "expression compile cache: "
                f"{info['hits']} hits, {info['misses']} misses, "
                f"{info['entries']} entries"
            )
        if args.trace:
            session.export_trace(args.trace)
            print(f"trace written to {args.trace}")
        if args.metrics_out:
            session.export_metrics(args.metrics_out)
            print(f"metrics written to {args.metrics_out}")
        if sweep_failures:
            # A partially-failed sweep must not render as success: the
            # report lists the failures, and the process exit code lets
            # scripts and CI detect them.
            print(
                f"error: {sweep_failures} sweep point(s) failed; "
                "the report contains partial results",
                file=sys.stderr,
            )
            return EXIT_SWEEP_FAILURES
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
