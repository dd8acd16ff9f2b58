"""``repro-view tune``: auto-tune a program's data movement from the CLI.

Usage::

    repro-view tune path/to/module.py --params I=8,J=8,K=5 \\
        --budget 200 --beam 3 --depth 4 \\
        --line-size 64 --capacity 4 --json tuning.json --roofline roof.svg

The module is imported like for report generation; ``--builder NAME``
selects a module-level function returning an :class:`~repro.sdfg.SDFG`
instead of a ``@repro.program`` function (for workloads built directly
on the IR, e.g. :mod:`repro.apps.cloudsc`).  Progress is streamed to
stderr, the winning transform sequence to stdout; ``--json`` dumps the
full :class:`~repro.tuning.TuningResult` and ``--roofline`` renders the
search trajectory as an SVG roofline chart.

Exit codes: ``0`` on success (improvement found or not), ``1`` on a
usage or search error.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.sdfg.sdfg import SDFG
from repro.tool.session import Session

__all__ = ["main", "build_tune_parser"]


def build_tune_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-view tune",
        description="Beam search over transform sequences minimizing "
        "modeled physical data movement",
    )
    parser.add_argument(
        "module", help="Python file with @repro.program functions or an "
        "SDFG builder",
    )
    parser.add_argument("--function", help="program name (default: the only one)")
    parser.add_argument(
        "--builder",
        help="module-level function returning an SDFG (alternative to "
        "@repro.program, for IR-level workloads)",
    )
    parser.add_argument(
        "--params",
        required=True,
        help="comma-separated SYMBOL=VALUE simulation sizes for the "
        "locality objective",
    )
    parser.add_argument(
        "--transforms",
        default="",
        help="comma-separated transform names to search over "
        "(default: the full registry)",
    )
    parser.add_argument("--budget", type=int, default=512, help="max scored candidates")
    parser.add_argument("--beam", type=int, default=6, help="frontier width per round")
    parser.add_argument("--depth", type=int, default=4, help="max sequence length")
    parser.add_argument("--line-size", type=int, default=64, help="cache line bytes")
    parser.add_argument(
        "--capacity", type=int, default=512, help="modeled cache capacity in lines"
    )
    parser.add_argument(
        "--timeout", type=float, default=None, help="wall-clock budget in seconds"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for candidate evaluation (default: serial, "
        "which shares the pass cache across candidates)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-round progress on stderr"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the full tuning result as JSON"
    )
    parser.add_argument(
        "--roofline", metavar="PATH", help="render the search trajectory as "
        "an SVG roofline chart",
    )
    parser.add_argument(
        "--peak", type=float, default=64e9,
        help="roofline peak compute rate [ops/s]",
    )
    parser.add_argument(
        "--bandwidth", type=float, default=32e9,
        help="roofline memory bandwidth [bytes/s]",
    )
    return parser


def _load_target(path: str, function: str | None, builder: str | None):
    """The SDFG (or Program) to tune, from a user module."""
    if builder is None:
        from repro.tool.cli import _load_program

        return _load_program(path, function)
    file = Path(path)
    if not file.exists():
        raise ReproError(f"no such file: {path}")
    spec = importlib.util.spec_from_file_location(file.stem, file)
    if spec is None or spec.loader is None:
        raise ReproError(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    fn = getattr(module, builder, None)
    if fn is None or not callable(fn):
        raise ReproError(f"{path} has no callable {builder!r}")
    sdfg = fn()
    if not isinstance(sdfg, SDFG):
        raise ReproError(
            f"{builder}() returned {type(sdfg).__name__}, expected an SDFG"
        )
    return sdfg


def _progress(event: dict) -> None:
    kind = event.get("event")
    if kind == "start":
        print(
            f"baseline: {event['baseline']['moved_bytes']} bytes moved; "
            f"searching {len(event['transforms'])} transform(s), "
            f"beam {event['beam']}, depth {event['depth']}, "
            f"budget {event['budget']}",
            file=sys.stderr,
        )
    elif kind == "round":
        print(
            f"round {event['round']}: {event['scored']} of "
            f"{event['candidates']} candidate(s) scored "
            f"({event['evaluated']} total)",
            file=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    args = build_tune_parser().parse_args(argv)
    try:
        from repro.tool.cli import _parse_env

        target = _load_target(args.module, args.function, args.builder)
        params = _parse_env(args.params)
        if not params:
            raise ReproError("--params must assign at least one symbol")
        transforms = [
            t.strip() for t in args.transforms.split(",") if t.strip()
        ] or None

        session = Session(target)
        result = session.tune(
            params,
            transforms=transforms,
            beam=args.beam,
            depth=args.depth,
            budget=args.budget,
            line_size=args.line_size,
            capacity_lines=args.capacity,
            timeout=args.timeout,
            workers=args.workers,
            on_event=None if args.quiet else _progress,
        )

        base = result.baseline.score.moved_bytes
        best = result.best.score.moved_bytes
        print(
            f"baseline: {base} bytes moved at {params} "
            f"({args.line_size}B lines x {args.capacity})"
        )
        print(
            f"best:     {best} bytes moved "
            f"({result.improvement:.1%} reduction)"
        )
        steps = result.best.to_dict()["sequence"]
        if steps:
            print("sequence:")
            for step in steps:
                print(f"  - {step['transform']}: {step['detail']}")
        else:
            print("sequence: <baseline is already best>")
        print(
            f"search:   {result.evaluated} candidates in {result.rounds} "
            f"round(s), {result.deduplicated} duplicates skipped, "
            f"{result.pass_hits} pass-cache hits, "
            f"{result.seconds:.2f}s (stopped: {result.stopped})"
        )

        if args.json:
            with open(args.json, "w", encoding="utf-8") as f:
                json.dump(result.to_dict(), f, indent=2, default=str)
            print(f"result written to {args.json}")
        if args.roofline:
            from repro.viz.roofline import MachineModel, render_roofline

            machine = MachineModel(peak_ops=args.peak, bandwidth=args.bandwidth)
            svg = render_roofline(
                result.trajectory, machine=machine,
                title=session.sdfg.name,
            )
            with open(args.roofline, "w", encoding="utf-8") as f:
                f.write(svg)
            print(f"roofline written to {args.roofline}")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
