"""``sweep_enumerated``: a caller sweeping grids with ``workers=nproc``.

A closed loop of ``Session.sweep(grid, workers=nproc)`` calls, as a user
passing ``--workers`` would make them.  Each cycle sweeps one seeded
BERT-encoder grid and one seeded CLOUDSC grid of points the analytic
engine has to enumerate, then re-sweeps each grid at two other cache
capacities.  Each cycle opens fresh sessions, so memory does not grow
with the number of cycles, and lists each grid's costliest point first,
so the adaptive pool decision (made on the first point) is the same for
every grid.  The number of cycles follows from ``--seconds`` at a
nominal cycle time, so two versions of the program sweep the same
grids.  Set-ups (interpreted) are reported at the reference speed of
``bench_common.Gauge`` by its whole reference, sweeps the executor runs
serially (NumPy-heavy) by its array part.  Pooled sweeps run on every
CPU, which a one-CPU reference does not describe (scaling them widened
their spread across runs), and are reported raw.

Pool workers are other processes, invisible to the benchmark's spans
and missing from the parent's counters.  A traced run therefore ends
with a serial pass over one grid per program: the per-layer split of a
point's compute (spans and ``pass.*``/``locality.*`` counters) comes
from that pass only, while the pooled cycles give the executor's
figures (``executor.*``).
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

import expected as exp
from bench_common import (
    BenchError,
    Gauge,
    balanced_order,
    median,
    nproc,
    op_span,
    ratio,
    rss_mb_self_and_children,
)

NAME = "sweep_enumerated"
#: Grid points per sweep, per program.
GRID = {"bert": 8, "cloudsc": 8}
#: Nominal seconds per cycle (two grids, each swept three times).
CYCLE_SECONDS = 6.0
SETUP_REPEATS = 3
#: Root span of the traced run's closing serial pass.
SERIAL_OP = "op.serial_pass"
#: The executor's counter of sweeps it chose to run on the pool.
POOL_CHOSEN = "sweep.adaptive.pool_chosen"


def _cost(point) -> int:
    out = 1
    for value in point.values():
        out *= value
    return out


class App:
    """One program's seeded stream of grids."""

    def __init__(self, name: str, space, capacities, rng: random.Random):
        self.name = name
        self.space = space
        self.capacities = capacities
        self.rng = rng
        self.unseen: list = []

    def next_grid(self) -> list:
        if len(self.unseen) < GRID[self.name]:
            self.unseen = balanced_order(self.space, self.rng, _cost)
        grid, self.unseen = self.unseen[: GRID[self.name]], self.unseen[GRID[self.name]:]
        return sorted(grid, key=_cost, reverse=True)


def load_sessions() -> dict:
    """Program load to ready: parse BERT from source, build CLOUDSC."""
    from repro.apps import bert, cloudsc
    from repro.frontend.program import Program
    from repro.tool import Session

    return {
        "bert": Session(Program(bert.encoder_program.func)),
        "cloudsc": Session(cloudsc.build_sdfg()),
    }


def check(app: str, points, grid, capacity: int, table: dict) -> list[str]:
    bad = []
    if len(points) != len(grid):
        return [f"{app}: {len(points)} results for {len(grid)} points"]
    for params, point in zip(grid, points):
        want = table[exp.sweep_key(app, params, capacity)]
        got = {name: counts.misses for name, counts in sorted(point.misses.items())}
        if got != want["misses"] or dict(point.moved_bytes) != want["moved_bytes"]:
            bad.append(f"{app} {exp.point_key(params)} c{capacity}: {got} != {want['misses']}")
    return bad


def timed_setup(log, gauge: Gauge):
    """One set-up: ``(sessions, (seconds, start, end))``."""
    gc.collect()
    gauge.tick()
    start = perf_counter()
    with op_span(log, "op.setup"):
        sessions = load_sessions()
    end = perf_counter()
    return sessions, (end - start, start, end)


def run(seed: int, seconds: float, log=None) -> dict:
    from repro.errors import AnalysisError

    table = exp.load(NAME)["points"]
    gauge = Gauge()
    run_start = perf_counter()
    setups = [timed_setup(log, gauge)[1] for _ in range(SETUP_REPEATS)]

    rng = random.Random(seed)
    apps = [
        App("bert", exp.BERT_POINTS, exp.BERT_CAPACITIES, rng),
        App("cloudsc", exp.CLOUDSC_POINTS, exp.CLOUDSC_CAPACITIES, rng),
    ]
    workers = nproc()
    # (program, capacity index, points, seconds, seconds as reported) per
    # sweep: serial sweeps at reference speed, pooled ones raw
    first: list[tuple[str, int, int, float, float]] = []
    again: list[tuple[str, int, int, float, float]] = []
    mismatches: list[str] = []
    attempted = failed = 0
    registries: list[dict] = []
    hits = lookups = spans = 0
    for cycles in range(1, max(1, round(seconds / CYCLE_SECONDS)) + 1):
        fresh, setup = timed_setup(log, gauge)
        setups.append(setup)
        for app in apps:
            grid = app.next_grid()
            session = fresh[app.name]
            for index, capacity in enumerate(app.capacities):
                attempted += len(grid)
                pooled_before = session.metrics.counter(POOL_CHOSEN).value
                gauge.tick()
                start = perf_counter()
                try:
                    with op_span(log, "op.sweep"):
                        points = session.sweep(
                            grid, workers=workers, capacity_lines=capacity
                        )
                except AnalysisError as exc:
                    failed += len(grid)
                    mismatches.append(f"{app.name} sweep failed: {exc}")
                    continue
                end = perf_counter()
                gauge.tick()
                if session.metrics.counter(POOL_CHOSEN).value > pooled_before:
                    reported = end - start
                else:
                    reported = gauge.scale(end - start, start, end, Gauge.ARRAY)
                (first if index == 0 else again).append(
                    (app.name, index, len(grid), end - start, reported)
                )
                bad = check(app.name, points, grid, capacity, table)
                failed += len(bad)
                mismatches.extend(bad)
        # Keep the counters, drop the sessions (and their stores).
        registries += [s.metrics.to_dict() for s in fresh.values()]
        hits += sum(s.cache_info()["hits"] for s in fresh.values())
        lookups += sum(s.cache_info()["hits"] + s.cache_info()["misses"] for s in fresh.values())
        spans += sum(len(s.tracer.spans()) for s in fresh.values())
        del fresh, session
    if not first or not again:
        raise BenchError("no sweep completed")
    traced = {}
    if log is not None:
        # Per-layer split of point compute, which the pool hides.
        serial = load_sessions()
        for app in apps:
            grid = balanced_order(app.space, random.Random(seed), _cost)[: GRID[app.name]]
            with op_span(log, SERIAL_OP):
                serial[app.name].sweep(grid, capacity_lines=app.capacities[0])
        cache = [s.cache_info() for s in serial.values()]
        traced = {
            "registries": [s.metrics.to_dict() for s in serial.values()],
            "executor_registries": registries,
            "compute_ops": ("op.setup", SERIAL_OP),
        }
        hits = sum(c["hits"] for c in cache)
        lookups = sum(c["hits"] + c["misses"] for c in cache)

    def points(sweeps) -> int:
        return sum(t[2] for t in sweeps)

    def seconds_of(sweeps, scaled: bool = False) -> float:
        return sum(t[4] if scaled else t[3] for t in sweeps)

    def per_point_ms(sweeps, scaled: bool = True) -> float:
        """Median per-point time over the cycles of each (program,
        capacity), averaged over those pairs: a sweep the host slowed
        counts once.  Pairs are kept apart because their costs differ by
        orders of magnitude (a re-sweep at the third capacity reuses the
        second's work)."""
        groups: dict[tuple[str, int], list[float]] = {}
        for name, index, n, raw, at_ref in sweeps:
            groups.setdefault((name, index), []).append((at_ref if scaled else raw) / n)
        return sum(median(v) for v in groups.values()) / len(groups) * 1e3

    total_points = points(first) + points(again)
    rss = rss_mb_self_and_children()
    setup_s = median(t[0] for t in setups)
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "e2e": {
            "setup_s": median(gauge.scale(*t) for t in setups),
            "peak_rss_mb": rss,
            "cold_ms": per_point_ms(first),
            "warm_ms": per_point_ms(again),
            "work_per_s": total_points / (seconds_of(first, True) + seconds_of(again, True)),
        },
        "raw": {
            "setup_s": setup_s,
            "cold_ms": per_point_ms(first, scaled=False),
            "warm_ms": per_point_ms(again, scaled=False),
            "work_per_s": total_points / (seconds_of(first) + seconds_of(again)),
        },
        "named": {
            "setup_s": (setup_s, "s", len(setups)),
            "peak_rss_mb": (rss, "MB", 1),
            "failed_ratio": (failed / attempted, "ratio", attempted),
            "sweep_points_per_s": (points(first) / seconds_of(first), "1/s", points(first)),
            "resweep_points_per_s": (points(again) / seconds_of(again), "1/s", points(again)),
        },
        "samples_ms": {
            "first_sweep_per_point": [t[3] / t[2] * 1e3 for t in first],
            "resweep_per_point": [t[3] / t[2] * 1e3 for t in again],
        },
        "speed": gauge.speed(),
        "phase_wall_s": perf_counter() - run_start - gauge.spent,
        "registries": registries,
        **traced,
        "layers": {
            "session.sim_cache_hit_ratio": ratio(hits, lookups),
            "obs.spans_retained": spans,
        },
        "notes": [
            f"{cycles} cycles with workers={workers}; grids of {GRID} points",
        ]
        + ([f"traced run: per-layer compute from {SERIAL_OP} (one serial grid per program);"
            " executor.* from the pooled cycles"] if log is not None else []),
    }
