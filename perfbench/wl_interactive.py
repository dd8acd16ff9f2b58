"""``interactive_hdiff``: one simulated user in the paper's local-view loop.

A closed loop over an in-process :class:`~repro.tool.session.Session` on
hdiff.  The slider trace has one segment per program variant: the
original program, then after each of the paper's three manual transforms
(applied in turn, each followed by one view).  Every segment holds the
same number of blocks of ten steps (three new symbol points, three
capacity changes, four revisits, shuffled by the seed), so every seed
times the same mix of variants and step kinds.  Every step opens the
local view and returns ``physical_movement()``,
``miss_heatmap("in_field")`` and the rendered ``in_field`` container.
The run ends by reloading the original program and calling
``Session.tune`` at ``LOCAL_VIEW_SIZES``.

The number of blocks follows from ``--seconds`` at a nominal rate, so two
versions of the program are measured on the same work.  The reference
work of ``bench_common.Gauge`` is timed after every step, set-up and
search round, and the end-to-end times are reported at reference speed.
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
    counter_delta,
    median,
    op_span,
    percentile,
    ratio,
    rss_mb_self_and_children,
)

NAME = "interactive_hdiff"
BLOCK = ("new",) * 3 + ("capacity",) * 3 + ("revisit",) * 4
#: Slider steps per second of ``--seconds`` (about 0.7 s of every second
#: at the current step cost; the tune takes the rest).
STEPS_PER_SECOND = 4.2
#: Blocks per variant are capped so that every new point is unseen.
MAX_BLOCKS = len(exp.HDIFF_POINTS) // (BLOCK.count("new") * exp.HDIFF_VARIANTS)
SETUP_REPEATS = 8


class SliderTrace:
    """Seeded step generator: the kinds of a segment, then the
    ``(point, capacity)`` of each step."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        # Popped from the end: reverse so the balanced prefix comes first.
        self.unseen = balanced_order(exp.HDIFF_POINTS, self.rng, _volume)[::-1]
        #: (point, capacity) pairs viewed since the last transform.
        self.visited: list[tuple[dict, int]] = []
        self.point = None
        self.capacity = self.rng.choice(exp.HDIFF_CAPACITIES)

    def transformed(self) -> None:
        """The program changed: earlier views are no longer revisits."""
        self.visited = [(self.point, self.capacity)]

    def segment(self, blocks: int) -> list[str]:
        """Step kinds of one variant: *blocks* shuffled blocks, starting
        with a new point while nothing has been viewed yet."""
        kinds: list[str] = []
        for _ in range(blocks):
            block = list(BLOCK)
            self.rng.shuffle(block)
            kinds += block
        if self.point is None:
            kinds.remove("new")
            kinds.insert(0, "new")
        return kinds

    def step(self, kind: str) -> tuple[dict, int]:
        if kind == "new":
            if not self.unseen:
                raise BenchError("slider space exhausted")
            self.point = self.unseen.pop()
        elif kind == "capacity":
            self.capacity = self.rng.choice(
                [c for c in exp.HDIFF_CAPACITIES if c != self.capacity]
            )
        else:
            self.point, self.capacity = self.rng.choice(self.visited)
        self.visited.append((self.point, self.capacity))
        return self.point, self.capacity


def _volume(point) -> int:
    return point["I"] * point["J"] * point["K"]


def load_session():
    """Program load to ready: parse hdiff from source, build a Session."""
    from repro.apps import hdiff
    from repro.frontend.program import Program
    from repro.tool import Session

    return Session(Program(hdiff.hdiff_program.func))


def timed_setup(log, gauge: Gauge):
    """One set-up: ``(session, (seconds, start, end))``."""
    gc.collect()
    gauge.tick()
    start = perf_counter()
    with op_span(log, "op.setup"):
        session = load_session()
    end = perf_counter()
    return session, (end - start, start, end)


def run(seed: int, seconds: float, log=None) -> dict:
    from repro.apps import hdiff

    table = exp.load(NAME)
    views = table["moved_bytes"]
    gauge = Gauge()
    run_start = perf_counter()
    session, setup = timed_setup(log, gauge)
    setups = [setup]

    trace = SliderTrace(seed)
    blocks = min(MAX_BLOCKS, max(1, round(STEPS_PER_SECOND * seconds / (
        len(BLOCK) * exp.HDIFF_VARIANTS))))
    transforms = (hdiff.apply_reshape, hdiff.apply_reorder, hdiff.apply_padding)
    # step kind, variant; a transform step views the current point anew.
    plan = []
    for variant in range(exp.HDIFF_VARIANTS):
        if variant:
            plan.append(("transform", variant))
        plan += [(kind, variant) for kind in trace.segment(blocks)]
    mismatches: list[str] = []
    kinds = ("new", "capacity", "revisit", "transform")
    # kind → (seconds, start, end) per step
    timed: dict[str, list[tuple[float, float, float]]] = {kind: [] for kind in kinds}
    attempted = failed = 0
    point, capacity = None, None
    # Further set-ups are spread over the run, so that their median does
    # not hinge on one moment of the machine.
    setup_every = max(1, len(plan) // (SETUP_REPEATS - 1))
    for step, (kind, variant) in enumerate(plan):
        if step and step % setup_every == 0 and len(setups) < SETUP_REPEATS:
            setups.append(timed_setup(log, gauge)[1])
        if kind == "transform":
            with op_span(log, "op.transform"):
                session.apply(transforms[variant - 1], session.sdfg)
            trace.transformed()
        else:
            point, capacity = trace.step(kind)
        attempted += 1
        start = perf_counter()
        with op_span(log, "op.view"):
            view = session.local_view(point, capacity_lines=capacity, line_size=exp.HDIFF_LINE)
            moved = view.physical_movement()
            heat = view.miss_heatmap("in_field")
            svg = view.render_container("in_field", values=heat, value_label="misses")
        end = perf_counter()
        timed[kind].append((end - start, start, end))
        gauge.tick()
        want = views[exp.hdiff_key(variant, point, capacity)]
        if dict(moved) != want or not svg.startswith("<svg"):
            failed += 1
            mismatches.append(
                f"view v{variant} {exp.point_key(point)} c{capacity}: {dict(moved)} != {want}"
            )

    # Back to the original program, then ask the tuner.
    session.load(hdiff.build_sdfg())
    gc.collect()
    counters_before = session.metrics.to_dict()["counters"]
    attempted += 1
    # The reference is timed after every search round (not in a traced
    # run, whose op.tune span would cover it); the tune's time is the sum
    # of the stretches between, each scaled by the ticks near it.
    gauge.tick()
    stretches: list[tuple[float, float, float]] = []
    mark = [0.0]

    def on_event(event: dict) -> None:
        if event.get("event") == "round" and log is None:
            now = perf_counter()
            stretches.append((now - mark[0], mark[0], now))
            gauge.tick()
            mark[0] = perf_counter()

    mark[0] = perf_counter()
    with op_span(log, "op.tune"):
        result = session.tune(hdiff.LOCAL_VIEW_SIZES, on_event=on_event, **exp.TUNE_SETTINGS)
    end = perf_counter()
    stretches.append((end - mark[0], mark[0], end))
    tune_s = sum(t[0] for t in stretches)
    gauge.tick()
    counters_after = session.metrics.to_dict()["counters"]
    best = result.best.score.moved_bytes
    if best != table["tune_best_bytes"] or result.evaluated != table["tune_candidates"]:
        failed += 1
        mismatches.append(
            f"tune best {best} bytes over {result.evaluated} candidates != "
            f"{table['tune_best_bytes']} over {table['tune_candidates']}"
        )

    samples = {kind: [t[0] for t in timed[kind]] for kind in kinds}
    scaled = {kind: [gauge.scale(*t) for t in timed[kind]] for kind in kinds}
    warm = samples["capacity"] + samples["revisit"]
    if not samples["new"] or not warm:
        raise BenchError("slider phase too short: no new or no warm step")
    ms = [s * 1e3 for kind in kinds for s in samples[kind]]
    pass_hits = counter_delta(counters_before, counters_after, "pass.", ".hits")
    pass_runs = counter_delta(counters_before, counters_after, "pass.", ".runs")
    cache = session.cache_info()
    rss = rss_mb_self_and_children()
    setup_s = median(t[0] for t in setups)
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "e2e": {
            "setup_s": median(gauge.scale(*t) for t in setups),
            "peak_rss_mb": rss,
            "cold_ms": median(scaled["new"]) * 1e3,
            "warm_ms": median(scaled["capacity"] + scaled["revisit"]) * 1e3,
            "work_per_s": result.evaluated / sum(gauge.scale(*t) for t in stretches),
        },
        "raw": {
            "setup_s": setup_s,
            "cold_ms": median(samples["new"]) * 1e3,
            "warm_ms": median(warm) * 1e3,
            "work_per_s": result.evaluated / tune_s,
        },
        "named": {
            "setup_s": (setup_s, "s", len(setups)),
            "peak_rss_mb": (rss, "MB", 1),
            "failed_ratio": (failed / attempted, "ratio", attempted),
            "view_update_p50_ms": (percentile(ms, 50), "ms", len(ms)),
            "view_update_p90_ms": (percentile(ms, 90), "ms", len(ms)),
            "tune_s": (tune_s, "s", 1),
        },
        "samples_ms": {k: [s * 1e3 for s in v] for k, v in samples.items()},
        "speed": gauge.speed(),
        "phase_wall_s": perf_counter() - run_start - gauge.spent,
        "registries": [session.metrics.to_dict()],
        "layers": {
            "tuning.candidates": result.evaluated,
            "tuning.dedup_ratio": ratio(result.deduplicated, result.evaluated + result.deduplicated),
            "tuning.pass_hit_ratio": ratio(pass_hits, pass_hits + pass_runs),
            "session.sim_cache_hit_ratio": ratio(cache["hits"], cache["hits"] + cache["misses"]),
            "obs.spans_retained": len(session.tracer.spans()),
        },
        "notes": [
            f"slider steps: {blocks} blocks per variant; {len(samples['new'])} new,"
            f" {len(samples['capacity'])} capacity, {len(samples['revisit'])} revisit,"
            f" {len(samples['transform'])} after a transform",
            f"tune: {result.evaluated} candidates, {result.deduplicated} duplicates,"
            f" {pass_hits} pass hits of {pass_hits + pass_runs} pass requests,"
            f" best {best} bytes in {tune_s:.3f} s",
        ],
    }
