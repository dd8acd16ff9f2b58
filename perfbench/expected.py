"""Input spaces of the workloads and their expected outputs.

Every workload draws its inputs (with its seed) from the finite spaces
defined here, and every output it checks has an expected value stored in
``perfbench/expected/*.json``.  Those files are produced by the
*enumeration chain* — simulate the whole access trace, lay it out, take
exact LRU stack distances, classify — never by the analytic fold the
benchmark times, so a fold bug that changes a result trips the gate.

Regenerate (a few minutes) with::

    python3 perfbench/expected.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

# -- interactive_hdiff -------------------------------------------------------
#: Slider space: sizes where the analytic fold engages on hdiff.
HDIFF_POINTS = tuple(
    {"I": i, "J": j, "K": k}
    for i, j, k in itertools.product(range(24, 32), range(16, 21), (8,))
)
HDIFF_CAPACITIES = (16, 32, 64, 128)
HDIFF_LINE = 64
#: Program variants, cumulative: 0 baseline, 1 +reshape, 2 +reorder, 3 +pad.
HDIFF_VARIANTS = 4
#: The closing ``Session.tune`` (the hdiff settings of the tuning bench).
TUNE_SETTINGS = {
    "transforms": ["permute_array_layout", "reorder_map", "pad_strides_to_multiple"],
    "beam": 3,
    "depth": 4,
    "budget": 200,
    "line_size": 64,
    "capacity_lines": 4,
}
#: Candidates that search scores (beyond the baseline).
TUNE_CANDIDATES = 164

# -- sweep_enumerated --------------------------------------------------------
#: Small BERT-encoder points (P = EMB / H); analytic engine enumerates all.
BERT_POINTS = tuple(
    {"B": 1, "H": 2, "SM": sm, "EMB": emb, "FF": ff, "P": emb // 2}
    for sm, emb, ff in itertools.product(range(10, 15), (16, 20, 24), (32, 40, 48))
)
BERT_CAPACITIES = (64, 32, 128)
CLOUDSC_POINTS = tuple(
    {"NBLOCKS": nb, "KLEV": kl}
    for nb, kl in itertools.product(range(512, 800, 32), (64, 72, 80, 88, 96))
)
CLOUDSC_CAPACITIES = (8, 4, 16)


def point_key(params) -> str:
    return ",".join(f"{name}={params[name]}" for name in sorted(params))


def hdiff_key(variant: int, params, capacity: int) -> str:
    return f"v{variant}|{point_key(params)}|c{capacity}"


def sweep_key(app: str, params, capacity: int) -> str:
    return f"{app}|{point_key(params)}|c{capacity}"


def load(name: str) -> dict:
    path = EXPECTED_DIR / f"{name}.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# -- the independent oracle --------------------------------------------------
def enumerated_misses(sdfg, params, capacities, line_size: int, state=None) -> dict:
    """``{capacity: {container: misses}}`` by full trace enumeration."""
    from repro.simulation import CacheModel, MemoryModel, simulate_state
    from repro.simulation.arrays import build_array_trace, per_container_misses_array
    from repro.simulation.stackdist import stack_distances_array

    result = simulate_state(sdfg, params, state=state)
    memory = MemoryModel(sdfg, params, line_size=line_size)
    trace = build_array_trace(result, memory)
    if trace is None:
        raise RuntimeError(f"trace at {params} is not array-representable")
    distances = stack_distances_array(trace.lines)
    out = {}
    for capacity in capacities:
        model = CacheModel(line_size=line_size, capacity_lines=capacity)
        counts = per_container_misses_array(trace, distances, model)
        out[capacity] = {name: c.misses for name, c in sorted(counts.items())}
    return out


def hdiff_variant(variant: int):
    """A fresh hdiff SDFG with the first *variant* manual transforms."""
    from repro.apps import hdiff

    sdfg = hdiff.build_sdfg()
    steps = (hdiff.apply_reshape, hdiff.apply_reorder, hdiff.apply_padding)
    for step in steps[:variant]:
        step(sdfg)
    return sdfg


def tune_best_bytes() -> int:
    """Total movement of the tuner's winning variant, re-scored on the
    enumeration chain (the search itself scores through the pipeline)."""
    from repro.apps import hdiff
    from repro.tool import Session

    session = Session(hdiff.build_sdfg())
    result = session.tune(hdiff.LOCAL_VIEW_SIZES, **TUNE_SETTINGS)
    if result.evaluated != TUNE_CANDIDATES:
        raise RuntimeError(f"tune scored {result.evaluated} candidates")
    best = result.best.sdfg
    misses = enumerated_misses(
        best, hdiff.LOCAL_VIEW_SIZES, [TUNE_SETTINGS["capacity_lines"]],
        TUNE_SETTINGS["line_size"],
    )
    total = sum(misses[TUNE_SETTINGS["capacity_lines"]].values())
    total *= TUNE_SETTINGS["line_size"]
    if total != result.best.score.moved_bytes:
        raise RuntimeError(
            f"tuner scored {result.best.score.moved_bytes} bytes, "
            f"enumeration gives {total}"
        )
    return total


def generate() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.apps import bert, cloudsc

    EXPECTED_DIR.mkdir(exist_ok=True)
    views = {}
    for variant in range(HDIFF_VARIANTS):
        sdfg = hdiff_variant(variant)
        for params in HDIFF_POINTS:
            misses = enumerated_misses(
                sdfg, params, HDIFF_CAPACITIES, HDIFF_LINE, state=sdfg.start_state
            )
            for capacity, per in misses.items():
                views[hdiff_key(variant, params, capacity)] = {
                    name: count * HDIFF_LINE for name, count in per.items()
                }
        print(f"hdiff variant {variant}: done", flush=True)
    _write("interactive_hdiff", {
        "oracle": "enumeration chain (simulate_state, stack_distances_array)",
        "moved_bytes": views,
        "tune_best_bytes": tune_best_bytes(),
        "tune_candidates": TUNE_CANDIDATES,
    })

    points = {}
    for app, module, space, capacities in (
        ("bert", bert, BERT_POINTS, BERT_CAPACITIES),
        ("cloudsc", cloudsc, CLOUDSC_POINTS, CLOUDSC_CAPACITIES),
    ):
        sdfg = module.build_sdfg()
        for params in space:
            misses = enumerated_misses(sdfg, params, capacities, 64)
            for capacity, per in misses.items():
                points[sweep_key(app, params, capacity)] = {
                    "misses": per,
                    "moved_bytes": {name: n * 64 for name, n in per.items()},
                }
        print(f"{app}: done", flush=True)
    _write("sweep_enumerated", {
        "oracle": "enumeration chain (simulate_state, stack_distances_array)",
        "points": points,
    })


def _write(name: str, payload: dict) -> None:
    path = EXPECTED_DIR / f"{name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    generate()
