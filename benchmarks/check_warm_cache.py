"""CI check: a second run over a shared ``--cache-dir`` is served from disk.

Runs the ``repro-view`` CLI twice on the same program with the same
persistent cache directory — two separate processes, like two CI steps
or two developer sessions — and asserts the storage-layer contract:

- the warm run's disk hit ratio is at least ``MIN_HIT_RATIO`` (nothing
  silently fell out of the cache or failed to persist);
- the warm run is faster than the cold run (the cache pays for itself);
- nothing was quarantined and the cache never degraded.

A second, pooled leg runs the sweep on two workers (``--workers 2
--no-adaptive``), then once more at another ``--capacity`` over the same
directory.  The workers' analytic products reach the disk, so that run
only classifies: it must run zero ``local.analytic`` passes.

A third leg starts two CLI processes at once on a fresh directory whose
byte budget (``REPRO_CACHE_BYTES``) is half of what the cold run wrote.
The budget is kept across processes: afterwards the entries must fit
it (or be one entry that alone exceeds it), the two processes together
must have evicted, and neither may quarantine or degrade.

Exit code 0 on success; prints the numbers either way.  Run with::

    PYTHONPATH=src python benchmarks/check_warm_cache.py
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MIN_HIT_RATIO = 0.9

PROGRAM = """\
import repro
from repro.sdfg.dtypes import float64
from repro.symbolic import symbols

I, J, K = symbols("I J K")


@repro.program
def stencil(A: float64[I, J, K], B: float64[I, J, K]):
    for i, j, k in repro.pmap(I, J, K):
        B[i, j, k] = A[i, j, k] + 1.0
"""

ARGS = [
    "--params", "I=256,J=256,K=64",
    "--local", "I=64,J=64,K=24",
    "--sweep", "K=8,16,24,32",
]
#: The pooled leg's cold run, and its run at another capacity.
POOLED_COLD = ["--workers", "2", "--no-adaptive"]
POOLED_RESWEEP = ["--capacity", "256"]
#: The shared-budget leg's two processes: the second views another
#: point (the last ``--local`` wins), so both write their own entries.
SHARED = (("shared-a", ()), ("shared-b", ("--local", "I=48,J=64,K=24")))


def _command(label: str, module: Path, cache: Path, out_dir: Path, extra=()):
    metrics_path = out_dir / f"{label}-metrics.json"
    command = [
        sys.executable, "-m", "repro.tool.cli", str(module),
        *ARGS,
        *extra,
        "--cache-dir", str(cache),
        "--metrics-out", str(metrics_path),
        "-o", str(out_dir / f"{label}-report.html"),
    ]
    return command, metrics_path


def _counters(metrics_path: Path) -> dict:
    return json.loads(metrics_path.read_text())["counters"]


def run_once(
    label: str, module: Path, cache: Path, out_dir: Path, extra=()
) -> dict:
    command, metrics_path = _command(label, module, cache, out_dir, extra)
    start = time.perf_counter()
    subprocess.run(command, check=True)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "counters": _counters(metrics_path)}


def run_together(
    legs, module: Path, cache: Path, out_dir: Path, budget: int
) -> list[dict]:
    """One CLI process per ``(label, extra)`` leg, all at once, over
    *cache* at a *budget*-byte ``REPRO_CACHE_BYTES``."""
    env = {**os.environ, "REPRO_CACHE_BYTES": str(budget)}
    start = time.perf_counter()
    started = []
    for label, extra in legs:
        command, metrics_path = _command(label, module, cache, out_dir, extra)
        started.append((subprocess.Popen(command, env=env), metrics_path))
    for process, _ in started:
        if process.wait() != 0:
            raise subprocess.CalledProcessError(process.returncode, process.args)
    seconds = time.perf_counter() - start
    return [
        {"seconds": seconds, "counters": _counters(metrics_path)}
        for _, metrics_path in started
    ]


def entry_sizes(cache: Path) -> list[int]:
    """Byte sizes of the entry files in a cache directory."""
    return [path.stat().st_size for path in cache.glob("??/*.rpc")]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        module = out_dir / "program.py"
        module.write_text(PROGRAM)
        cache = out_dir / "cache"

        cold = run_once("cold", module, cache, out_dir)
        cold_bytes = sum(entry_sizes(cache))
        warm = run_once("warm", module, cache, out_dir)

        pooled_cache = out_dir / "pooled-cache"
        pooled = run_once("pooled", module, pooled_cache, out_dir, POOLED_COLD)
        resweep = run_once(
            "resweep", module, pooled_cache, out_dir, POOLED_RESWEEP
        )

        budget = cold_bytes // 2
        shared_cache = out_dir / "shared-cache"
        shared = run_together(SHARED, module, shared_cache, out_dir, budget)
        shared_sizes = entry_sizes(shared_cache)

    failures = []
    runs = (
        ("cold", cold), ("warm", warm), ("pooled", pooled), ("resweep", resweep),
        ("shared-a", shared[0]), ("shared-b", shared[1]),
    )
    for label, run in runs:
        counters = run["counters"]
        print(
            f"{label}: {run['seconds']:.2f}s, "
            f"hits={counters.get('disk.hits', 0)}, "
            f"misses={counters.get('disk.misses', 0)}, "
            f"writes={counters.get('disk.writes', 0)}, "
            f"corrupt={counters.get('disk.corrupt', 0)}, "
            f"degraded={counters.get('disk.degraded', 0)}"
        )
        if counters.get("disk.corrupt", 0):
            failures.append(f"{label} run quarantined entries")
        if counters.get("disk.degraded", 0):
            failures.append(f"{label} run degraded to memory-only")

    hits = warm["counters"].get("disk.hits", 0)
    misses = warm["counters"].get("disk.misses", 0)
    ratio = hits / (hits + misses) if hits + misses else 0.0
    print(f"warm disk hit ratio: {ratio:.2f} (minimum {MIN_HIT_RATIO})")
    if ratio < MIN_HIT_RATIO:
        failures.append(
            f"warm hit ratio {ratio:.2f} below {MIN_HIT_RATIO}"
        )
    if not warm["counters"].get("disk.hits", 0):
        failures.append("warm run hit the disk cache zero times")
    speedup = cold["seconds"] / warm["seconds"] if warm["seconds"] else 0.0
    print(f"cold/warm speedup: {speedup:.2f}x")
    if warm["seconds"] >= cold["seconds"]:
        failures.append(
            f"warm run ({warm['seconds']:.2f}s) not faster than "
            f"cold ({cold['seconds']:.2f}s)"
        )

    analytic_runs = resweep["counters"].get("pass.local.analytic.runs", 0)
    print(
        f"capacity re-sweep of the pooled grid: {analytic_runs} "
        "local.analytic passes (must be 0)"
    )
    if analytic_runs:
        failures.append(
            f"re-sweep at another capacity ran {analytic_runs} local.analytic "
            "passes: the pooled run did not leave its analytic products"
        )

    shared_bytes = sum(shared_sizes)
    evictions = sum(run["counters"].get("disk.evictions", 0) for run in shared)
    print(
        f"two processes at a {budget}-byte budget: {shared_bytes} bytes in "
        f"{len(shared_sizes)} entries, {evictions} evictions"
    )
    if shared_bytes > budget and len(shared_sizes) != 1:
        failures.append(
            f"two processes left {shared_bytes} entry bytes over the "
            f"{budget}-byte budget"
        )
    if not evictions:
        failures.append(
            "two processes writing past the budget evicted nothing"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: warm run served from the persistent cache")
    return 0


if __name__ == "__main__":
    sys.exit(main())
