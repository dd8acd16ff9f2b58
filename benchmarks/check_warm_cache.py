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

Exit code 0 on success; prints the numbers either way.  Run with::

    PYTHONPATH=src python benchmarks/check_warm_cache.py
"""

import json
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


def run_once(
    label: str, module: Path, cache: Path, out_dir: Path, extra=()
) -> dict:
    metrics_path = out_dir / f"{label}-metrics.json"
    start = time.perf_counter()
    subprocess.run(
        [
            sys.executable, "-m", "repro.tool.cli", str(module),
            *ARGS,
            *extra,
            "--cache-dir", str(cache),
            "--metrics-out", str(metrics_path),
            "-o", str(out_dir / f"{label}-report.html"),
        ],
        check=True,
    )
    seconds = time.perf_counter() - start
    counters = json.loads(metrics_path.read_text())["counters"]
    return {"seconds": seconds, "counters": counters}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        module = out_dir / "program.py"
        module.write_text(PROGRAM)
        cache = out_dir / "cache"

        cold = run_once("cold", module, cache, out_dir)
        warm = run_once("warm", module, cache, out_dir)

        pooled_cache = out_dir / "pooled-cache"
        pooled = run_once("pooled", module, pooled_cache, out_dir, POOLED_COLD)
        resweep = run_once(
            "resweep", module, pooled_cache, out_dir, POOLED_RESWEEP
        )

    failures = []
    runs = (("cold", cold), ("warm", warm), ("pooled", pooled), ("resweep", resweep))
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

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: warm run served from the persistent cache")
    return 0


if __name__ == "__main__":
    sys.exit(main())
