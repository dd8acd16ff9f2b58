"""Shared plumbing of the benchmark: program import, statistics, stamps,
and the machine-speed gauge.

The benchmark drives the program in ``src/`` of the checkout it runs
from; :func:`bootstrap` puts that tree first on ``sys.path`` and refuses
to run when it is missing, so an installed copy of the package can never
be measured by accident.

On a shared host the CPU's speed drifts by tens of percent within
seconds (up to twofold for interpreted code), and every time the
benchmark takes drifts with it.  A :class:`Gauge` times a fixed piece of
reference work (which runs none of the program's code) between the
measured operations; an operation's time is divided by the reference's
slowdown near it (its time over ``REFERENCE_MS``), i.e. reported *at
reference speed*.  A change to the program moves only the measured operation, so
it moves the scaled figure by the same share.  This holds for work that
runs one operation at a time on one CPU; the workloads say which of
their figures are scaled, and the report prints the raw figures too.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
from contextlib import nullcontext
import platform
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of a run (server cache directories); inside the checkout.
WORK = ROOT / ".perfbench_work"
#: Where traced runs write their span files.
OUT = ROOT / ".perfbench_out"


class BenchError(Exception):
    """The benchmark cannot run or a check failed; the run must not report."""


def bootstrap() -> None:
    """Import the program from this checkout's ``src`` or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"imported repro from {origin}, not from {SRC}")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least *q*
    percent of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


#: Median :func:`reference_ms`, interpreter and array part, on the
#: machine the bounds were set on (a 2-vCPU x86-64 VM, Python 3.11,
#: NumPy 2.4).
REFERENCE_MS = (2.2, 1.3)


def _interpreter_work() -> None:
    """Interpreted loops over dicts and string formatting, as in
    rendering and keying."""
    table: dict[int, int] = {}
    parts = []
    for i in range(4000):
        table[i % 97] = table.get(i % 97, 0) + i
        parts.append('<rect x="%d" y="%d" fill="#%02x0000"/>' % (i, i % 13, i % 255))
    "".join(parts)


def _array_work() -> None:
    """NumPy sorting, deduplication and scans, as in trace layout and
    stack distances."""
    import numpy

    values = (numpy.arange(8000, dtype=numpy.int64) * 7919) % 65521
    numpy.unique(values[numpy.argsort(values, kind="stable")])
    numpy.cumsum(values)


def reference_ms(repeats: int = 3) -> tuple[float, float]:
    """Median wall times (ms) of the interpreter and the array reference
    work, garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for work in (_interpreter_work, _array_work):
            samples = []
            for _ in range(repeats):
                start = perf_counter()
                work()
                samples.append(perf_counter() - start)
            out.append(median(samples) * 1e3)
    finally:
        if enabled:
            gc.enable()
    return out[0], out[1]


class Gauge:
    """Reference timings taken between the measured operations.

    An operation is scaled by the median reference time of the ticks
    within :attr:`WINDOW` seconds of it (and at least the nearest tick on
    either side), which follows the machine's drift while one tick's
    noise is outvoted.  Interpreted code slows down on this host about
    twice as much as NumPy code does, so the reference has two parts:
    mostly interpreted work is scaled by their sum (:data:`MIXED`),
    NumPy-heavy work by the array part alone (:data:`ARRAY`).
    """

    MIXED = "mixed"
    ARRAY = "array"

    WINDOW = 1.0

    def __init__(self) -> None:
        #: ``(time, interpreter ms, array ms)`` per tick, in time order.
        self.ticks: list[tuple[float, float, float]] = []
        #: Wall seconds the gauge itself took (not the workload's time).
        self.spent = 0.0

    def tick(self, repeats: int = 3) -> None:
        """Time the reference once the last operation's pool workers have
        exited, so that they do not compete with it."""
        start = perf_counter()
        wait_for_children()
        interpreted, array = reference_ms(repeats)
        self.ticks.append((perf_counter(), interpreted, array))
        self.spent += perf_counter() - start

    def _part(self, tick, part: str) -> float:
        return tick[2] / REFERENCE_MS[1] if part == self.ARRAY else (
            (tick[1] + tick[2]) / sum(REFERENCE_MS)
        )

    def slowdown_around(self, start: float, end: float, part: str = MIXED) -> float:
        """The reference's time near [start, end] over its time on the
        reference machine."""
        times = [t[0] for t in self.ticks]
        lo = min(bisect.bisect_left(times, start - self.WINDOW),
                 max(0, bisect.bisect_left(times, start) - 1))
        hi = max(bisect.bisect_right(times, end + self.WINDOW),
                 bisect.bisect_right(times, end) + 1)
        window = [self._part(tick, part) for tick in self.ticks[lo:hi]]
        if not window:
            raise BenchError("no reference timing near a measured operation")
        return median(window)

    def scale(self, seconds: float, start: float, end: float, part: str = MIXED) -> float:
        """*seconds* measured between *start* and *end*, at reference speed."""
        return seconds / self.slowdown_around(start, end, part)

    def speed(self) -> float:
        """Machine speed over the run relative to the reference machine."""
        return 1.0 / median(self._part(tick, self.MIXED) for tick in self.ticks)


def beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the nearest-rank *q* percentile."""
    return n - max(1, math.ceil(q / 100.0 * n)) if n else 0


def wait_for_children(timeout: float = 30.0) -> None:
    """Wait until this process's pool workers have exited."""
    import multiprocessing

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.005)


def rss_mb_self_and_children() -> float:
    """Peak RSS of this process plus the largest child (pool workers), in
    MB, once every child has exited.  Forked workers share pages with
    this process, so the sum is an upper bound.  ``ru_maxrss`` is in
    kilobytes on Linux."""
    wait_for_children()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def rss_mb_of(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository.

    Reads ``.git`` of this checkout only (no ``git`` subprocess, which
    would search parent directories for some other repository).
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "machine": platform.machine(),
    }


def sample_line(name: str, values) -> str:
    """``name p50 … ms (n=…, k beyond)  p90 …`` for the report."""
    n = len(values)
    parts = [f"{name:<28}"]
    for q in (50, 90):
        parts.append(f"p{q} {percentile(values, q):9.2f} ms (n={n}, {beyond(n, q)} beyond)")
    return "  ".join(parts)


def ratio(part: float, whole: float) -> float:
    """*part* / *whole*, or 0.0 for an empty base (shown as not observed)."""
    return part / whole if whole else 0.0


def op_span(log, name: str):
    """A root span around one operation in a traced run, else nothing."""
    return nullcontext() if log is None else log.span(name)


def counter_delta(before: dict, after: dict, prefix: str, suffix: str) -> int:
    return sum(
        value - before.get(name, 0)
        for name, value in after.items()
        if name.startswith(prefix) and name.endswith(suffix)
    )


def balanced_order(items, rng, size, strata: int = 4) -> list:
    """A seeded order of *items* whose every prefix holds about as many
    small as large items (by *size*): the items are split into *strata*
    by size and drawn round-robin, in a shuffled stratum order per round.
    Runs with different seeds then see the same mix of input sizes."""
    ordered = sorted(items, key=size)
    step = -(-len(ordered) // strata)
    groups = [ordered[i:i + step] for i in range(0, len(ordered), step)]
    for group in groups:
        rng.shuffle(group)
    out = []
    while any(groups):
        order = list(range(len(groups)))
        rng.shuffle(order)
        out.extend(groups[i].pop() for i in order if groups[i])
    return out
