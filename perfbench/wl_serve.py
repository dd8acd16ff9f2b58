"""``serve_mixed``: an open-loop request ladder against ``repro serve``.

The server is a subprocess started as ``repro serve
src/repro/apps/hdiff.py --workers 2 --cache-dir <fresh dir>``.  One
client process sends on a fixed schedule over two keep-alive
connections, stepping through 10, 20 and 40 requests per second with
the same number of requests per step.  Each request is timed from the
moment it was due, so a stalled server also delays the requests queued
behind it, and the client records how late it sent each one.

The mix repeats a fixed pattern of twenty requests; the seed picks their
parameters:

- 9 ``GET /v1/local/view`` at small points not requested before;
- 5 repeats of an earlier view, alternately with ``If-None-Match``;
- 4 ``GET /v1/global/heatmap`` at new sizes, alternately SVG and JSON;
- 2 ``POST /v1/sweep`` over four new points.

Before the ladder, a closed-loop probe on one connection sends each
request only after the previous answer: distinct views at points the
ladder never asks for (K=3), each followed by a repeat of the view
three before it.  With nothing else in flight its latencies carry no
queueing, which past the knee multiplies with the machine's speed; the
client times the benchmark's reference work (``bench_common.Gauge``)
between the probe's requests and reports them at reference speed.
Set-up (a new server process importing the program) is reported raw:
scaling it made its spread across runs wider.  The end-to-end metrics
of ``BENCHMARK.json`` come from the set-ups and the probe; the ladder's
percentiles and ``serve_max_rps`` are printed by name.

A traced run hosts the same server in-process (``start_background``) so
the handlers' Session calls can be wrapped; ``in_process=True`` hosts an
untraced run the same way, the baseline of the tracing overhead.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from time import perf_counter

from bench_common import (
    ROOT,
    SRC,
    WORK,
    BenchError,
    Gauge,
    balanced_order,
    beyond,
    median,
    op_span,
    percentile,
    ratio,
    rss_mb_of,
    rss_mb_self_and_children,
)

NAME = "serve_mixed"
RATES = (10, 20, 40)
#: Share of ``--seconds`` spent in the ladder; steps get equal counts.
LADDER_SHARE = 0.85
SLO_MS = 100.0
SETUP_REPEATS = 5
CONNECTIONS = 2
#: Kinds of twenty consecutive requests, spread so that no step sees a
#: burst of sweeps: 9 views, 5 repeats, 4 heatmaps, 2 sweeps.
BLOCK = tuple(
    {"V": "view", "R": "repeat", "H": "heatmap", "S": "sweep"}[c]
    for c in "VRHVSVRVHRVRHVSVRHVV"
)
#: A repeat picks a view issued at least this many requests earlier.
REPEAT_LAG = 10
#: Every Nth distinct view (and heatmap, sweep) is re-checked in-process.
CHECK_EVERY = 8
_UID = re.compile(r"uid=\d+")

VIEW_POINTS = [
    {"I": i, "J": j, "K": k, "capacity": c}
    for i, j, k, c in itertools.product(range(3, 11), range(3, 10), (1, 2), (4, 8, 16))
]
#: Sweep points (disjoint from the views); each capacity sweeps all of them.
SWEEP_POINTS = [
    {"I": i, "J": j, "K": k} for i, j, k in itertools.product(range(11, 19), (1, 2, 3), (1, 2))
]
CAPACITIES = (4, 8, 16)
#: Probe views, disjoint from :data:`VIEW_POINTS` (K=3).
PROBE_POINTS = [
    {"I": i, "J": j, "K": 3, "capacity": c}
    for i, j, c in itertools.product(range(3, 11), range(3, 10), CAPACITIES)
]
#: Probe (view, repeat) pairs per second of ``--seconds``.
PROBE_PAIRS_PER_SECOND = 2.5
#: A probe repeat asks again for the view this many views back.
PROBE_LAG = 3
HEATMAP_ENVS = [
    {"I": i, "J": j, "K": k}
    for i, j, k in itertools.product(range(64, 256), (64, 96, 128), (16, 32))
]


class Request:
    __slots__ = (
        "index", "kind", "method", "path", "body", "params", "capacity", "fmt",
        "repeat_of", "conditional", "due", "sent", "done", "status", "payload",
        "etag", "failed_points",
    )

    def __init__(self, index: int, kind: str):
        self.index = index
        self.kind = kind
        self.method = "GET"
        self.path = ""
        self.body = None
        self.params = None
        self.capacity = None
        self.fmt = None
        self.repeat_of = None
        self.conditional = False
        self.due = self.sent = self.done = 0.0
        self.status = 0
        self.payload = b""
        self.etag = None
        self.failed_points = 0

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def distinct(self) -> bool:
        return self.kind in ("view", "heatmap", "sweep")


def build_requests(seed: int, count: int) -> list[Request]:
    """The seeded request mix (content only; the ladder sets due times)."""
    rng = random.Random(seed)
    # Runs longer than the spaces cover wrap around (repeats become hits).
    views = itertools.cycle(
        balanced_order(VIEW_POINTS, rng, lambda p: p["I"] * p["J"] * p["K"])
    )
    sweeps = itertools.cycle([
        (capacity, point)
        for capacity in CAPACITIES
        for point in balanced_order(SWEEP_POINTS, rng, lambda p: p["I"] * p["J"] * p["K"])
    ])
    envs = itertools.cycle(
        balanced_order(HEATMAP_ENVS, rng, lambda p: p["I"] * p["J"] * p["K"])
    )
    out: list[Request] = []
    issued_views: list[Request] = []
    repeats = heatmaps = 0
    for index in range(count):
        kind = BLOCK[index % len(BLOCK)]
        older = [r for r in issued_views if r.index <= index - REPEAT_LAG]
        if kind == "repeat" and not older:
            kind = "view"
        req = Request(index, kind)
        if kind == "view":
            _set_view(req, next(views))
            issued_views.append(req)
        elif kind == "repeat":
            source = rng.choice(older)
            req.repeat_of = source
            req.params, req.capacity, req.path = source.params, source.capacity, source.path
            req.conditional = repeats % 2 == 0
            repeats += 1
        elif kind == "heatmap":
            req.params = dict(next(envs))
            req.fmt = "svg" if heatmaps % 2 == 0 else "json"
            heatmaps += 1
            req.path = "/v1/global/heatmap?" + _query({**req.params, "format": req.fmt})
        else:
            req.method = "POST"
            chunk = [next(sweeps) for _ in range(4)]
            req.capacity = chunk[0][0]
            req.params = [dict(point) for _, point in chunk]
            req.path = "/v1/sweep"
            req.body = json.dumps({"grid": req.params, "capacity": req.capacity})
        out.append(req)
    return out


def build_probe(seed: int, pairs: int) -> list[Request]:
    """The probe: each distinct view followed by a repeat of the view
    :data:`PROBE_LAG` views earlier (of itself at first)."""
    order = balanced_order(PROBE_POINTS, random.Random(seed), lambda p: p["I"] * p["J"])
    out: list[Request] = []
    views: list[Request] = []
    for k in range(min(pairs, len(order))):
        view = Request(len(out), "view")
        _set_view(view, order[k])
        views.append(view)
        source = views[max(0, k - PROBE_LAG)]
        repeat = Request(len(out) + 1, "repeat")
        repeat.repeat_of = source
        repeat.params, repeat.capacity, repeat.path = source.params, source.capacity, source.path
        out += [view, repeat]
    return out


def _set_view(req: Request, point: dict) -> None:
    point = dict(point)
    req.capacity = point.pop("capacity")
    req.params = point
    req.path = "/v1/local/view?" + _query({**point, "capacity": req.capacity})


def _query(params: dict) -> str:
    return "&".join(f"{k}={v}" for k, v in params.items())


# -- the server ----------------------------------------------------------------
class Subprocess:
    """``repro serve`` in a child process, stopped with SIGTERM."""

    def __init__(self, cache_dir):
        import os

        self.log = open(cache_dir.parent / f"{cache_dir.name}.log", "wb")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "src/repro/apps/hdiff.py",
             "--workers", "2", "--cache-dir", str(cache_dir), "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log,
        )
        line = _readline(self.proc.stdout, timeout=60.0)
        if not line:
            self.stop()
            raise BenchError("repro serve printed no address")
        self.port = int(line.decode().split("http://127.0.0.1:")[1].split("/")[0])

    def peak_rss_mb(self) -> float:
        return rss_mb_of(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stdout.close()
        self.log.close()


class InProcess:
    """The same service hosted on a thread of this process (traced runs)."""

    def __init__(self, cache_dir):
        from repro.apps import hdiff
        from repro.frontend.program import Program
        from repro.serve.app import AnalysisServer
        from repro.tool import Session

        session = Session(Program(hdiff.hdiff_program.func), cache_dir=cache_dir)
        self.server = AnalysisServer(session, port=0, workers=2).start_background()
        self.port = self.server.port
        self.session = session

    def peak_rss_mb(self) -> float:
        return rss_mb_self_and_children()

    def stop(self) -> None:
        if not self.server.stop():
            raise BenchError("in-process server did not stop")


def _readline(stream, timeout: float) -> bytes:
    box: list[bytes] = []
    reader = threading.Thread(target=lambda: box.append(stream.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    return box[0] if box else b""


def wait_healthy(port: int, timeout: float = 60.0) -> None:
    deadline = perf_counter() + timeout
    while perf_counter() < deadline:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            response.read()
            if response.status == 200:
                return
        except OSError:
            pass
        finally:
            conn.close()
        time.sleep(0.005)
    raise BenchError(f"server on port {port} never became healthy")


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


# -- the load generator ----------------------------------------------------------
def drive(port: int, requests: list[Request], log=None) -> None:
    """Send every request at its due time over :data:`CONNECTIONS`
    keep-alive connections; a request waits for a free connection."""
    lock = threading.Lock()
    queue = iter(requests)
    errors: list[BaseException] = []

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    req = next(queue, None)
                if req is None:
                    return
                pause = req.due - perf_counter()
                if pause > 0:
                    time.sleep(pause)
                with op_span(log, "op.request"):
                    send(conn, req)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"load generator failed: {errors[0]!r}")


def probe(port: int, requests: list[Request], gauge: Gauge, log=None) -> None:
    """Send each request once the previous one is answered, timing the
    reference work before each."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for req in requests:
            gauge.tick()
            req.due = perf_counter()
            with op_span(log, "op.request"):
                send(conn, req)
        gauge.tick()
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise BenchError(f"probe failed: {exc!r}") from exc
    finally:
        conn.close()


def send(conn: http.client.HTTPConnection, req: Request) -> None:
    headers = {}
    req.conditional = req.conditional and req.repeat_of.etag is not None
    if req.conditional:
        headers["If-None-Match"] = req.repeat_of.etag
    req.sent = perf_counter()
    conn.request(req.method, req.path, body=req.body, headers=headers)
    response = conn.getresponse()
    req.payload = response.read()
    req.done = perf_counter()
    req.status = response.status
    req.etag = response.getheader("ETag")
    if req.kind == "sweep" and req.status == 200:
        events = [json.loads(line) for line in req.payload.splitlines() if line.strip()]
        req.failed_points = sum(
            1 for e in events if e.get("event") == "point" and e.get("status") != "ok"
        )
        if not events or events[-1].get("event") != "end":
            req.failed_points = max(req.failed_points, 1)
    if response.getheader("Connection", "").lower() == "close":
        conn.close()


def is_failure(req: Request) -> bool:
    """Any status but the expected one (429, 503, 504 and 5xx included),
    or a sweep with a failed point."""
    return req.status != (304 if req.conditional else 200) or req.failed_points > 0


# -- correctness --------------------------------------------------------------------
def check_payloads(requests: list[Request]) -> list[str]:
    """Served payloads against in-process Session products for the same
    key, over every :data:`CHECK_EVERY`-th request of each distinct kind."""
    from repro.apps import hdiff
    from repro.tool import Session

    session = Session(hdiff.hdiff_program)
    gv = session.global_view()
    bad: list[str] = []
    seen: dict[str, int] = {}
    for req in requests:
        if req.status != 200 or not req.distinct:
            continue
        seen[req.kind] = seen.get(req.kind, 0) + 1
        if seen[req.kind] % CHECK_EVERY != 1:
            continue
        if req.kind == "view":
            point = session.sweep([req.params], capacity_lines=req.capacity)[0]
            want = point.to_dict()
            want["cache_model"] = {"line_size": 64, "capacity_lines": req.capacity}
            got = json.loads(req.payload)
            got.pop("seconds", None)
            want.pop("seconds", None)
            ok = got == json.loads(json.dumps(want))
        elif req.kind == "heatmap" and req.fmt == "svg":
            want = gv.render(env=req.params, edge_overlay="movement", method="mean")
            # Node uids number every node a process ever built; the rest
            # of the document must match.
            ok = _UID.sub("", req.payload.decode("utf-8")) == _UID.sub("", want)
        elif req.kind == "heatmap":
            got = json.loads(req.payload)
            values = list(gv.movement_heatmap(req.params, method="mean").values.values())
            ok = (
                [e["bytes"] for e in got["edges"]] == json.loads(json.dumps(values))
                and got["total_movement_bytes"] == gv.total_movement(req.params)
                and got["total_ops"] == gv.total_ops(req.params)
            )
        else:
            points = session.sweep(req.params, capacity_lines=req.capacity)
            events = [json.loads(x) for x in req.payload.splitlines() if x.strip()]
            served = {
                e["index"]: e["total_moved_bytes"] for e in events if e.get("event") == "point"
            }
            ok = served == {i: p.total_moved_bytes for i, p in enumerate(points)}
        if not ok:
            bad.append(f"{req.kind} {req.path} {req.params}: served payload differs")
    return bad


# -- the workload ---------------------------------------------------------------------
def run(seed: int, seconds: float, log=None, in_process: bool = False) -> dict:
    host = InProcess if log is not None or in_process else Subprocess
    WORK.mkdir(exist_ok=True)
    root = WORK / f"serve_{seed}_{int(time.time() * 1e3)}"
    root.mkdir()
    server = None
    gauge = Gauge()
    try:
        setups = []
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            cache_dir = root / f"cache{attempt}"
            start = perf_counter()
            with op_span(log, "op.setup"):
                server = host(cache_dir)
                wait_healthy(server.port)
            setups.append(perf_counter() - start)

        probes = build_probe(seed, max(10, round(PROBE_PAIRS_PER_SECOND * seconds)))
        phase_start = perf_counter()
        probe(server.port, probes, gauge, log)
        per_step = max(20, round(LADDER_SHARE * seconds / sum(1.0 / r for r in RATES)))
        requests = build_requests(seed, per_step * len(RATES))
        due = perf_counter() + 0.05
        steps = []
        for step, rate in enumerate(RATES):
            chunk = requests[step * per_step:(step + 1) * per_step]
            for req in chunk:
                req.due = due
                due += 1.0 / rate
            steps.append((rate, chunk))
        drive(server.port, requests, log)
        phase_s = perf_counter() - phase_start - gauge.spent
        metrics = get_json(server.port, "/v1/metrics")
        rss = server.peak_rss_mb()
        extra = {}
        if log is not None:
            extra = serve_layers(server.session.metrics.to_dict(), probes, requests, log)
            extra["obs.spans_retained"] = len(server.session.tracer.spans())
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(root, ignore_errors=True)

    everything = probes + requests
    with nullcontext() if log is None else log.paused():
        mismatches = check_payloads(everything)
    failed = sum(1 for req in everything if is_failure(req))
    setup_s = median(setups)
    named = {
        "setup_s": (setup_s, "s", len(setups)),
        "peak_rss_mb": (rss, "MB", 1),
        "failed_ratio": (failed / len(everything), "ratio", len(everything)),
    }
    notes = []
    max_rps = 0
    for rate, chunk in steps:
        lat = [req.latency_ms for req in chunk]
        late = [(req.sent - req.due) * 1e3 for req in chunk]
        named[f"serve_p50_ms.r{rate}"] = (percentile(lat, 50), "ms", len(lat))
        named[f"serve_p95_ms.r{rate}"] = (percentile(lat, 95), "ms", len(lat))
        quarter = max(1, len(late) // 4)
        growth = median(late[-quarter:]) - median(late[:quarter])
        step_failed = sum(1 for req in chunk if is_failure(req))
        meets = percentile(lat, 95) <= SLO_MS and step_failed == 0 and growth <= 10.0
        if meets:
            max_rps = rate
        notes.append(
            f"r{rate}: p50 {percentile(lat, 50):.2f} ms, p90 {percentile(lat, 90):.2f} ms,"
            f" p95 {percentile(lat, 95):.2f} ms (n={len(lat)}, {beyond(len(lat), 95)} beyond"
            f" p95), lateness p95 {percentile(late, 95):.2f} ms, growth {growth:+.2f} ms,"
            f" failed {step_failed}, meets {SLO_MS:.0f} ms SLO: {meets}"
        )
    named["serve_max_rps"] = (max_rps, "1/s", len(RATES))
    answered = [r for r in probes if r.status == 200]
    if not any(r.kind == "repeat" for r in answered):
        raise BenchError("no probe repeat was answered 200")
    # seconds, then seconds at reference speed, per answered probe request
    raw = {r.index: r.done - r.due for r in answered}
    scaled = {r.index: gauge.scale(raw[r.index], r.due, r.done) for r in answered}

    def median_ms(times: dict, kind: str) -> float:
        return median(t for i, t in times.items() if probes[i].kind == kind) * 1e3
    counters = metrics.get("counters", {})
    notes.append(
        "server counters: "
        + ", ".join(
            f"{k}={counters.get(k, 0)}"
            for k in ("serve.coalesce.led", "serve.coalesce.joined", "serve.etag_304",
                      "disk.hits", "disk.misses", "disk.writes")
        )
    )
    return {
        "attempted": len(everything),
        "failed": failed,
        "mismatches": mismatches,
        "e2e": {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "cold_ms": median_ms(scaled, "view"),
            "warm_ms": median_ms(scaled, "repeat"),
            "work_per_s": len(scaled) / sum(scaled.values()),
        },
        "raw": {
            "cold_ms": median_ms(raw, "view"),
            "warm_ms": median_ms(raw, "repeat"),
            "work_per_s": len(raw) / sum(raw.values()),
        },
        "named": named,
        "samples_ms": {
            "probe_view": [t * 1e3 for i, t in raw.items() if probes[i].kind == "view"],
            "probe_repeat": [t * 1e3 for i, t in raw.items() if probes[i].kind == "repeat"],
            "ladder_repeat_304": [
                req.latency_ms for req in requests if req.kind == "repeat" and req.status == 304
            ],
        },
        "speed": gauge.speed(),
        "phase_wall_s": phase_s,
        "registries": [metrics],
        "layers": extra,
        "notes": notes,
    }


def serve_layers(registry: dict, probes: list[Request], ladder: list[Request], log) -> dict:
    """Serve-layer values of a traced (in-process) run."""
    requests = probes + ladder
    work = ("serve.v1.local.view.seconds", "serve.v1.global.heatmap.seconds",
            "serve.v1.sweep.seconds")
    server_s = sum(registry["histograms"].get(name, {}).get("sum", 0.0) for name in work)
    # Outermost Session calls made by handler threads.
    eval_s = sum(
        end - start for _, parent, _, name, start, end in log.spans
        if name == "serve.eval" and parent is None
    )
    client_s = sum(req.done - req.sent for req in requests)
    counters = registry["counters"]
    return {
        "serve.server_ms": server_s * 1e3,
        "serve.eval_ms": eval_s * 1e3,
        "serve.wait_ms": (server_s - eval_s) * 1e3,
        "serve.client_overhead_ms": (client_s - server_s) * 1e3,
        "serve.etag_304_ratio": ratio(counters.get("serve.etag_304", 0), len(requests)),
        # The probe sends when due by construction; lateness is the ladder's.
        "serve.gen_late_ms": sum((r.sent - r.due) * 1e3 for r in ladder) / len(ladder),
    }
