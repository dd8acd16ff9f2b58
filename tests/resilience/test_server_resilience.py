"""Resilience behaviour of the analysis service over real sockets.

Covers the four lifecycle layers end-to-end: admission control (429 +
``Retry-After``), request deadlines (504 / terminal stream events),
graceful drain (healthz flip, 503 shedding, in-flight completion), and
the ``stop()`` wedged-handler regression.  Chaos injection drives the
slow-evaluation scenarios deterministically.
"""

import asyncio
import http.client
import json
import threading
import time
import warnings

import pytest

from repro.apps.hdiff import hdiff_program
from repro.obs.metrics import MetricsRegistry
from repro.resilience import chaos as chaos_mod
from repro.resilience.deadline import DeadlineExceeded
from repro.serve.app import AnalysisServer, ServeShutdownWarning
from repro.serve.coalesce import Coalescer
from repro.serve.http import Connection, json_response
from repro.tool.session import Session


def make_server(**kwargs):
    return AnalysisServer(
        Session(hdiff_program), port=0, **kwargs
    ).start_background()


@pytest.fixture()
def server():
    srv = make_server()
    yield srv
    srv.stop()


def get(server, path, headers=None, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=timeout)
    try:
        conn.request("GET", path, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def post_stream(server, path, payload, headers=None, timeout=60):
    """POST and read the close-delimited NDJSON stream to the end."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=timeout)
    try:
        conn.request(
            "POST",
            path,
            body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        resp = conn.getresponse()
        body = resp.read()
        if resp.status != 200:
            return resp.status, [json.loads(body)] if body else []
        events = [
            json.loads(line) for line in body.decode("utf-8").splitlines() if line
        ]
        return resp.status, events
    finally:
        conn.close()


def inject_blocking_route(server, path, release):
    """Add a GET route that answers only once *release* is set."""

    async def handler(conn, request):
        while not release.is_set():
            await asyncio.sleep(0.01)
        await conn.send(json_response({"ok": True}), keep_alive=False)
        return False

    server._routes[("GET", path)] = handler


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestAdmissionControl:
    def test_saturated_endpoint_sheds_429_with_retry_after(self):
        srv = make_server(admission_limits={"*": (1, 0)})
        release = threading.Event()
        try:
            inject_blocking_route(srv, "/v1/block", release)
            holder = threading.Thread(
                target=get, args=(srv, "/v1/block"), daemon=True
            )
            holder.start()
            assert wait_for(
                lambda: srv.admission.snapshot()
                .get("/v1/block", {})
                .get("active") == 1
            )
            status, headers, body = get(srv, "/v1/block")
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "saturated" in json.loads(body)["error"]
            counters = srv.metrics.to_dict()["counters"]
            assert counters["admission.v1.block.shed"] == 1
            assert srv.metrics.histogram("serve.shed_seconds").count == 1
        finally:
            release.set()
            holder.join(timeout=5)
            srv.stop()

    def test_control_plane_bypasses_admission(self):
        srv = make_server(admission_limits={"*": (1, 0)})
        release = threading.Event()
        try:
            inject_blocking_route(srv, "/v1/block", release)
            holder = threading.Thread(
                target=get, args=(srv, "/v1/block"), daemon=True
            )
            holder.start()
            assert wait_for(
                lambda: srv.admission.snapshot()
                .get("/v1/block", {})
                .get("active") == 1
            )
            # Saturation must not take down probes and metrics.
            assert get(srv, "/v1/healthz")[0] == 200
            assert get(srv, "/")[0] == 200
            assert get(srv, "/v1/metrics")[0] == 200
        finally:
            release.set()
            holder.join(timeout=5)
            srv.stop()

    def test_deadline_expires_while_queued_504(self):
        srv = make_server(admission_limits={"*": (1, 1)})
        release = threading.Event()
        try:
            inject_blocking_route(srv, "/v1/block", release)
            holder = threading.Thread(
                target=get, args=(srv, "/v1/block"), daemon=True
            )
            holder.start()
            assert wait_for(
                lambda: srv.admission.snapshot()
                .get("/v1/block", {})
                .get("active") == 1
            )
            status, _, body = get(
                srv, "/v1/block", headers={"X-Repro-Deadline-Ms": "150"}
            )
            assert status == 504
            assert "queued for admission" in json.loads(body)["error"]
            assert srv.metrics.counter("serve.deadline_exceeded").value == 1
        finally:
            release.set()
            holder.join(timeout=5)
            srv.stop()


class TestDeadlines:
    def test_bad_deadline_header_400(self, server):
        for value in ("nope", "0", "-5", "nan"):
            status, _, body = get(
                server, "/v1/local/view?I=4&J=4&K=2",
                headers={"X-Repro-Deadline-Ms": value},
            )
            assert status == 400
            assert "Deadline" in json.loads(body)["error"]

    def test_slow_evaluation_times_out_504(self, server):
        chaos_mod.install("eval.slow:kind=sleep:delay=0.5")
        status, _, body = get(
            server, "/v1/local/view?I=5&J=5&K=2",
            headers={"X-Repro-Deadline-Ms": "100"},
        )
        assert status == 504
        assert "deadline" in json.loads(body)["error"]
        counters = server.metrics.to_dict()["counters"]
        assert counters["serve.deadline_exceeded"] == 1
        assert counters["serve.coalesce.deadline_expired"] == 1

    def test_sweep_deadline_emits_terminal_error_event(self, server):
        chaos_mod.install("eval.slow:kind=sleep:delay=0.1")
        status, events = post_stream(
            server,
            "/v1/sweep",
            {
                "grid": {"I": [4, 5, 6, 7, 8, 9], "J": [4, 5], "K": [2]},
                "deadline_ms": 250,
            },
        )
        assert status == 200
        assert events[0]["event"] == "start"
        terminal = events[-1]
        assert terminal["event"] == "error"
        assert terminal["kind"] == "deadline"
        assert terminal["points_streamed"] < 12  # it really was cut short
        assert server.metrics.counter("serve.deadline_exceeded").value == 1

    def test_tune_deadline_emits_terminal_error_event(self, server):
        chaos_mod.install("eval.slow:kind=sleep:delay=0.1")
        status, events = post_stream(
            server,
            "/v1/tune",
            {"params": {"I": 8, "J": 8, "K": 5}, "deadline_ms": 250},
        )
        assert status == 200
        assert events[0]["event"] == "start"
        end, terminal = events[-2:]
        # The search's own end event, with the best candidate so far...
        assert end["event"] == "end"
        assert end["stopped"] == "deadline"
        assert end["best"]["moved_bytes"] > 0
        # ...then the stream's deadline record.
        assert terminal["event"] == "error"
        assert terminal["kind"] == "deadline"
        assert server.metrics.counter("serve.deadline_exceeded").value == 1

    @pytest.mark.parametrize(
        "path, payload",
        [
            ("/v1/sweep", {"grid": {"I": [4, 5, 6, 7], "J": [4], "K": [2]}}),
            ("/v1/tune", {"params": {"I": 8, "J": 8, "K": 5}, "budget": 2}),
        ],
        ids=["sweep", "tune"],
    )
    def test_deadline_after_the_run_is_not_a_cut(
        self, server, monkeypatch, path, payload
    ):
        """A deadline that passes while a finished run's events are still
        being written leaves the stream's own end in place."""
        send = Connection.send_stream_line

        async def slow_send(self, event):
            await asyncio.sleep(0.2)
            await send(self, event)

        monkeypatch.setattr(Connection, "send_stream_line", slow_send)
        status, events = post_stream(server, path, {**payload, "deadline_ms": 500})
        assert status == 200
        assert 0.2 * (len(events) - 1) > 0.5  # the writes outlast the deadline
        assert events[-1]["event"] == "end"
        assert events[-1].get("stopped") != "deadline"
        assert server.metrics.counter("serve.deadline_exceeded").value == 0


class TestStreamTerminalErrors:
    def test_sweep_producer_death_emits_error_record(self, server):
        def boom(*args, **kwargs):
            raise RuntimeError("producer thread died")

        server.session.sweep = boom
        status, events = post_stream(
            server, "/v1/sweep", {"grid": {"I": [4, 5], "J": [4], "K": [2]}}
        )
        assert status == 200
        terminal = events[-1]
        assert terminal["event"] == "error"
        assert terminal["kind"] == "RuntimeError"
        assert terminal["points_streamed"] == 0
        assert server.metrics.counter("serve.stream_errors").value == 1

    def test_tune_producer_death_emits_error_record(self, server):
        def boom(*args, **kwargs):
            raise RuntimeError("producer thread died")

        server.session.tune = boom
        status, events = post_stream(
            server, "/v1/tune", {"params": {"I": 8, "J": 8, "K": 2}}
        )
        assert status == 200
        terminal = events[-1]
        assert terminal["event"] == "error"
        assert terminal["kind"] == "RuntimeError"
        assert server.metrics.counter("serve.stream_errors").value == 1


class TestGracefulDrain:
    def test_drain_flips_healthz_and_sheds_new_work(self, server):
        assert get(server, "/v1/healthz")[0] == 200
        assert server.begin_drain()
        assert not server.begin_drain()  # idempotent
        status, _, body = get(server, "/v1/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "draining"
        # New work is refused with a retry hint...
        status, headers, _ = get(server, "/v1/local/view?I=4&J=4&K=2")
        assert status == 503
        assert headers["Retry-After"] == "1"
        # ...but the control plane keeps answering.
        assert get(server, "/")[0] == 200
        assert get(server, "/v1/metrics")[0] == 200

    def test_drain_completes_inflight_stream(self):
        srv = make_server()
        try:
            chaos_mod.install("eval.slow:kind=sleep:delay=0.05")
            result = {}

            def stream():
                result["events"] = post_stream(
                    srv,
                    "/v1/sweep",
                    {"grid": {"I": [4, 5, 6, 7], "J": [4, 5], "K": [2]}},
                )[1]

            client = threading.Thread(target=stream, daemon=True)
            client.start()
            assert wait_for(lambda: srv.drain.inflight == 1)
            srv.begin_drain()
            client.join(timeout=30)
            assert not client.is_alive()
            # The in-flight stream ran to its normal end event.
            assert result["events"][-1]["event"] == "end"
            assert result["events"][-1]["points"] == 8
            assert srv.drain.wait_idle(timeout=5)
        finally:
            srv.stop()

    def test_drain_and_stop_reports_clean_completion(self):
        srv = make_server()
        assert srv.drain_and_stop(timeout=2.0)
        assert srv.drain.phase == "stopped"


class TestStopWedgeRegression:
    def test_wedged_handler_surfaces_join_timeout(self):
        # A handler that swallows its cancellation forever used to make
        # stop() silently leave the loop thread alive while shutting the
        # worker pool down under it.  Now the failure is surfaced.
        srv = make_server()

        async def wedge(conn, request):
            while True:
                try:
                    await asyncio.sleep(3600)
                except asyncio.CancelledError:
                    continue  # deliberately ignores cancellation

        srv._routes[("GET", "/v1/wedge")] = wedge
        outcome = []

        def client():
            try:
                outcome.append(get(srv, "/v1/wedge", timeout=2))
            except (OSError, http.client.HTTPException) as exc:
                outcome.append(exc)

        # Joined below: a client left running would raise its timeout
        # into whichever test runs when it expires.
        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        assert wait_for(lambda: srv.drain.inflight == 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert srv.stop(join_timeout=0.3) is False
        assert any(
            issubclass(w.category, ServeShutdownWarning) for w in caught
        )
        assert srv.metrics.counter("serve.stop.join_timeouts").value == 1
        thread.join(timeout=10)
        assert not thread.is_alive()
        # The wedged handler never answered the client.
        [failure] = outcome
        assert isinstance(failure, (OSError, http.client.HTTPException))
        # The loop thread is leaked (daemon) by design; no further joins.


class TestCoalescerDeadlineVsWaiters:
    def test_expired_waiter_does_not_cancel_leaders_work(self):
        # Satellite regression: a deadline-expired joiner must drop only
        # its own waiter slot; the leader's evaluation keeps running and
        # completes for the remaining waiters.
        metrics = MetricsRegistry()
        coalescer = Coalescer(metrics)
        calls = []
        release = threading.Event()
        cancelled = []

        def compute(cancel):
            calls.append(1)
            release.wait(5)
            cancelled.append(cancel.cancelled)
            return "product"

        async def go():
            from repro.resilience.deadline import Deadline

            leader = asyncio.ensure_future(coalescer.fetch("k", compute))
            await asyncio.sleep(0.05)
            joiner = asyncio.ensure_future(
                coalescer.fetch("k", compute, Deadline.after(0.1))
            )
            with pytest.raises(DeadlineExceeded):
                await joiner
            release.set()
            return await leader

        assert asyncio.run(go()) == "product"
        assert len(calls) == 1  # the joiner never started its own compute
        assert cancelled == [False]  # the shared token never fired
        assert metrics.counter("serve.coalesce.deadline_expired").value == 1
        assert metrics.counter("serve.coalesce.cancelled").value == 0

    def test_sole_waiter_deadline_cancels_the_work(self):
        # Counter-case: when the expiring waiter is the LAST one, the
        # shared token must fire so the evaluation stops doing work
        # nobody will read.
        metrics = MetricsRegistry()
        coalescer = Coalescer(metrics)
        release = threading.Event()

        def compute(cancel):
            release.wait(5)
            return "product"

        async def go():
            from repro.resilience.deadline import Deadline

            with pytest.raises(DeadlineExceeded):
                await coalescer.fetch("k", compute, Deadline.after(0.05))
            release.set()

        asyncio.run(go())
        assert metrics.counter("serve.coalesce.deadline_expired").value == 1
        assert metrics.counter("serve.coalesce.cancelled").value == 1
        assert coalescer.inflight == 0


class TestAvailabilityUnderAmbientChaos:
    def test_interactive_requests_survive_env_chaos(self, env_chaos):
        # The CI resilience job re-runs this suite under a REPRO_CHAOS
        # matrix; whatever the ambient fault spec is (worker kills, disk
        # errors, slow evaluations), every interactive request must
        # still succeed — degraded, never broken.
        if env_chaos:
            chaos_mod.install(env_chaos)
        srv = make_server()
        try:
            for i in range(6):
                status, _, _ = get(srv, f"/v1/local/view?I={4 + i}&J=4&K=2")
                assert status == 200
            assert get(srv, "/v1/healthz")[0] == 200
        finally:
            srv.stop()
