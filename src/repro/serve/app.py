"""The concurrent analysis service: ``repro serve`` behind the HTTP layer.

One :class:`AnalysisServer` owns one long-lived
:class:`~repro.tool.session.Session` and exposes its products over HTTP:

====================  =========================================================
``GET /``             service index (endpoints, program name)
``GET /v1/healthz``   liveness probe
``GET /v1/metrics``   the session's full metrics registry + cache info as JSON
``GET /v1/global/heatmap``  global movement heatmap (SVG, or JSON values)
``GET /v1/local/view``      one local-view parameter point (JSON products)
``POST /v1/sweep``    parameter-grid sweep streamed as NDJSON progress events
``POST /v1/tune``     auto-tuning search streamed as NDJSON progress events
====================  =========================================================

Design notes (see DESIGN.md §14 for the full discussion):

- **Coalescing** — identical concurrent requests share one evaluation.
  The join key is the *content-addressed pipeline key* of the requested
  product, so coalescing is exact: same graph content + same parameters
  + same cache model means the same key, anything else differs.
- **ETag** — derived from the same pipeline key, which is computable
  *without* evaluating anything.  A client revalidating with
  ``If-None-Match`` gets its 304 before the server touches the pipeline.
- **Cancellation** — a disconnected client cancels its handler task; the
  coalescer reference-counts waiters and fires the shared
  :class:`~repro.analysis.executor.CancelToken` only when the last
  waiter is gone, so one impatient client never kills work others need.
- **Threading** — the event loop never runs analyses; CPU-bound work is
  dispatched to a worker-thread pool and serialized on a session lock
  (the session's pipeline and caches are not thread-safe).  Coalescing
  does the heavy lifting for concurrency: the common interactive load —
  many clients viewing the same analysis — costs one evaluation.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Mapping

from repro.analysis.executor import CancelToken, SweepPointError
from repro.errors import ReproError, UnknownSymbolError
from repro.resilience.admission import AdmissionController, Overloaded
from repro.resilience.chaos import active as _chaos_active
from repro.resilience.deadline import DEADLINE_REASON, Deadline, DeadlineExceeded
from repro.resilience.drain import DrainState
from repro.serve.coalesce import Coalescer
from repro.serve.http import (
    Connection,
    HttpError,
    Request,
    Response,
    json_response,
    read_request,
)
from repro.tool.session import Session, require_symbols
from repro.version import __version__

__all__ = ["AnalysisServer", "ServeShutdownWarning"]

#: The query options each endpoint reads; every other query parameter
#: must name one of the program's free symbols.
_HEATMAP_OPTIONS = frozenset({"format", "method"})
_VIEW_OPTIONS = frozenset({"line_size", "capacity"})

#: Control-plane paths that bypass admission control and drain shedding:
#: load balancers and operators must be able to probe a saturated or
#: draining server.
_EXEMPT_PATHS = frozenset({"/", "/v1/healthz", "/v1/metrics"})


class ServeShutdownWarning(RuntimeWarning):
    """stop() could not join the server loop thread within its timeout."""


def _etag(key: Any) -> str:
    """A strong ETag from a content-addressed pipeline key."""
    digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
    return f'"{digest[:32]}"'


def _parse_symbols(
    query: Mapping[str, str], options: frozenset[str], symbols: frozenset[str]
) -> dict[str, int]:
    """Symbol assignments from query parameters.

    *options* are the names the endpoint reads itself; every other name
    must be one of the program's *symbols*
    (:func:`~repro.tool.session.require_symbols`, answered 400).
    """
    out: dict[str, int] = {}
    for name, value in query.items():
        if name in options:
            continue
        require_symbols((name,), symbols, "query parameter", options)
        try:
            out[name] = int(value)
        except ValueError:
            raise HttpError(
                400, f"query parameter {name}={value!r} is not an integer"
            ) from None
    if not out:
        raise HttpError(400, "no symbol assignments in query (e.g. ?I=8&J=8&K=5)")
    return out


def _parse_deadline(
    raw: Any, source: str, tighter: Deadline | None = None
) -> Deadline | None:
    """A deadline *raw* milliseconds from now, read from the
    ``X-Repro-Deadline-Ms`` header or a ``deadline_ms`` body field named
    by *source*; ``None`` when absent.  The earlier of it and *tighter*
    wins."""
    if raw is None:
        return tighter
    try:
        ms = float(raw)
    except (TypeError, ValueError):
        raise HttpError(
            400, f"bad {source} value {raw!r} (milliseconds)"
        ) from None
    if not ms > 0:
        raise HttpError(400, f"{source} must be positive")
    return Deadline.after_ms(ms).tighten(tighter)


def _parse_cache_model(fields: Mapping[str, Any]) -> tuple[int, int]:
    """``line_size`` and ``capacity`` from a query string or a JSON body."""
    try:
        line_size = int(fields.get("line_size", 64))
        capacity = int(fields.get("capacity", 512))
    except (TypeError, ValueError):
        raise HttpError(400, "line_size and capacity must be integers") from None
    if line_size <= 0 or capacity <= 0:
        raise HttpError(400, "line_size and capacity must be positive")
    return line_size, capacity


class AnalysisServer:
    """Serve one session's analysis products to many concurrent clients."""

    def __init__(
        self,
        session: Session,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        admission_limits: Mapping[str, tuple[int, int]] | None = None,
        drain_timeout: float = 10.0,
    ):
        self.session = session
        #: The program's free symbols: the service never reloads its
        #: program, so they are computed once.
        self._symbols = session.sdfg.free_symbols()
        self.host = host
        self.port = port
        self.workers = max(1, int(workers))
        self.metrics = session.metrics
        self.tracer = session.tracer
        self._coalescer = Coalescer(self.metrics)
        self.admission = AdmissionController(admission_limits, metrics=self.metrics)
        self.drain = DrainState(metrics=self.metrics)
        self.drain_timeout = float(drain_timeout)
        #: The session (pipeline, stores, caches) is not thread-safe;
        #: every evaluation holds this lock.  Coalescing — not pool
        #: parallelism — is what makes N identical clients cheap.
        self._session_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        #: The latest request context.  The next one adopts its graph
        #: fingerprints, which accumulate along the chain, so a warm
        #: request never re-hashes the (unchanged) SDFG.
        self._base: Any = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._routes: dict[tuple[str, str], Callable[..., Awaitable[None]]] = {
            ("GET", "/"): self._handle_index,
            ("GET", "/v1/healthz"): self._handle_healthz,
            ("GET", "/v1/metrics"): self._handle_metrics,
            ("GET", "/v1/global/heatmap"): self._handle_global_heatmap,
            ("GET", "/v1/local/view"): self._handle_local_view,
            ("POST", "/v1/sweep"): self._handle_sweep,
            ("POST", "/v1/tune"): self._handle_tune,
        }

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections on the running loop."""
        self._loop = asyncio.get_running_loop()
        self._loop.set_default_executor(self._pool)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def start_background(self) -> "AnalysisServer":
        """Run the server on a dedicated thread (tests, benchmarks).

        Blocks until the port is bound; :attr:`port` is then the real
        port even when constructed with ``port=0``.
        """
        started = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # noqa: BLE001 - surfaced to caller
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:
            raise failure[0]
        return self

    def stop(self, join_timeout: float = 10.0) -> bool:
        """Stop a background server and join its loop thread.

        Returns ``True`` when the loop thread actually exited.  A wedged
        handler (one that swallows its cancellation) can keep the loop
        thread alive past *join_timeout*; in that case the worker pool is
        **not** shut down — tearing it down under a still-running loop
        would hand live handlers a dead executor — and the failure is
        surfaced as a :class:`ServeShutdownWarning` plus the
        ``serve.stop.join_timeouts`` counter instead of being ignored.
        The thread is a daemon, so a leaked loop dies with the process.
        """
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return True
        self.drain.stop(forced=False)

        async def shutdown() -> None:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            loop.stop()

        asyncio.run_coroutine_threadsafe(shutdown(), loop)
        thread.join(timeout=join_timeout)
        if thread.is_alive():
            self.metrics.counter("serve.stop.join_timeouts").inc()
            warnings.warn(
                f"server loop thread still alive after {join_timeout:.1f}s; "
                "a handler is ignoring cancellation — leaving the worker "
                "pool running and the loop thread leaked (daemon)",
                ServeShutdownWarning,
                stacklevel=2,
            )
            return False
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._thread = None
        return True

    def begin_drain(self) -> bool:
        """Flip to draining: healthz goes 503, new work is shed with 503.

        Idempotent; in-flight requests (including open streams) continue.
        """
        return self.drain.begin_drain()

    def drain_and_stop(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: drain in-flight work, then stop the server.

        Returns ``True`` when every in-flight request finished within
        *timeout* (default: the constructor's ``drain_timeout``); on
        ``False`` the stragglers were force-cancelled.
        """
        timeout = self.drain_timeout if timeout is None else float(timeout)
        self.begin_drain()
        clean = self.drain.wait_idle(timeout=timeout)
        self.drain.stop(forced=not clean)
        self.stop()
        return clean

    # -- connection handling --------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = Connection(reader, writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while not conn.is_closing():
                try:
                    request = await read_request(conn)
                except HttpError as exc:
                    await conn.send(
                        json_response(
                            {"error": str(exc)}, exc.status, headers=exc.headers
                        ),
                        keep_alive=False,
                    )
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    OSError,
                ):
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(conn, request)
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            # Server shutdown.  Swallowing is correct here: this is a
            # top-level task (spawned by start_server), and re-raising
            # only makes asyncio's connection callback log the
            # CancelledError as an unhandled error.
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            await conn.close()

    async def _dispatch(self, conn: Connection, request: Request) -> bool:
        """Route one request.  Returns whether to keep the connection.

        Work endpoints pass three gates before their handler runs:
        drain (503 once SIGTERM arrived), admission (429 + Retry-After
        when the endpoint is saturated and its queue is full), and the
        request deadline (504 when it expired while queued).  Control
        endpoints (``/``, healthz, metrics) bypass all three so probes
        keep answering under overload and during drain.
        """
        endpoint = request.path.strip("/").replace("/", ".") or "index"
        self.metrics.counter(f"serve.{endpoint}.requests").inc()
        start = time.perf_counter()
        admitted = False
        entered = False
        try:
            handler = self._routes.get((request.method, request.path))
            if handler is None:
                if any(path == request.path for _, path in self._routes):
                    raise HttpError(405, f"method {request.method} not allowed")
                raise HttpError(404, f"no such endpoint: {request.path}")
            if request.path not in _EXEMPT_PATHS:
                if not self.drain.enter():
                    raise HttpError(
                        503, "server is draining", headers={"Retry-After": "1"}
                    )
                entered = True
                request.deadline = _parse_deadline(
                    request.header("x-repro-deadline-ms"), "X-Repro-Deadline-Ms"
                )
                try:
                    if request.deadline is None:
                        await self.admission.acquire(request.path, endpoint)
                    else:
                        await asyncio.wait_for(
                            self.admission.acquire(request.path, endpoint),
                            timeout=request.deadline.remaining(),
                        )
                except Overloaded as exc:
                    raise HttpError(
                        429,
                        str(exc),
                        headers={"Retry-After": str(exc.retry_after)},
                    ) from None
                except asyncio.TimeoutError:
                    raise DeadlineExceeded(
                        "deadline expired while queued for admission"
                    ) from None
                admitted = True
            return await handler(conn, request)
        except HttpError as exc:
            if exc.status == 429:
                # Shed latency must stay flat under overload; measured
                # and asserted by the resilience benchmark.
                self.metrics.histogram("serve.shed_seconds").observe(
                    time.perf_counter() - start
                )
            await conn.send(
                json_response({"error": str(exc)}, exc.status, headers=exc.headers),
                keep_alive=request.keep_alive,
            )
            return request.keep_alive
        except DeadlineExceeded as exc:
            self.metrics.counter("serve.deadline_exceeded").inc()
            await conn.send(
                json_response({"error": str(exc)}, 504),
                keep_alive=request.keep_alive,
            )
            return request.keep_alive
        except asyncio.CancelledError:
            raise
        except ReproError as exc:
            # A name that is not a program symbol is a bad request; any
            # other library error is an unprocessable one.
            status = 400 if isinstance(exc, UnknownSymbolError) else 422
            await conn.send(
                json_response({"error": str(exc)}, status),
                keep_alive=request.keep_alive,
            )
            return request.keep_alive
        except (ConnectionError, OSError):
            return False
        except Exception as exc:  # noqa: BLE001 - fault barrier per request
            self.metrics.counter("serve.errors").inc()
            await conn.send(
                json_response(
                    {"error": f"internal error: {type(exc).__name__}: {exc}"}, 500
                ),
                keep_alive=False,
            )
            return False
        finally:
            if admitted:
                self.admission.release(
                    request.path, endpoint, seconds=time.perf_counter() - start
                )
            if entered:
                self.drain.exit()
            elapsed = time.perf_counter() - start
            self.metrics.histogram(f"serve.{endpoint}.seconds").observe(elapsed)
            # record() instead of a ``with span():`` around the await —
            # interleaved coroutines share the loop thread's span stack,
            # so an open span across an await point would adopt unrelated
            # requests as children.
            self.tracer.record(f"serve:{endpoint}", elapsed)

    # -- evaluation plumbing ---------------------------------------------------
    def _point_context(self, params, line_size, capacity):
        self._base = self.session.point_context(
            params, line_size=line_size, capacity_lines=capacity,
            base=self._base,
        )
        return self._base

    async def _coalesced(
        self,
        conn: Connection,
        request: Request,
        key: Any,
        compute: Callable[[CancelToken], Any],
    ) -> Response | None:
        """ETag check, then coalesced evaluation with disconnect watch.

        Returns the response to send, or ``None`` when the client
        disconnected (nothing to send, connection is dead).
        """
        etag = _etag(key)
        if request.header("if-none-match") == etag:
            self.metrics.counter("serve.etag_304").inc()
            return Response(304, headers={"ETag": etag})
        # The deadline bounds only this client's wait (504 on expiry);
        # the shared evaluation keeps running while other waiters remain
        # and is reference-count-cancelled when the last one leaves.
        fetch = asyncio.ensure_future(
            self._coalescer.fetch(key, compute, request.deadline)
        )
        watch = asyncio.ensure_future(conn.wait_disconnect())
        done, _ = await asyncio.wait(
            {fetch, watch}, return_when=asyncio.FIRST_COMPLETED
        )
        if fetch not in done and watch in done and watch.result():
            # Peer hung up while we were computing: cancel our waiter
            # slot (the coalescer fires the token if we were the last).
            self.metrics.counter("serve.disconnects").inc()
            fetch.cancel()
            try:
                await fetch
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            return None
        if not watch.done():
            # Await the cancellation: the watcher sits in ``reader.read``
            # and the next request parse must not overlap with it.
            watch.cancel()
            try:
                await watch
            except asyncio.CancelledError:
                pass
        response = await fetch
        response.headers["ETag"] = etag
        return response

    # -- endpoints -------------------------------------------------------------
    async def _handle_index(self, conn: Connection, request: Request) -> bool:
        payload = {
            "service": "repro-serve",
            "version": __version__,
            "program": self.session.sdfg.name,
            "endpoints": sorted(
                f"{method} {path}" for method, path in self._routes
            ),
        }
        await conn.send(json_response(payload), keep_alive=request.keep_alive)
        return request.keep_alive

    async def _handle_healthz(self, conn: Connection, request: Request) -> bool:
        snap = self.drain.snapshot()
        serving = snap["phase"] == "serving"
        payload = {
            "status": "ok" if serving else snap["phase"],
            "program": self.session.sdfg.name,
            "inflight": self._coalescer.inflight,
        }
        # 503 once draining: load balancers stop routing here while the
        # in-flight work (still counted above) runs to completion.
        await conn.send(
            json_response(payload, 200 if serving else 503),
            keep_alive=request.keep_alive,
        )
        return request.keep_alive

    async def _handle_metrics(self, conn: Connection, request: Request) -> bool:
        payload = self.metrics.to_dict()
        payload["simulation_cache"] = self.session.cache_info()
        breakers = {"pool": self.session.pool_breaker.snapshot()}
        if self.session.disk is not None:
            breakers["disk"] = self.session.disk.breaker.snapshot()
        payload["resilience"] = {
            "admission": self.admission.snapshot(),
            "drain": self.drain.snapshot(),
            "breakers": breakers,
        }
        chaos = _chaos_active()
        if chaos is not None:
            payload["resilience"]["chaos"] = chaos.snapshot()
        await conn.send(json_response(payload), keep_alive=request.keep_alive)
        return request.keep_alive

    async def _handle_global_heatmap(
        self, conn: Connection, request: Request
    ) -> bool:
        env = _parse_symbols(request.query, _HEATMAP_OPTIONS, self._symbols)
        fmt = request.query.get("format", "svg")
        method = request.query.get("method", "mean")
        if fmt not in ("svg", "json"):
            raise HttpError(400, f"unknown format {fmt!r} (svg or json)")
        # ``global.totals`` keys on graph content, not env, so the env
        # rides alongside in the ETag/coalescing tuple.
        ctx = self._point_context(env, 64, 512)
        key = (
            "global.heatmap",
            tuple(sorted(env.items())),
            method,
            fmt,
            self.session.product_key("global.totals", ctx),
        )

        def compute(cancel: CancelToken) -> Response:
            with self._session_lock:
                gv = self.session.global_view()
                if fmt == "svg":
                    svg = gv.render(env=env, edge_overlay="movement", method=method)
                    return Response(
                        200, svg.encode("utf-8"), "image/svg+xml"
                    )
                heatmap = gv.movement_heatmap(env, method=method)
                edges = [
                    {
                        "index": index,
                        "src": edge.src.label,
                        "dst": edge.dst.label,
                        "data": (
                            edge.data.memlet.data
                            if edge.data is not None and edge.data.memlet is not None
                            else None
                        ),
                        "bytes": value,
                    }
                    for index, (edge, value) in enumerate(heatmap.values.items())
                ]
                payload = {
                    "params": env,
                    "method": method,
                    "total_movement_bytes": gv.total_movement(env),
                    "total_ops": gv.total_ops(env),
                    "edges": edges,
                }
                return json_response(payload)

        response = await self._coalesced(conn, request, key, compute)
        if response is None:
            return False
        await conn.send(response, keep_alive=request.keep_alive)
        return request.keep_alive

    async def _handle_local_view(
        self, conn: Connection, request: Request
    ) -> bool:
        params = _parse_symbols(request.query, _VIEW_OPTIONS, self._symbols)
        line_size, capacity = _parse_cache_model(request.query)
        ctx = self._point_context(params, line_size, capacity)
        key = self.session.product_key("local.point", ctx)

        def compute(cancel: CancelToken) -> Response:
            with self._session_lock:
                run = self.session.sweep(
                    [params],
                    line_size=line_size,
                    capacity_lines=capacity,
                    on_error="record",
                    cancel=cancel,
                    base=ctx,
                )
            outcome = run.outcomes[0]
            if isinstance(outcome, SweepPointError):
                return json_response(
                    {
                        "error": outcome.message,
                        "kind": outcome.kind,
                        "params": dict(outcome.params),
                    },
                    status=422,
                )
            payload = outcome.to_dict()
            payload["cache_model"] = {
                "line_size": line_size,
                "capacity_lines": capacity,
            }
            return json_response(payload)

        response = await self._coalesced(conn, request, key, compute)
        if response is None:
            return False
        await conn.send(response, keep_alive=request.keep_alive)
        return request.keep_alive

    async def _handle_sweep(self, conn: Connection, request: Request) -> bool:
        body = request.json()
        if not isinstance(body, dict) or "grid" not in body:
            raise HttpError(400, 'sweep body must be {"grid": {...}, ...}')
        grid = body["grid"]
        try:
            if isinstance(grid, dict):
                grid = {
                    str(name): [int(v) for v in values]
                    for name, values in grid.items()
                }
                if not grid or not all(grid.values()):
                    raise HttpError(400, "grid axes must be non-empty lists")
                points = 1
                for values in grid.values():
                    points *= len(values)
            elif isinstance(grid, list):
                grid = [
                    {str(name): int(v) for name, v in point.items()}
                    for point in grid
                ]
                points = len(grid)
            else:
                raise HttpError(400, "grid must be an axes object or a point list")
        except (TypeError, ValueError, AttributeError):
            raise HttpError(400, "grid values must be integers") from None
        if points == 0:
            raise HttpError(400, "grid expands to zero points")
        if points > 10_000:
            raise HttpError(422, f"grid expands to {points} points (max 10000)")
        names = grid if isinstance(grid, dict) else (n for p in grid for n in p)
        require_symbols(names, self._symbols, "grid parameter")
        line_size, capacity = _parse_cache_model(body)
        deadline = _parse_deadline(
            body.get("deadline_ms"), "deadline_ms", request.deadline
        )
        base = self._base

        def run_sweep(token: CancelToken, emit: Callable[[dict], None]) -> dict:
            def on_result(index: int, outcome: Any) -> None:
                if isinstance(outcome, SweepPointError):
                    emit({
                        "event": "point",
                        "index": index,
                        "params": dict(outcome.params),
                        "status": "failed",
                        "kind": outcome.kind,
                        "error": outcome.message,
                    })
                else:
                    emit({
                        "event": "point",
                        "index": index,
                        "status": "ok",
                        **outcome.to_dict(),
                    })

            with self.tracer.span("serve:sweep.run"):
                run = self.session.sweep(
                    grid,
                    line_size=line_size,
                    capacity_lines=capacity,
                    on_error="record",
                    cancel=token,
                    on_result=on_result,
                    base=base,
                )
            return {"points": len(run), "failed": len(run.errors)}

        return await self._stream(
            conn, deadline, run_sweep,
            start={"event": "start", "program": self.session.sdfg.name},
        )

    async def _handle_tune(self, conn: Connection, request: Request) -> bool:
        body = request.json()
        if not isinstance(body, dict) or "params" not in body:
            raise HttpError(400, 'tune body must be {"params": {...}, ...}')
        try:
            params = {
                str(name): int(value)
                for name, value in body["params"].items()
            }
        except (TypeError, ValueError, AttributeError):
            raise HttpError(400, "params must map symbols to integers") from None
        if not params:
            raise HttpError(400, "params must assign at least one symbol")
        require_symbols(params, self._symbols, "tune parameter")
        transforms = body.get("transforms")
        if transforms is not None and (
            not isinstance(transforms, list)
            or not all(isinstance(t, str) for t in transforms)
        ):
            raise HttpError(400, "transforms must be a list of names")
        line_size, capacity = _parse_cache_model(body)
        try:
            beam = int(body.get("beam", 6))
            depth = int(body.get("depth", 4))
            budget = int(body.get("budget", 128))
            timeout = body.get("timeout")
            timeout = None if timeout is None else float(timeout)
        except (TypeError, ValueError):
            raise HttpError(400, "tune settings must be numeric") from None
        if min(beam, depth, budget) < 1:
            raise HttpError(400, "beam, depth and budget must be >= 1")
        if budget > 10_000:
            raise HttpError(422, f"budget {budget} too large (max 10000)")
        deadline = _parse_deadline(
            body.get("deadline_ms"), "deadline_ms", request.deadline
        )

        def run_tune(token: CancelToken, emit: Callable[[dict], None]) -> None:
            # The search streams its own start, round, candidate and end
            # events; tuples inside descriptors go out as JSON arrays.
            with self.tracer.span("serve:tune.run"):
                self.session.tune(
                    params,
                    transforms=transforms,
                    beam=beam,
                    depth=depth,
                    budget=budget,
                    line_size=line_size,
                    capacity_lines=capacity,
                    timeout=timeout,
                    cancel=token,
                    on_event=emit,
                )

        return await self._stream(conn, deadline, run_tune)

    async def _stream(
        self,
        conn: Connection,
        deadline: Deadline | None,
        produce: Callable[[CancelToken, Callable[[dict], None]], dict | None],
        start: dict | None = None,
    ) -> bool:
        """Stream one run as close-delimited NDJSON: the one pump behind
        ``/v1/sweep`` and ``/v1/tune``.

        ``produce(token, emit)`` runs on the thread pool under the session
        lock; every ``emit(event)`` becomes one line, after *start*.
        *token* is the run's one stop signal: *deadline* arms it, and a
        disconnect or a server shutdown cancels it.  One rule closes the
        stream:

        - the producer raised: an ``error`` record naming the exception's
          type (``serve.stream_errors`` counts the non-library ones);
        - the deadline cut the run: the ``deadline`` record, counted in
          ``serve.deadline_exceeded``;
        - otherwise an ``end`` record, when the producer returned a
          summary (a tune streams its own ``end``).

        Error records carry ``points_streamed``, the events streamed
        before them; the deadline record and ``end`` also carry the
        summary and ``seconds``.
        """
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        token = CancelToken()
        timer = None if deadline is None else deadline.arm(token)
        _END = object()

        def emit(event: dict) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, event)

        def run() -> dict | None:
            try:
                with self._session_lock:
                    return produce(token, emit)
            finally:
                # Disarm before the end is queued: only a cut during the
                # run reads as the deadline, however slowly the client
                # reads what the run streamed.
                if timer is not None:
                    timer.cancel()
                loop.call_soon_threadsafe(queue.put_nowait, _END)

        began = time.perf_counter()
        task = asyncio.ensure_future(loop.run_in_executor(None, run))
        await conn.send_stream_head()
        streamed = 0
        try:
            if start is not None:
                await conn.send_stream_line(start)
            while (event := await queue.get()) is not _END:
                await conn.send_stream_line(event)
                streamed += 1
            try:
                summary = await task
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - the producer died
                # The status line is long gone; a silent close would look
                # like success to a streaming client.
                if not isinstance(exc, ReproError):
                    self.metrics.counter("serve.stream_errors").inc()
                await conn.send_stream_line({
                    "event": "error",
                    "kind": type(exc).__name__,
                    "error": str(exc),
                    "points_streamed": streamed,
                })
                return False
            seconds = time.perf_counter() - began
            if token.reason == DEADLINE_REASON:
                self.metrics.counter("serve.deadline_exceeded").inc()
                await conn.send_stream_line({
                    "event": "error",
                    "kind": "deadline",
                    "error": DEADLINE_REASON,
                    **(summary or {}),
                    "points_streamed": streamed,
                    "seconds": seconds,
                })
            elif summary is not None:
                await conn.send_stream_line(
                    {"event": "end", **summary, "seconds": seconds}
                )
        except (ConnectionError, OSError):
            # Client dropped mid-stream: stop the run cooperatively.
            self.metrics.counter("serve.disconnects").inc()
            token.cancel("client disconnected")
            await asyncio.wait({task})
        except asyncio.CancelledError:
            token.cancel("server shutting down")
            raise
        finally:
            if not task.done():
                await asyncio.wait({task})
        return False  # close-delimited stream
