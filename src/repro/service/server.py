"""The asyncio HTTP/1.1 front end over :class:`ProvenanceService`.

This is the serving half the facade was redesigned for: every facade
operation — submit/flush, ranked search with cursors, scans, health,
metrics, slow ops, retention, dead-letter repair — behind a small JSON
wire API, with :mod:`repro.service.admission` deciding *at the door*
whether a request may cost the service anything.  Stdlib only:
:func:`asyncio.start_server` for the sockets,
:mod:`repro.service.wire` for the framing, and the existing sync
facade on a bounded thread pool for the work.

Threading model
---------------

The event loop runs on one dedicated thread (:meth:`ProvenanceServer.
start` spawns it; the constructor never binds a port).  The loop
thread does *only* cheap work: framing, routing, admission, response
encoding.  Facade calls — everything that touches the journal, SQLite,
or the query cache — run on a :class:`~concurrent.futures.\
ThreadPoolExecutor` sized to the ingest pipeline's worker pool, so the
HTTP layer can never oversubscribe the shard workers it feeds.  When
every executor slot is busy *and* a loop-side inflight ceiling is hit,
new work sheds with 503 instead of queueing without bound.

Admission ordering (the tentpole invariant)
-------------------------------------------

For writes, admission runs on the loop thread **before** the facade
call is even scheduled: a rejected ``POST /v1/events`` costs zero
journal appends, zero sequences, zero SQLite — observable in the
benchmarks as ``journal.*`` counters staying flat while 429s rise.

Error surface
-------------

Every :class:`~repro.errors.ReproError` maps to a status through the
taxonomy's single :data:`~repro.errors.HTTP_STATUS_BY_CODE` table and
renders as ``{"error": {"code", "message"}}``.  Anything else is a
bug: the client gets an opaque 500 with an ``incident_id`` and the
full repr goes to the tracer's slow-op ring under that id — operators
can correlate, clients cannot introspect.
"""

from __future__ import annotations

import asyncio
import threading
import time
import uuid
from collections import Counter as TallyCounter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any, Awaitable, Callable

from repro.errors import (
    ConnectionLimitError,
    EndpointNotFoundError,
    OverloadedError,
    ProtocolError,
    RateLimitedError,
    ReproError,
    error_code,
    http_status_for,
)
from repro.service.admission import AdmissionController, AdmissionParams
from repro.service.events import decode_event, validate_user_id
from repro.service.service import ProvenanceService
from repro.service.wire import (
    CLOSE_STATUSES,
    WireLimits,
    WireRequest,
    encode_response,
    error_payload,
    read_request,
)

__all__ = ["ServerParams", "ProvenanceServer", "ROUTES"]


@dataclass(frozen=True)
class ServerParams:
    """Bind address, timeouts, and wire/admission limits."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port; read it back via ``server.port``.
    port: int = 0
    #: Budget for reading one full request (headers *and* body) — the
    #: slowloris bound: a client trickling bytes is cut off with 408.
    read_timeout_s: float = 10.0
    limits: WireLimits = field(default_factory=WireLimits)
    admission: AdmissionParams = field(default_factory=AdmissionParams)
    #: Requests allowed past admission but not yet completed by the
    #: facade executor; beyond it new work sheds with 503.  ``None``
    #: derives ``2 x`` the executor width.
    max_inflight: int | None = None


class _Route:
    __slots__ = ("method", "path", "endpoint", "handler_name")

    def __init__(self, method: str, path: str, endpoint: str) -> None:
        self.method = method
        self.path = path
        self.endpoint = endpoint
        self.handler_name = "_ep_" + endpoint


#: The wire API, one row per endpoint.  ``endpoint`` names the
#: per-endpoint latency histogram (``http.<endpoint>``) and the handler
#: method; :mod:`benchmarks.check_docs` walks this table to hold
#: ``docs/api.md`` to account for every row.
ROUTES: tuple[_Route, ...] = (
    _Route("POST", "/v1/events", "events"),
    _Route("POST", "/v1/flush", "flush"),
    _Route("GET", "/v1/search", "search"),
    _Route("GET", "/v1/search/ranked", "search_ranked"),
    _Route("GET", "/v1/search/global", "search_global"),
    _Route("GET", "/v1/ancestors", "ancestors"),
    _Route("GET", "/v1/descendants", "descendants"),
    _Route("GET", "/v1/stats", "stats"),
    _Route("GET", "/v1/stats/aggregate", "stats_aggregate"),
    _Route("GET", "/v1/health", "health"),
    _Route("GET", "/v1/metrics", "metrics"),
    _Route("GET", "/v1/slow_ops", "slow_ops"),
    _Route("GET", "/v1/deadletters", "deadletters"),
    _Route("POST", "/v1/deadletters/redrive", "redrive"),
    _Route("POST", "/v1/retention/expire_before", "expire_before"),
    _Route("POST", "/v1/retention/forget_site", "forget_site"),
    _Route("GET", "/v1/integrity", "integrity"),
    _Route("GET", "/v1/audit/report", "audit_report"),
)

_ROUTE_TABLE: dict[tuple[str, str], _Route] = {
    (route.method, route.path): route for route in ROUTES
}
_KNOWN_PATHS = frozenset(route.path for route in ROUTES)


def _query_int(request: WireRequest, name: str, default: int) -> int:
    raw = request.query.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise ProtocolError(
            f"query parameter {name!r} must be an integer, not {raw!r}"
        ) from None


def _query_required(request: WireRequest, name: str) -> str:
    value = request.query.get(name)
    if not value:
        raise ProtocolError(f"missing required query parameter {name!r}")
    return value


def _body_object(request: WireRequest) -> dict[str, Any]:
    payload = request.json()
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    return payload


class ProvenanceServer:
    """Serve one :class:`ProvenanceService` over HTTP.

    Usage::

        with ProvenanceService(root) as service:
            with ProvenanceServer(service) as server:
                ...  # http://127.0.0.1:{server.port}/v1/health

    The server owns its event-loop thread and facade executor but not
    the service: closing the server leaves the service open.
    """

    def __init__(
        self,
        service: ProvenanceService,
        params: ServerParams | None = None,
        *,
        admission: AdmissionController | None = None,
    ) -> None:
        self.service = service
        self.params = params if params is not None else ServerParams()
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(
                self.params.admission, metrics=service.metrics
            )
        )
        # The facade executor is sized to the shard worker pool: HTTP
        # concurrency beyond what ingest can absorb should queue at
        # most briefly and then shed, not pile onto SQLite.
        self._workers = max(2, service.ingest.workers or 2)
        self._max_inflight = (
            self.params.max_inflight
            if self.params.max_inflight is not None
            else self._workers * 2
        )
        self._executor: ThreadPoolExecutor | None = None
        self._inflight = 0  # touched only on the loop thread
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._port: int | None = None
        metrics = service.metrics
        self._metrics = metrics
        self._metric_requests = metrics.counter(
            "http.requests", label_name="endpoint"
        )
        self._metric_responses = metrics.counter(
            "http.responses", label_name="status"
        )

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "ProvenanceServer":
        """Bind and serve on a background thread; returns once ready."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="prov-http"
        )
        self._thread = threading.Thread(
            target=self._run_loop, name="prov-http-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            self._executor.shutdown(wait=False)
            self._executor = None
            raise self._startup_error
        return self

    def stop(self) -> None:
        """Stop accepting, close the port, and join the loop thread."""
        if self._thread is None:
            return
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)
        self._thread.join()
        self._thread = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("server is not running")
        return self._port

    @property
    def base_url(self) -> str:
        return f"http://{self.params.host}:{self.port}"

    def __enter__(self) -> "ProvenanceServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._started.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection,
            self.params.host,
            self.params.port,
            # The stream limit *is* the header-size enforcement: an
            # overlong line raises inside read_request (431) instead of
            # buffering without bound.
            limit=self.params.limits.max_header_bytes,
        )
        self._port = server.sockets[0].getsockname()[1]
        self._started.set()
        async with server:
            await self._stop.wait()

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            self.admission.connection_opened()
        except ConnectionLimitError as exc:
            # Refused before a single byte is read: at the cap even
            # parsing headers is capacity spent on a request we will
            # not serve.
            await self._send(
                writer,
                encode_response(
                    http_status_for(exc),
                    error_payload(error_code(exc), str(exc)),
                    keep_alive=False,
                ),
            )
            self._close(writer)
            return
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            # Shutdown cancels open keep-alive connections mid-read;
            # that is this server's orderly close, not an error to
            # propagate (the streams protocol would log it as one).
            pass
        finally:
            self.admission.connection_closed()
            self._close(writer)

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        limits = self.params.limits
        while True:
            try:
                request = await asyncio.wait_for(
                    read_request(reader, limits),
                    timeout=self.params.read_timeout_s,
                )
            except asyncio.TimeoutError:
                # Slowloris bound: headers or a declared body that
                # never arrives within the read budget.
                await self._send_counted(
                    writer,
                    408,
                    error_payload(
                        "bad_request",
                        f"request not received within"
                        f" {self.params.read_timeout_s}s",
                    ),
                )
                return
            except ReproError as exc:
                status = http_status_for(exc)
                await self._send_counted(
                    writer,
                    status,
                    error_payload(error_code(exc), str(exc)),
                )
                if status in CLOSE_STATUSES:
                    return
                continue
            except (ConnectionError, OSError):
                return
            if request is None:
                return  # client closed cleanly between requests
            status, response = await self._dispatch(request)
            if not await self._send(writer, response):
                return
            if not request.keep_alive() or status in CLOSE_STATUSES:
                return

    async def _send(
        self, writer: asyncio.StreamWriter, response: bytes
    ) -> bool:
        try:
            writer.write(response)
            await writer.drain()
            return True
        except (ConnectionError, OSError):
            return False

    async def _send_counted(
        self, writer: asyncio.StreamWriter, status: int, payload: Any
    ) -> None:
        self._metric_responses.inc(label=str(status))
        await self._send(
            writer, encode_response(status, payload, keep_alive=False)
        )

    def _close(self, writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except (ConnectionError, OSError):
            pass

    # -- dispatch ----------------------------------------------------------------

    async def _dispatch(self, request: WireRequest) -> tuple[int, bytes]:
        route = _ROUTE_TABLE.get((request.method, request.path))
        extra_headers: tuple[tuple[str, str], ...] = ()
        if route is None:
            if request.path in _KNOWN_PATHS:
                status: int = 405
                payload: Any = error_payload(
                    "method_not_allowed",
                    f"{request.method} is not allowed on {request.path}",
                )
            else:
                exc = EndpointNotFoundError(request.method, request.path)
                status = http_status_for(exc)
                payload = error_payload(error_code(exc), str(exc))
            self._metric_responses.inc(label=str(status))
            return status, encode_response(
                status, payload, keep_alive=request.keep_alive()
            )
        self._metric_requests.inc(label=route.endpoint)
        handler: Callable[[WireRequest], Awaitable[Any]] = getattr(
            self, route.handler_name
        )
        started = time.perf_counter()
        try:
            status, payload = 200, await handler(request)
        except RateLimitedError as exc:
            status = http_status_for(exc)
            details = {}
            # A sealed bucket (rate=0) never refills: no Retry-After,
            # and no Infinity leaking into the JSON body.
            if exc.retry_after_s != float("inf"):
                details["retry_after_s"] = exc.retry_after_s
                extra_headers = (
                    ("Retry-After", str(max(1, round(exc.retry_after_s)))),
                )
            payload = error_payload(error_code(exc), str(exc), **details)
        except ReproError as exc:
            status = http_status_for(exc)
            payload = error_payload(error_code(exc), str(exc))
        except Exception as exc:
            # Not part of the taxonomy: a bug.  Clients get an opaque
            # incident id; the repr goes to the slow-op ring under it.
            incident_id = uuid.uuid4().hex[:12]
            self.service.tracer.log_incident(
                {
                    "op": "http.incident",
                    "incident_id": incident_id,
                    "endpoint": route.endpoint,
                    "error": repr(exc),
                }
            )
            status = 500
            payload = error_payload(
                "internal",
                "internal server error",
                incident_id=incident_id,
            )
        self._metrics.histogram("http." + route.endpoint).observe(
            time.perf_counter() - started
        )
        self._metric_responses.inc(label=str(status))
        return status, encode_response(
            status,
            payload,
            keep_alive=request.keep_alive(),
            extra_headers=extra_headers,
        )

    async def _call(self, fn: Callable[[], Any]) -> Any:
        """Run a facade call on the executor, bounded by the inflight cap."""
        if self._inflight >= self._max_inflight:
            raise OverloadedError(
                f"all {self._max_inflight} request slots are busy"
            )
        assert self._loop is not None and self._executor is not None
        self._inflight += 1
        try:
            return await self._loop.run_in_executor(self._executor, fn)
        finally:
            self._inflight -= 1

    # -- endpoints: writes -------------------------------------------------------

    async def _ep_events(self, request: WireRequest) -> Any:
        payload = _body_object(request)
        encoded = payload.get("events")
        if not isinstance(encoded, list) or not encoded:
            raise ProtocolError(
                'request body must carry a non-empty "events" list'
            )
        events = []
        costs: TallyCounter[str] = TallyCounter()
        for entry in encoded:
            try:
                event = decode_event(entry)
            except ReproError:
                raise
            except Exception as exc:
                raise ProtocolError(f"malformed event: {exc}") from None
            events.append(event)
            costs[event.user_id] += 1
        for user_id in costs:
            validate_user_id(user_id)
        # The tentpole invariant: admission happens HERE, on the loop
        # thread, before any executor hand-off — a rejected batch never
        # reaches the journal (no append, no sequence, no SQLite).
        # pending() is a lock-free read, so the loop never waits on the
        # pipeline lock.
        self.admission.admit_write(costs, self.service.ingest.pending())
        # One journal commit for the whole request: the 200 goes out
        # only once every event in it is durable.
        seqs = await self._call(lambda: self.service.record_events(events))
        return {"accepted": len(seqs), "seqs": seqs}

    async def _ep_flush(self, request: WireRequest) -> Any:
        self.admission.admit_read(None)
        applied = await self._call(self.service.flush)
        return {"applied": applied}

    # -- endpoints: tenant reads -------------------------------------------------

    async def _ep_search(self, request: WireRequest) -> Any:
        user_id = _query_required(request, "user")
        term = _query_required(request, "term")
        limit = _query_int(request, "limit", 50)
        validate_user_id(user_id)
        self.admission.admit_read(user_id)
        hits = await self._call(
            lambda: self.service.search(user_id, term, limit=limit)
        )
        return {"hits": hits}

    async def _ep_search_ranked(self, request: WireRequest) -> Any:
        term = _query_required(request, "term")
        user_id = request.query.get("user") or None
        limit = _query_int(request, "limit", 50)
        cursor = request.query.get("cursor") or None
        if user_id is not None:
            validate_user_id(user_id)
        self.admission.admit_read(user_id)
        page = await self._call(
            lambda: self.service.ranked_search(
                term, user_id=user_id, limit=limit, cursor=cursor
            )
        )
        return page.to_dict()

    async def _ep_search_global(self, request: WireRequest) -> Any:
        term = _query_required(request, "term")
        limit = _query_int(request, "limit", 50)
        self.admission.admit_read(None)
        rows = await self._call(
            lambda: self.service.global_search(term, limit=limit)
        )
        return {"hits": [[user_id, nid] for user_id, nid in rows]}

    async def _ep_ancestors(self, request: WireRequest) -> Any:
        return await self._walk(request, "ancestors")

    async def _ep_descendants(self, request: WireRequest) -> Any:
        return await self._walk(request, "descendants")

    async def _walk(self, request: WireRequest, direction: str) -> Any:
        user_id = _query_required(request, "user")
        node_id = _query_required(request, "node")
        max_depth = _query_int(request, "max_depth", 100)
        validate_user_id(user_id)
        self.admission.admit_read(user_id)
        walk = getattr(self.service, direction)
        rows = await self._call(
            lambda: walk(user_id, node_id, max_depth=max_depth)
        )
        return {"nodes": [[nid, depth] for nid, depth in rows]}

    async def _ep_stats(self, request: WireRequest) -> Any:
        user_id = _query_required(request, "user")
        validate_user_id(user_id)
        self.admission.admit_read(user_id)
        stats = await self._call(lambda: self.service.stats(user_id))
        return stats.to_dict()

    # -- endpoints: service-wide reads -------------------------------------------

    async def _ep_stats_aggregate(self, request: WireRequest) -> Any:
        self.admission.admit_read(None)
        stats = await self._call(self.service.aggregate_stats)
        return stats.to_dict()

    async def _ep_health(self, request: WireRequest) -> Any:
        max_tenants = _query_int(request, "max_tenants", 100)
        self.admission.admit_read(None)
        health = await self._call(
            lambda: self.service.health(max_tenants=max_tenants)
        )
        return health.to_dict()

    async def _ep_metrics(self, request: WireRequest) -> Any:
        self.admission.admit_read(None)
        return await self._call(self.service.metrics_snapshot)

    async def _ep_slow_ops(self, request: WireRequest) -> Any:
        self.admission.admit_read(None)
        return {"slow_ops": self.service.slow_ops()}

    async def _ep_deadletters(self, request: WireRequest) -> Any:
        self.admission.admit_read(None)
        letters = await self._call(self.service.deadlettered)
        return {"deadletters": [letter.to_dict() for letter in letters]}

    # -- endpoints: integrity & audit --------------------------------------------

    async def _ep_integrity(self, request: WireRequest) -> Any:
        self.admission.admit_read(None)
        report = await self._call(self.service.verify_integrity)
        return report.to_dict()

    async def _ep_audit_report(self, request: WireRequest) -> Any:
        user_id = _query_required(request, "user")
        validate_user_id(user_id)
        self.admission.admit_read(user_id)
        return await self._call(
            lambda: self.service.audit_report(user_id)
        )

    # -- endpoints: operations ---------------------------------------------------

    async def _ep_redrive(self, request: WireRequest) -> Any:
        payload = _body_object(request)
        seq = payload.get("seq")
        if not isinstance(seq, int):
            raise ProtocolError('request body must carry an integer "seq"')
        replacement = None
        if payload.get("event") is not None:
            try:
                replacement = decode_event(payload["event"])
            except ReproError:
                raise
            except Exception as exc:
                raise ProtocolError(f"malformed event: {exc}") from None
        self.admission.admit_read(None)
        new_seq = await self._call(
            lambda: self.service.redrive(seq, event=replacement)
        )
        return {"seq": new_seq}

    async def _ep_expire_before(self, request: WireRequest) -> Any:
        payload = _body_object(request)
        user_id = payload.get("user_id")
        cutoff_us = payload.get("cutoff_us")
        if not isinstance(user_id, str) or not isinstance(cutoff_us, int):
            raise ProtocolError(
                'request body must carry "user_id" (string) and'
                ' "cutoff_us" (integer)'
            )
        validate_user_id(user_id)
        self.admission.admit_read(user_id)
        report = await self._call(
            lambda: self.service.expire_before(
                user_id,
                cutoff_us,
                bridge=bool(payload.get("bridge", True)),
                compact=bool(payload.get("compact", False)),
            )
        )
        result = asdict(report)
        result["nodes_after"] = report.nodes_after
        return result

    async def _ep_forget_site(self, request: WireRequest) -> Any:
        payload = _body_object(request)
        user_id = payload.get("user_id")
        site = payload.get("site")
        if not isinstance(user_id, str) or not isinstance(site, str):
            raise ProtocolError(
                'request body must carry "user_id" and "site" strings'
            )
        validate_user_id(user_id)
        self.admission.admit_read(user_id)
        report = await self._call(
            lambda: self.service.forget_site(
                user_id, site, compact=bool(payload.get("compact", False))
            )
        )
        return asdict(report)
