"""Planner-as-a-service: the asyncio HTTP/JSON front end.

The library made planning pure and memoized (``plan(spec)`` →
:data:`~repro.core.cache.PLAN_CACHE`), the engine made execution warm
and persistent (:class:`~repro.engine.session.EngineSession`, TuneDB),
and PR 9 made everything observable (:data:`~repro.obs.metrics.METRICS`).
This module is the front end that turns those pieces into
infrastructure: a long-lived process answering "what's the best
collective for (kind, grid, B)?" over HTTP, in microseconds when the
answer is memoized.

Endpoints (all JSON, schemas in :mod:`repro.service.schemas`):

* ``POST /plan`` — resolve one spec.  Identical concurrent specs are
  *coalesced*: N in-flight requests for the same spec share one planner
  invocation (:meth:`PlanCache.get_or_plan_async`), counted by the
  ``service.coalesced`` metric.
* ``POST /sweep`` — execute a batch of (spec, input) points through the
  service's :class:`EngineSession`; results are bit-identical to the
  library's ``run_many``.
* ``POST /tune`` — autotune specs (measure every feasible candidate,
  persist winners in the service TuneDB).
* ``GET /stats`` — the full metrics-registry snapshot (plan cache,
  engine, TuneDB sources *and* the ``service.*`` request/coalesce/
  reject counters and latency histograms).
* ``GET /healthz`` — liveness.

Request handling never blocks the event loop: planning, sweeping and
tuning run in a bounded thread pool via ``run_in_executor`` while the
loop keeps accepting connections.  Two admission layers protect the
pool: a per-tenant token bucket (``X-Tenant`` header; 429 + Retry-After
past the burst) and a bounded heavy-work queue (503 + Retry-After when
``max_inflight`` executions plus ``queue_depth`` waiters are already
in the house).  On boot the plan cache is warm-started from the TuneDB
(:meth:`TuneDB.hydrate_plan_cache`), so recorded specs are cache hits
from the first request.

Connections are persistent (HTTP/1.1 keep-alive): one connection
carries requests until the peer closes it, a request says
``Connection: close`` or is HTTP/1.0, a request cannot be framed, or it
sits idle for :data:`IDLE_TIMEOUT_S`.  Bodies are ``Content-Length``
only; ``Transfer-Encoding`` is a 400 that closes the connection, as is
any error raised before the body was read in full (a 413 included), so
a connection never parses body bytes as the next request.  Admission
(429/503) is per request, and the latency histogram starts when a
request line arrives, so idle time between requests is never counted.
:meth:`PlannerService.stop` closes every open connection.

Everything here is stdlib: ``asyncio`` sockets and a small HTTP/1.1
reader — no web framework, no new runtime dependency.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple, Union

from ..core import config as _config
from ..core.api import plan as _lib_plan
from ..core.cache import PLAN_CACHE
from ..core.registry import CollectiveSpec
from ..engine.autotune import tune as _lib_tune
from ..engine.session import EngineSession
from ..engine.store import TuneDB, default_db_path
from ..obs import spans as _obs
from ..obs.metrics import METRICS
from .schemas import (
    ErrorResponse,
    HealthResponse,
    PlanResponse,
    SpecRequest,
    StatsResponse,
    SweepOutcome,
    SweepRequest,
    SweepResponse,
    TuneOutcome,
    TuneRequest,
    TuneResponse,
    ValidationError,
)

__all__ = ["ServiceConfig", "PlannerService", "serve_in_thread"]

#: Largest accepted request body; bigger gets 413 without reading it in.
MAX_BODY_BYTES = 8 << 20

#: Seconds a connection may wait for its next request line before the
#: server closes it.
IDLE_TIMEOUT_S = 5.0

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class ServiceConfig:
    """Every service knob, resolved once at boot.

    :meth:`from_env` reads the ``REPRO_SERVICE_*`` registry entries
    (see ``python -m repro.core.config``); explicit constructor
    arguments win over the environment.
    """

    host: str = "127.0.0.1"
    port: int = 8077
    workers: int = 4                  # executor threads for blocking work
    sweep_workers: int = 1            # the EngineSession's process pool
    rate: float = 100.0               # per-tenant requests/second
    burst: int = 200                  # per-tenant token-bucket capacity
    max_inflight: int = 8             # concurrent heavy executions
    queue_depth: int = 64             # admission queue past max_inflight
    db: Optional[str] = None          # TuneDB path; "-" disables warm start

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServiceConfig":
        cfg = cls(
            host=_config.env_str("REPRO_SERVICE_HOST", "127.0.0.1"),
            port=_config.env_int("REPRO_SERVICE_PORT", 8077),
            workers=max(1, _config.env_int("REPRO_SERVICE_WORKERS", 4)),
            sweep_workers=max(
                1, _config.env_int("REPRO_SERVICE_SWEEP_WORKERS", 1)
            ),
            rate=_config.env_float("REPRO_SERVICE_RATE", 100.0),
            burst=max(1, _config.env_int("REPRO_SERVICE_BURST", 200)),
            max_inflight=max(
                1, _config.env_int("REPRO_SERVICE_MAX_INFLIGHT", 8)
            ),
            queue_depth=max(0, _config.env_int("REPRO_SERVICE_QUEUE", 64)),
            db=_config.env_str("REPRO_SERVICE_DB") or None,
        )
        for name, value in overrides.items():
            if value is not None:
                setattr(cfg, name, value)
        return cfg

    def resolve_db(self) -> Optional[str]:
        """The TuneDB path to warm-start from, or ``None``.

        ``"-"`` explicitly disables.  Unset falls back to the default
        store location *when a store already exists there* — a fresh
        box boots cold rather than inventing an empty DB file.
        """
        if self.db == "-":
            return None
        if self.db:
            return self.db
        default = default_db_path()
        return str(default) if default.exists() else None


class _TokenBucket:
    """Per-tenant token buckets; loop-thread only, so no locking.

    Classic refill-on-demand: each tenant holds up to ``burst`` tokens,
    regaining ``rate`` per second.  :meth:`admit` answers
    ``(ok, retry_after_seconds)``.
    """

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = max(rate, 1e-9)
        self.burst = float(burst)
        self._buckets: Dict[str, Tuple[float, float]] = {}

    def admit(self, tenant: str) -> Tuple[bool, float]:
        now = time.monotonic()
        tokens, last = self._buckets.get(tenant, (self.burst, now))
        tokens = min(self.burst, tokens + (now - last) * self.rate)
        if tokens >= 1.0:
            self._buckets[tenant] = (tokens - 1.0, now)
            return True, 0.0
        self._buckets[tenant] = (tokens, now)
        return False, (1.0 - tokens) / self.rate


class PlannerService:
    """The service: routes, admission, coalescing, metrics — one object.

    Create, then either ``await start()`` inside a running loop (tests,
    embedding) or use :func:`serve_in_thread` / ``python -m
    repro.service`` for a self-contained lifetime.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        session: Optional[EngineSession] = None,
    ) -> None:
        self.config = config or ServiceConfig.from_env()
        self._owns_session = session is None
        self.session = session
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-service",
        )
        # The engine/session are not reentrant across threads; heavy
        # batch work (sweep/tune) serializes on this lock inside the
        # executor while /plan traffic keeps flowing.
        self._batch_lock = threading.Lock()
        self._bucket = _TokenBucket(self.config.rate, self.config.burst)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._sem: Optional[asyncio.Semaphore] = None
        self._waiting = 0
        self._started = time.monotonic()
        self.hydrated_plans = 0
        self.tunedb: Optional[TuneDB] = None
        m = METRICS
        self._m_connections = m.counter("service.connections")
        self._m_requests = m.counter("service.requests")
        self._m_coalesced = m.counter("service.coalesced")
        self._m_rejected = m.counter("service.rejected")
        self._m_latency = m.histogram("service.latency_seconds")

    # -- lifecycle ----------------------------------------------------------

    @property
    def uptime(self) -> float:
        return time.monotonic() - self._started

    async def start(
        self, host: Optional[str] = None, port: Optional[int] = None
    ) -> Tuple[str, int]:
        """Bind and serve; returns the actual (host, port) bound.

        ``port=0`` asks the OS for an ephemeral port — how tests and the
        CI smoke run many services without colliding.
        """
        cfg = self.config
        self._sem = asyncio.Semaphore(cfg.max_inflight)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, self._boot_blocking)
        self._server = await asyncio.start_server(
            self._handle_connection,
            host if host is not None else cfg.host,
            cfg.port if port is None else port,
        )
        sock = self._server.sockets[0].getsockname()
        self._started = time.monotonic()
        METRICS.gauge("service.warm_plans").set(self.hydrated_plans)
        return sock[0], sock[1]

    def _boot_blocking(self) -> None:
        """Warm start, off the loop: session pool + TuneDB hydration."""
        db_path = self.config.resolve_db()
        if db_path is not None:
            self.tunedb = TuneDB(db_path)
        if self.session is None:
            self.session = EngineSession(
                workers=self.config.sweep_workers, db=self.tunedb,
            )
        if _obs.enabled():
            with _obs.span("service.boot") as sp:
                self.session.attach()
                sp.add(plans=len(PLAN_CACHE))
        else:
            self.session.attach()
        self.hydrated_plans = len(PLAN_CACHE)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener, every connection and the pools; idempotent."""
        if self._server is not None:
            self._server.close()
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        if self._owns_session and self.session is not None:
            session, self.session = self.session, None
            await asyncio.get_running_loop().run_in_executor(
                None, session.close
            )
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._m_connections.inc()
        self._connections.add(writer)
        loop = asyncio.get_running_loop()
        try:
            while True:
                # Closing an idle connection ends the read below with EOF.
                idle = loop.call_later(IDLE_TIMEOUT_S, writer.close)
                try:
                    request_line = await reader.readline()
                except ValueError:  # longer than the stream's line limit
                    request_line = b"-"  # answered as a malformed line
                finally:
                    idle.cancel()
                if not request_line:
                    break  # the peer closed, the idle timeout, or stop()
                if not await self._serve_one(request_line, reader, writer):
                    break
        except OSError:
            pass  # the peer went away while its response was written
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _serve_one(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Answer one request; ``True`` if the connection stays open."""
        started = time.monotonic()
        method = path = "?"
        keep_alive = False  # until the request is framed and asks for it
        try:
            method, path, headers, body, keep_alive = (
                await self._read_request(request_line, reader)
            )
            status, payload = await self._route(method, path, headers, body)
        except _HttpError as exc:
            status, payload = exc.status, exc.response.to_payload()
        except (asyncio.IncompleteReadError, OSError):
            return False  # the connection failed mid-request
        except ValidationError as exc:
            status = 400
            payload = ErrorResponse(
                "invalid request", errors=tuple(exc.errors)
            ).to_payload()
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            status = 500
            payload = ErrorResponse(f"internal error: {exc}").to_payload()
        endpoint = path.split("?", 1)[0]
        self._m_requests.inc(endpoint=endpoint, status=status)
        self._m_latency.observe(time.monotonic() - started, endpoint=endpoint)
        await self._write_response(writer, status, payload, keep_alive)
        return keep_alive

    @staticmethod
    async def _read_request(
        request_line: bytes, reader: asyncio.StreamReader,
    ) -> Tuple[str, str, Dict[str, str], bytes, bool]:
        """Frame one request: ``(method, path, headers, body, keep_alive)``.

        Raises :class:`_HttpError` for anything that cannot be framed;
        the caller then closes the connection.
        """
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, ErrorResponse("malformed request line"))
        method, path, version = parts
        headers: Dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except ValueError:  # longer than the stream's line limit
                raise _HttpError(400, ErrorResponse("header line too long"))
            line = raw.decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise _HttpError(400, ErrorResponse(
                "Transfer-Encoding is not supported; send Content-Length"
            ))
        text = headers.get("content-length", "0")
        if not (text.isascii() and text.isdigit()):
            raise _HttpError(400, ErrorResponse(
                f"malformed Content-Length {text!r}"
            ))
        length = int(text)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, ErrorResponse(
                f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
            ))
        body = await reader.readexactly(length) if length else b""
        tokens = headers.get("connection", "").lower().split(",")
        keep_alive = version == "HTTP/1.1" and "close" not in map(
            str.strip, tokens
        )
        return method, path, headers, body, keep_alive

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict[str, Any], bytes],
        keep_alive: bool,
    ) -> None:
        """Send one response; ``payload`` is a JSON-able dict or the body."""
        if isinstance(payload, bytes):
            body, retry_after = payload, None
        else:
            body = json.dumps(payload).encode()
            retry_after = payload.get("retry_after")
        text = _STATUS_TEXT.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {text}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if retry_after is not None:
            head += f"Retry-After: {max(1, int(retry_after + 0.999))}\r\n"
        connection = "keep-alive" if keep_alive else "close"
        head += f"Connection: {connection}\r\n\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routing and admission ----------------------------------------------

    async def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Union[Dict[str, Any], bytes]]:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            self._require(method, "GET")
            return 200, self._healthz().to_payload()
        if path == "/stats":
            self._require(method, "GET")
            return 200, self._stats().to_payload()
        if path not in ("/plan", "/sweep", "/tune"):
            raise _HttpError(404, ErrorResponse(f"no such endpoint {path!r}"))
        self._require(method, "POST")
        payload = self._parse_json(body)
        tenant = headers.get("x-tenant", "default")
        ok, retry_after = self._bucket.admit(tenant)
        if not ok:
            self._m_rejected.inc(reason="rate_limit", tenant=tenant)
            raise _HttpError(429, ErrorResponse(
                f"tenant {tenant!r} over rate limit", retry_after=retry_after,
            ))
        handler = {
            "/plan": self._handle_plan,
            "/sweep": self._handle_sweep,
            "/tune": self._handle_tune,
        }[path]
        if _obs.enabled():
            with _obs.span("service.request", endpoint=path, tenant=tenant):
                response = await self._admitted(path, handler(payload))
        else:
            response = await self._admitted(path, handler(payload))
        if path == "/sweep":  # bulk arrays: the body is written from them
            return 200, response.to_json().encode()
        return 200, response.to_payload()

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, ErrorResponse(
                f"method {method} not allowed (use {expected})"
            ))

    @staticmethod
    def _parse_json(body: bytes) -> Any:
        try:
            return json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:  # too deeply nested to decode
            raise _HttpError(400, ErrorResponse(f"invalid JSON body: {exc}"))

    async def _admitted(self, path: str, work) -> Any:
        """Run ``work`` under the bounded heavy-request admission gate."""
        assert self._sem is not None
        if self._sem.locked() and self._waiting >= self.config.queue_depth:
            work.close()  # never started; drop the coroutine cleanly
            self._m_rejected.inc(reason="overload", endpoint=path)
            raise _HttpError(503, ErrorResponse(
                "service at capacity", retry_after=1.0,
            ))
        self._waiting += 1
        try:
            await self._sem.acquire()
        finally:
            self._waiting -= 1
        try:
            return await work
        finally:
            self._sem.release()

    # -- endpoint handlers --------------------------------------------------

    def _healthz(self) -> HealthResponse:
        from .. import __version__

        return HealthResponse(status="ok", version=__version__,
                              uptime_seconds=self.uptime)

    def _stats(self) -> StatsResponse:
        from .. import __version__

        return StatsResponse(metrics=METRICS.snapshot(),
                             uptime_seconds=self.uptime,
                             version=__version__)

    async def _handle_plan(self, payload: Any) -> PlanResponse:
        request = SpecRequest.from_payload(payload)
        spec = request.to_spec()
        cached = spec in PLAN_CACHE
        coalesced = not cached and PLAN_CACHE.async_inflight(spec)
        if coalesced:
            self._m_coalesced.inc()
        try:
            built = await PLAN_CACHE.get_or_plan_async(
                spec, self._plan_blocking, executor=self._executor,
            )
        except ValueError as exc:
            # Planner rejections (infeasible/unknown algorithm) are the
            # caller's problem, not a server fault.
            raise ValidationError([{"field": "spec", "message": str(exc)}])
        return PlanResponse(
            spec=SpecRequest.from_spec(spec),
            algorithm=built.algorithm,
            predicted_cycles=built.predicted_cycles,
            cached=cached,
            coalesced=coalesced,
        )

    @staticmethod
    def _plan_blocking(spec: CollectiveSpec):
        # use_cache=False: get_or_plan_async already owns the cache slot
        # (store + single-flight); planning through the cached path here
        # would nest two flights for the same spec.
        return _lib_plan(spec, use_cache=False)

    async def _handle_sweep(self, payload: Any) -> SweepResponse:
        request = SweepRequest.from_payload(payload)
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._executor, self._sweep_blocking, request,
            )
        except ValueError as exc:
            raise ValidationError([{"field": "items", "message": str(exc)}])
        return SweepResponse(outcomes=tuple(outcomes))

    def _sweep_blocking(self, request: SweepRequest):
        specs = [item.spec.to_spec() for item in request.items]
        datas = [item.input_array() for item in request.items]
        with self._batch_lock:
            session = self.session
            assert session is not None, "service not started"
            results = session.sweep(specs, datas)
        return [
            SweepOutcome(
                algorithm=outcome.algorithm,
                predicted_cycles=outcome.predicted_cycles,
                measured_cycles=outcome.measured_cycles,
                backend=outcome.sim.backend,
                result=outcome.result if request.return_results else None,
            )
            for outcome in results
        ]

    async def _handle_tune(self, payload: Any) -> TuneResponse:
        request = TuneRequest.from_payload(payload)
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._executor, self._tune_blocking, request,
            )
        except ValueError as exc:
            raise ValidationError([{"field": "specs", "message": str(exc)}])
        return TuneResponse(outcomes=tuple(outcomes))

    def _tune_blocking(self, request: TuneRequest):
        specs = [s.to_spec() for s in request.specs]
        with self._batch_lock:
            db = self.tunedb
            if db is None:
                # db="-" disables *warm start*, not tuning: winners still
                # need a store, so fall back to the default location.
                path = self.config.db
                if not path or path == "-":
                    path = str(default_db_path())
                db = self.tunedb = TuneDB(path)
            _lib_tune(specs, db=db, workers=1, seed=request.seed)
        out = []
        for spec in specs:
            record = db.lookup(spec.with_algorithm("auto"))
            out.append(TuneOutcome(
                spec=SpecRequest.from_spec(spec),
                winner_algorithm=(
                    record.winner_algorithm if record is not None else None
                ),
                measured=dict(record.measured) if record is not None else {},
            ))
        return out


class _HttpError(Exception):
    """An HTTP status the router decided on, with its JSON body."""

    def __init__(self, status: int, response: ErrorResponse) -> None:
        self.status = status
        self.response = response
        super().__init__(response.error)


# -- embedding helper --------------------------------------------------------


@contextmanager
def serve_in_thread(
    config: Optional[ServiceConfig] = None,
    session: Optional[EngineSession] = None,
):
    """Run a service on a background thread; yields ``(service, host, port)``.

    The loop, the listener and the executor all live on the background
    thread and are torn down on exit — how the integration tests and the
    example embed a live server in one process.  The bound port is
    whatever the config asked for (``port=0`` for ephemeral).
    """
    service = PlannerService(config=config, session=session)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    boot: Dict[str, Any] = {}

    async def _boot():
        try:
            boot["addr"] = await service.start()
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            boot["error"] = exc
        finally:
            ready.set()

    def _run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(_boot())
        if "error" not in boot:
            loop.run_forever()

    thread = threading.Thread(
        target=_run, name="repro-service-loop", daemon=True
    )
    thread.start()
    if not ready.wait(timeout=30):
        raise RuntimeError("service failed to boot within 30s")
    if "error" in boot:
        thread.join(timeout=5)
        loop.close()
        raise boot["error"]
    host, port = boot["addr"]
    try:
        yield service, host, port
    finally:
        asyncio.run_coroutine_threadsafe(service.stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
