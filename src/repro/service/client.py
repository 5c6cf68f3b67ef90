"""A small typed client for the planner service (stdlib ``http.client``).

The client speaks the same :mod:`repro.service.schemas` vocabulary the
server does — requests go in as dataclasses, responses come back as
dataclasses — so test code and examples never touch raw JSON.

Each thread calling a client keeps one persistent connection to the
server, so one client can be shared by many threads.  A connection the
server closed while it sat idle is reopened once and the request resent;
that is the only retry.  Errors on a fresh connection surface as they
are, and other retry policy belongs to the caller, who can see
:class:`ServiceError.retry_after` on 429/503.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from .schemas import (
    HealthResponse,
    PlanResponse,
    SpecRequest,
    StatsResponse,
    SweepItem,
    SweepRequest,
    SweepResponse,
    TuneRequest,
    TuneResponse,
)

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx response, carrying the server's structured body."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        self.status = status
        self.payload = payload
        self.errors = payload.get("errors", [])
        self.retry_after = payload.get("retry_after")
        super().__init__(
            f"HTTP {status}: {payload.get('error', 'unknown error')}"
        )


#: What a request on a reused connection raises when the server has
#: already closed it; the client reconnects once and resends.
_STALE = (
    http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError,
)


def _exchange(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    body: Optional[str],
    headers: Dict[str, str],
) -> Tuple[http.client.HTTPResponse, bytes]:
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response, response.read()


class ServiceClient:
    """Typed calls against one planner-service address."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8077,
        tenant: Optional[str] = None,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self._local = threading.local()  # .conn: this thread's connection

    # -- transport ----------------------------------------------------------

    def request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One HTTP round trip; raises :class:`ServiceError` on non-2xx."""
        headers = {"Content-Type": "application/json"}
        if self.tenant is not None:
            headers["X-Tenant"] = self.tenant
        body = None if payload is None else json.dumps(payload)
        conn = getattr(self._local, "conn", None)
        reused = conn is not None
        if not reused:
            conn = self._connect()
        try:
            try:
                response, raw = _exchange(conn, method, path, body, headers)
            except _STALE:
                if not reused:
                    raise
                # The server closed this connection while it sat idle.
                conn.close()
                conn = self._connect()
                response, raw = _exchange(conn, method, path, body, headers)
        except BaseException:
            conn.close()
            self._local.conn = None
            raise
        if response.will_close:
            conn.close()
            self._local.conn = None
        decoded = json.loads(raw.decode()) if raw else {}
        if not 200 <= response.status < 300:
            raise ServiceError(response.status, decoded)
        return decoded

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        self._local.conn = conn
        return conn

    def wait_ready(self, timeout: float = 30.0) -> HealthResponse:
        """Poll ``/healthz`` until the service answers (or raise)."""
        deadline = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except (OSError, socket.timeout, ServiceError) as exc:
                last = exc
                time.sleep(0.05)
        raise TimeoutError(
            f"service at {self.host}:{self.port} not ready "
            f"within {timeout}s: {last}"
        )

    # -- endpoints ----------------------------------------------------------

    def plan(self, spec: SpecRequest) -> PlanResponse:
        payload = self.request("POST", "/plan", spec.to_payload())
        return PlanResponse.from_payload(payload)

    def sweep(
        self,
        items: Sequence[SweepItem],
        return_results: bool = False,
    ) -> SweepResponse:
        request = SweepRequest(items=tuple(items),
                               return_results=return_results)
        payload = self.request("POST", "/sweep", request.to_payload())
        return SweepResponse.from_payload(payload)

    def tune(self, specs: Iterable[SpecRequest], seed: int = 0) -> TuneResponse:
        request = TuneRequest(specs=tuple(specs), seed=seed)
        payload = self.request("POST", "/tune", request.to_payload())
        return TuneResponse.from_payload(payload)

    def stats(self) -> StatsResponse:
        return StatsResponse.from_payload(self.request("GET", "/stats"))

    def healthz(self) -> HealthResponse:
        return HealthResponse.from_payload(self.request("GET", "/healthz"))

    def metric(self, key: str, default: Any = None) -> Any:
        """One series out of ``/stats`` (exact key, labels included)."""
        return self.stats().metrics.get(key, default)
