"""Planner-service integration tests: a live server in this process.

Each server runs via :func:`repro.service.app.serve_in_thread` — real
sockets, real HTTP, the real asyncio loop — while the tests keep access
to process-global state (the plan cache, the metrics registry, the
planner internals) to make the coalescing and bit-identity claims
counter-assertable rather than anecdotal:

* N concurrent identical ``/plan`` requests invoke the planner exactly
  once (monkeypatched counting planner + the ``service.coalesced``
  metric both agree);
* service answers are bit-identical to the library path (plan
  prediction and seeded sweep results);
* malformed specs 400 with every field error collected, over-rate
  tenants 429 with ``retry_after``, an over-capacity service 503s;
* connections persist: raw-socket tests pin the keep-alive framing
  (``Connection: close``, HTTP/1.0, ``Transfer-Encoding``, malformed
  ``Content-Length``, 413, idle timeout, ``stop()``), and client tests
  pin one connection per thread and the single reconnect.
"""

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

import repro
from repro.core.api import execute, plan as lib_plan
from repro.service import app as service_app
from repro.core.cache import PLAN_CACHE
from repro.obs.metrics import METRICS
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SpecRequest,
    SweepItem,
    seeded_input,
    serve_in_thread,
)


def _config(**overrides) -> ServiceConfig:
    base = dict(port=0, db="-", sweep_workers=1, workers=4)
    base.update(overrides)
    return ServiceConfig(**base)


@pytest.fixture(scope="module")
def server():
    """One shared server for the read-mostly tests."""
    with serve_in_thread(config=_config()) as (service, host, port):
        yield ServiceClient(host, port)


def _spec(b: int, cols: int = 16) -> SpecRequest:
    return SpecRequest(kind="reduce", rows=1, cols=cols, b=b)


# -- basic surface -----------------------------------------------------------


def test_healthz_reports_version_and_uptime(server):
    health = server.healthz()
    assert health.status == "ok"
    assert health.version == repro.__version__
    assert health.uptime_seconds >= 0


def test_plan_miss_then_cached_hit(server):
    spec = _spec(b=48)
    PLAN_CACHE.clear()
    first = server.plan(spec)
    assert not first.cached
    second = server.plan(spec)
    assert second.cached and not second.coalesced
    assert first.algorithm == second.algorithm
    assert first.predicted_cycles == second.predicted_cycles
    assert first.spec == spec


def test_plan_matches_library_prediction_exactly(server):
    spec = _spec(b=80)
    response = server.plan(spec)
    local = lib_plan(spec.to_spec())
    assert response.algorithm == local.algorithm
    assert response.predicted_cycles == local.predicted_cycles


def test_unknown_endpoint_404_and_wrong_method_405(server):
    with pytest.raises(ServiceError) as err:
        server.request("GET", "/nope")
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        server.request("GET", "/plan")
    assert err.value.status == 405
    with pytest.raises(ServiceError) as err:
        server.request("POST", "/stats", {})
    assert err.value.status == 405


def test_malformed_spec_collects_every_field_error(server):
    with pytest.raises(ServiceError) as err:
        server.request("POST", "/plan", {
            "kind": "nonsense", "cols": -3, "bogus": 1,
        })
    assert err.value.status == 400
    fields = {e["field"] for e in err.value.errors}
    # One round trip reports all four problems, not just the first.
    assert {"kind", "cols", "b", "bogus"} <= fields


def test_infeasible_spec_is_a_400_not_a_500(server):
    # Forcing an algorithm the spec can't run is a caller error.
    bad = SpecRequest(kind="reduce", rows=1, cols=4, b=8,
                      algorithm="definitely-not-an-algorithm")
    with pytest.raises(ServiceError) as err:
        server.plan(bad)
    assert err.value.status == 400


def test_non_json_body_is_a_400(server):
    import http.client
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", "/plan", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
    finally:
        conn.close()


# -- /stats ------------------------------------------------------------------


def test_stats_schema_and_service_series(server):
    spec = _spec(b=48)
    server.plan(spec)
    stats = server.stats()
    assert stats.version == repro.__version__
    assert stats.uptime_seconds >= 0
    metrics = stats.metrics
    assert "service.requests{endpoint=/plan,status=200}" in metrics
    latency = metrics["service.latency_seconds{endpoint=/plan}"]
    assert {"count", "sum", "min", "max", "mean"} <= set(latency)
    assert latency["count"] >= 1
    # The registry's standard sources ride along in the same snapshot.
    assert "plan_cache.hits" in metrics
    assert "plan_cache.misses" in metrics


# -- coalescing --------------------------------------------------------------


def _herd(monkeypatch, shared_client: bool):
    """32 threads ask one new spec at once, through one client each or
    through one ``shared_client``.  Returns the planner calls, the
    responses, the errors, and the ``service.coalesced`` and
    ``service.connections`` deltas."""
    from repro.core import api as core_api

    calls = []
    lock = threading.Lock()
    real = core_api._plan_uncached

    def slow_planner(spec):
        with lock:
            calls.append(spec)
        time.sleep(0.3)  # hold the flight open while the herd arrives
        return real(spec)

    monkeypatch.setattr(core_api, "_plan_uncached", slow_planner)
    spec = _spec(b=4096, cols=24)  # unique to these tests
    PLAN_CACHE.clear()
    before = METRICS.snapshot()

    # Every handler must hold an admission slot while awaiting the shared
    # flight, so give the server headroom for the whole herd.
    with serve_in_thread(config=_config(max_inflight=64)) as (_, host, port):
        barrier = threading.Barrier(32)
        responses, errors = [], []
        shared = ServiceClient(host, port, timeout=30)

        def worker():
            client = (
                shared if shared_client
                else ServiceClient(host, port, timeout=30)
            )
            barrier.wait()
            try:
                responses.append(client.plan(spec))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = METRICS.snapshot()
    deltas = {
        key: after.get(key, 0) - before.get(key, 0)
        for key in ("service.coalesced", "service.connections")
    }
    return calls, responses, errors, deltas


def _assert_herd_planned_once(calls, responses, errors, coalesced):
    assert not errors
    assert len(calls) == 1, f"planner ran {len(calls)}x for one spec"
    assert len(responses) == 32
    predictions = {r.predicted_cycles for r in responses}
    algorithms = {r.algorithm for r in responses}
    assert len(predictions) == 1 and len(algorithms) == 1
    # Every request but the flight-starter was coalesced or served off
    # the cache the flight filled; the counter saw the coalesced ones.
    assert coalesced == sum(1 for r in responses if r.coalesced)
    assert coalesced >= 1
    assert sum(1 for r in responses if not r.cached and not r.coalesced) == 1


def test_32_concurrent_identical_plans_invoke_planner_once(monkeypatch):
    calls, responses, errors, deltas = _herd(monkeypatch, shared_client=False)
    _assert_herd_planned_once(
        calls, responses, errors, deltas["service.coalesced"],
    )


def test_one_client_shared_by_32_threads_plans_once(monkeypatch):
    # perf's coalescing probe shares one client across its herd: each
    # thread must get its own connection, not queue behind one socket.
    calls, responses, errors, deltas = _herd(monkeypatch, shared_client=True)
    _assert_herd_planned_once(
        calls, responses, errors, deltas["service.coalesced"],
    )
    assert deltas["service.connections"] == 32


# -- admission control -------------------------------------------------------


def test_over_rate_tenant_gets_429_with_retry_after():
    config = _config(rate=0.001, burst=2)
    with serve_in_thread(config=config) as (_, host, port):
        client = ServiceClient(host, port, tenant="greedy")
        spec = _spec(b=32)
        client.plan(spec)
        client.plan(spec)
        with pytest.raises(ServiceError) as err:
            client.plan(spec)
        assert err.value.status == 429
        assert err.value.retry_after is not None
        assert err.value.retry_after > 0
        # Another tenant still has a full bucket.
        other = ServiceClient(host, port, tenant="patient")
        assert other.plan(spec).algorithm


def test_rate_limit_does_not_gate_health_or_stats():
    config = _config(rate=0.001, burst=1)
    with serve_in_thread(config=config) as (_, host, port):
        client = ServiceClient(host, port, tenant="t")
        client.plan(_spec(b=32))
        with pytest.raises(ServiceError):
            client.plan(_spec(b=32))
        assert client.healthz().status == "ok"
        assert client.stats().version == repro.__version__


def test_service_at_capacity_503s(monkeypatch):
    from repro.core import api as core_api

    real = core_api._plan_uncached
    entered = threading.Event()
    release = threading.Event()

    def stalling_planner(spec):
        entered.set()
        release.wait(timeout=10)
        return real(spec)

    monkeypatch.setattr(core_api, "_plan_uncached", stalling_planner)
    PLAN_CACHE.clear()
    config = _config(max_inflight=1, queue_depth=0)
    with serve_in_thread(config=config) as (_, host, port):

        def hold():
            try:
                ServiceClient(host, port, timeout=30).plan(
                    _spec(b=64, cols=20)
                )
            except ServiceError:
                pass  # losing the admission race to the probe is fine

        stuck = threading.Thread(target=hold)
        stuck.start()
        try:
            # Once the planner has been *entered*, its handler provably
            # holds the single admission slot; with queue_depth=0 any
            # further heavy request must be turned away immediately.
            assert entered.wait(timeout=10), "planner never started"
            with pytest.raises(ServiceError) as err:
                # A *different* spec: can't coalesce, must be admitted.
                ServiceClient(host, port).plan(_spec(b=96, cols=20))
            assert err.value.status == 503
            assert err.value.retry_after is not None
        finally:
            release.set()
            stuck.join(timeout=10)


# -- bit-identity ------------------------------------------------------------


def test_seeded_sweep_is_bit_identical_to_library(server):
    spec_req = _spec(b=56)
    spec = spec_req.to_spec()
    swept = server.sweep(
        [SweepItem(spec=spec_req, seed=11)], return_results=True,
    )
    outcome = swept.outcomes[0]
    local = execute(lib_plan(spec), seeded_input(spec, 11))
    assert outcome.measured_cycles == local.measured_cycles
    assert outcome.algorithm == local.algorithm
    assert outcome.predicted_cycles == local.predicted_cycles
    assert np.array_equal(outcome.result_array(), np.asarray(local.result))


def test_explicit_data_sweep_round_trips_float64_exactly(server):
    spec_req = _spec(b=24, cols=8)
    spec = spec_req.to_spec()
    data = seeded_input(spec, 3)  # irrational-ish float64s
    item = SweepItem(spec=spec_req, data=tuple(map(tuple, data.tolist())))
    assert np.array_equal(item.input_array(), data), \
        "JSON-shaped data must round-trip float64 bit-exactly"
    swept = server.sweep([item], return_results=True)
    local = execute(lib_plan(spec), data)
    assert np.array_equal(
        swept.outcomes[0].result_array(), np.asarray(local.result),
    )


def test_sweep_batch_preserves_order(server):
    items = [SweepItem(spec=_spec(b=b), seed=1) for b in (16, 32, 64)]
    swept = server.sweep(items)
    assert len(swept.outcomes) == 3
    locals_ = [
        execute(lib_plan(i.spec.to_spec()), seeded_input(i.spec.to_spec(), 1))
        for i in items
    ]
    assert [o.measured_cycles for o in swept.outcomes] == [
        lo.measured_cycles for lo in locals_
    ]


def test_sweep_without_return_results_omits_arrays(server):
    swept = server.sweep([SweepItem(spec=_spec(b=16), seed=0)])
    assert swept.outcomes[0].result is None
    with pytest.raises(ValueError):
        swept.outcomes[0].result_array()


# -- tune --------------------------------------------------------------------


def test_tune_measures_candidates_and_reports_winner(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with serve_in_thread(config=_config()) as (_, host, port):
        client = ServiceClient(host, port)
        spec = _spec(b=40)
        tuned = client.tune([spec])
        outcome = tuned.outcomes[0]
        assert outcome.spec.b == 40
        assert outcome.winner_algorithm in outcome.measured
        assert len(outcome.measured) >= 2
        assert outcome.measured[outcome.winner_algorithm] == min(
            outcome.measured.values()
        )


# -- warm start --------------------------------------------------------------


def test_boot_hydrates_plan_cache_from_tunedb(tmp_path):
    from repro.engine.autotune import tune as lib_tune
    from repro.engine.store import TuneDB

    spec = _spec(b=72).to_spec()
    db_path = tmp_path / "tune.jsonl"
    lib_tune([spec], db=TuneDB(str(db_path)), workers=1)
    PLAN_CACHE.clear()
    config = _config(db=str(db_path))
    with serve_in_thread(config=config) as (service, host, port):
        assert service.hydrated_plans >= 1
        response = ServiceClient(host, port).plan(_spec(b=72))
        assert response.cached, "hydrated spec must be a hit on request one"


# -- persistent connections: the server, over raw sockets --------------------


def _connect(host, port):
    sock = socket.create_connection((host, port), timeout=10)
    return sock, sock.makefile("rb")


def _send(sock, method, path, body=b"", headers=(), version="HTTP/1.1"):
    lines = [f"{method} {path} {version}", "Host: test", *headers]
    if body and not any(
        h.lower().startswith(("content-length", "transfer-encoding"))
        for h in headers
    ):
        lines.append(f"Content-Length: {len(body)}")
    sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)


def _response(rfile):
    """``(status, headers, json body)`` of the next response."""
    status_line = rfile.readline()
    assert status_line, "connection closed before a response"
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = rfile.readline().decode("latin-1").rstrip("\r\n")
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = rfile.read(int(headers["content-length"]))
    return status, headers, json.loads(body)


def _at_eof(rfile) -> bool:
    """True once the server has closed; the 10 s timeout fails the read."""
    try:
        return rfile.read() == b""
    except ConnectionResetError:
        return True


def _spec_body(b: int) -> bytes:
    return json.dumps(_spec(b=b).to_payload()).encode()


def _connections() -> int:
    return METRICS.snapshot().get("service.connections", 0)


def test_two_requests_share_one_connection(server):
    before = _connections()
    sock, rfile = _connect(server.host, server.port)
    with sock, rfile:
        _send(sock, "POST", "/plan", _spec_body(112))
        status, headers, payload = _response(rfile)
        assert status == 200 and headers["connection"] == "keep-alive"
        assert payload["algorithm"] == lib_plan(
            _spec(b=112).to_spec()).algorithm
        _send(sock, "GET", "/healthz")
        status, headers, payload = _response(rfile)
        assert status == 200 and headers["connection"] == "keep-alive"
        assert payload["status"] == "ok"
    assert _connections() - before == 1


@pytest.mark.parametrize("version, headers", [
    ("HTTP/1.1", ("Connection: close",)),
    ("HTTP/1.0", ()),
])
def test_close_requests_get_connection_close_then_eof(server, version, headers):
    sock, rfile = _connect(server.host, server.port)
    with sock, rfile:
        _send(sock, "GET", "/healthz", headers=headers, version=version)
        status, response_headers, _ = _response(rfile)
        assert status == 200
        assert response_headers["connection"] == "close"
        assert _at_eof(rfile)


def test_chunked_request_is_a_400_that_closes(server):
    # The chunked body hides a second request; answering it would mean
    # the body bytes were parsed as the next request.
    smuggled = b"GET /healthz HTTP/1.1\r\n\r\n"
    body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(smuggled), smuggled)
    sock, rfile = _connect(server.host, server.port)
    with sock, rfile:
        _send(sock, "POST", "/plan", body,
              headers=("Transfer-Encoding: chunked",))
        status, headers, payload = _response(rfile)
        assert status == 400 and "Transfer-Encoding" in payload["error"]
        assert headers["connection"] == "close"
        assert _at_eof(rfile)


@pytest.mark.parametrize("length", ["abc", "-5", "1e3"])
def test_malformed_content_length_is_a_400_that_closes(server, length):
    sock, rfile = _connect(server.host, server.port)
    with sock, rfile:
        _send(sock, "POST", "/plan", headers=(f"Content-Length: {length}",))
        status, headers, payload = _response(rfile)
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert headers["connection"] == "close"
        assert _at_eof(rfile)


@pytest.mark.parametrize("where", ["request_line", "header"])
def test_overlong_line_is_a_400_that_closes(server, where):
    long = "a" * 70_000  # past asyncio's 64 KiB stream line limit
    sock, rfile = _connect(server.host, server.port)
    with sock, rfile:
        if where == "request_line":
            _send(sock, "GET", "/" + long)
        else:
            _send(sock, "GET", "/healthz", headers=(f"X-Long: {long}",))
        status, headers, _ = _response(rfile)
        assert status == 400 and headers["connection"] == "close"
        assert _at_eof(rfile)


def test_oversized_body_is_a_413_that_closes(server):
    sock, rfile = _connect(server.host, server.port)
    with sock, rfile:
        too_big = service_app.MAX_BODY_BYTES + 1
        _send(sock, "POST", "/plan", headers=(f"Content-Length: {too_big}",))
        status, headers, _ = _response(rfile)
        assert status == 413 and headers["connection"] == "close"
        assert _at_eof(rfile)


def test_admission_is_per_request_on_one_connection():
    config = _config(rate=0.001, burst=2)
    with serve_in_thread(config=config) as (_, host, port):
        before = _connections()
        sock, rfile = _connect(host, port)
        with sock, rfile:
            statuses = []
            for _ in range(3):
                _send(sock, "POST", "/plan", _spec_body(32),
                      headers=("X-Tenant: greedy",))
                status, headers, _ = _response(rfile)
                statuses.append(status)
                assert headers["connection"] == "keep-alive"
            assert statuses == [200, 200, 429]
            # The 429 refused a request, not the connection.
            _send(sock, "GET", "/healthz")
            assert _response(rfile)[0] == 200
        assert _connections() - before == 1


def test_idle_time_between_requests_is_not_latency(server):
    key = "service.latency_seconds{endpoint=/healthz}"
    sock, rfile = _connect(server.host, server.port)
    with sock, rfile:
        _send(sock, "GET", "/healthz")
        assert _response(rfile)[0] == 200
        before = METRICS.snapshot()[key]["sum"]
        time.sleep(1.0)
        _send(sock, "GET", "/healthz")
        assert _response(rfile)[0] == 200
        assert METRICS.snapshot()[key]["sum"] - before < 0.5


def test_idle_connection_is_closed_after_the_timeout(monkeypatch):
    monkeypatch.setattr(service_app, "IDLE_TIMEOUT_S", 0.2)
    with serve_in_thread(config=_config()) as (_, host, port):
        sock, rfile = _connect(host, port)
        with sock, rfile:
            _send(sock, "GET", "/healthz")
            assert _response(rfile)[0] == 200
            idle_from = time.monotonic()
            assert _at_eof(rfile)
            assert time.monotonic() - idle_from >= 0.15


def test_stop_closes_an_idle_connection_promptly(monkeypatch):
    monkeypatch.setattr(service_app, "IDLE_TIMEOUT_S", 60.0)
    with serve_in_thread(config=_config()) as (_, host, port):
        sock, rfile = _connect(host, port)
        _send(sock, "GET", "/healthz")
        assert _response(rfile)[0] == 200
        stopping = time.monotonic()
    with sock, rfile:
        assert time.monotonic() - stopping < 5.0
        assert _at_eof(rfile), "stop() must close kept-alive connections"


# -- persistent connections: the client --------------------------------------


def test_client_reconnects_once_after_the_server_closed_idle(monkeypatch):
    monkeypatch.setattr(service_app, "IDLE_TIMEOUT_S", 0.2)
    with serve_in_thread(config=_config()) as (_, host, port):
        before = _connections()
        client = ServiceClient(host, port)
        assert client.plan(_spec(b=40)).algorithm
        time.sleep(0.6)  # the server closes the idle connection
        assert client.plan(_spec(b=40)).cached
        assert _connections() - before == 2


def test_refused_connection_raises_without_retrying(monkeypatch):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]  # nothing listens here once closed
    attempts = []
    real_connect = http.client.HTTPConnection.connect

    def counting_connect(self):
        attempts.append(self.port)
        return real_connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect",
                        counting_connect)
    with pytest.raises(OSError):
        ServiceClient("127.0.0.1", port).healthz()
    assert attempts == [port]
