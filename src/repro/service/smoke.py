"""End-to-end service smoke: boot, drive, verify, leak-check.

``python -m repro.service.smoke`` is what CI's ``service`` job runs: it
boots ``python -m repro.service --port 0`` as a real subprocess (own
process group), parses the ready line, then exercises the full client
surface — ``/healthz``, ``/plan`` (twice: miss then cached hit),
``/sweep`` with one spec at seeds 7, 8 and 7 (asserting every returned
result is **bit-identical** to executing the same point through the
library in this process, the repeats included), and ``/stats`` (asserting the ``service.requests``
counters moved).  Every request goes through one client, and
``service.connections`` must show that they all rode one persistent
connection.  It finishes by terminating the process group while that
connection is still open, and probing that nothing survived — a leaked
worker, or a server the open connection keeps alive, fails the run.

Exit code 0 on success; any assertion or leak exits non-zero with a
message on stderr.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np


def _fail(message: str) -> "NoReturn":  # noqa: F821 - py<3.11 typing
    print(f"smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _boot() -> "tuple[subprocess.Popen, str, int]":
    env = dict(os.environ)
    env.setdefault("REPRO_SERVICE_DB", "-")  # no warm-start state in CI
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0",
         "--sweep-workers", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,  # own process group: leak check + clean kill
    )
    deadline = time.monotonic() + 60
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                _fail(f"server exited rc={proc.returncode} before ready")
            continue
        if line.startswith("repro.service ready "):
            break
    else:
        proc.kill()
        _fail(f"no ready line within 60s (last: {line!r})")
    fields = dict(part.split("=", 1) for part in line.split()[2:])
    return proc, fields["host"], int(fields["port"])


def main() -> int:
    from repro.core.api import execute, plan
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.schemas import SpecRequest, SweepItem, seeded_input

    proc, host, port = _boot()
    pgid = os.getpgid(proc.pid)
    try:
        client = ServiceClient(host, port)
        health = client.wait_ready(timeout=30)
        assert health.status == "ok", health

        spec_req = SpecRequest(kind="reduce", rows=1, cols=16, b=64)
        first = client.plan(spec_req)
        assert not first.cached, "fresh boot must not have this spec cached"
        second = client.plan(spec_req)
        assert second.cached, "second identical plan must be a cache hit"
        assert first.algorithm == second.algorithm

        # Library-vs-service bit-identity on seeded sweep points.  The
        # repeated spec is simulated once; its later points get their
        # values from the value pass and must still match the library.
        spec = spec_req.to_spec()
        seeds = (7, 8, 7)
        swept = client.sweep(
            [SweepItem(spec=spec_req, seed=seed) for seed in seeds],
            return_results=True,
        )
        for seed, outcome in zip(seeds, swept.outcomes):
            local = execute(plan(spec), seeded_input(spec, seed))
            if outcome.measured_cycles != local.measured_cycles:
                _fail(f"seed {seed}: measured cycles diverge: service="
                      f"{outcome.measured_cycles} library="
                      f"{local.measured_cycles}")
            if not np.array_equal(
                outcome.result_array().view(np.int64),
                np.asarray(local.result).view(np.int64),
            ):
                _fail(f"seed {seed}: sweep result is not bit-identical to "
                      "the library path")
            assert outcome.algorithm == first.algorithm

        stats = client.stats()
        requests = sum(
            value for key, value in stats.metrics.items()
            if key.startswith("service.requests")
        )
        assert requests >= 4, f"expected >=4 counted requests, saw {requests}"

        malformed = False
        try:
            client.request("POST", "/plan", {"kind": "nonsense"})
        except ServiceError as exc:
            malformed = exc.status == 400 and bool(exc.errors)
        assert malformed, "malformed spec must 400 with structured errors"

        # The connection stays open from here through the SIGTERM below.
        connections = client.stats().metrics.get("service.connections")
        if connections != 1:
            _fail(f"one client's requests used {connections} connections, "
                  "not one kept-alive connection")
    finally:
        with_err = sys.exc_info()[0] is not None
        try:
            os.killpg(pgid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            os.killpg(pgid, signal.SIGKILL)
            proc.wait(timeout=15)
            if not with_err:
                _fail("server did not shut down on SIGTERM")

    # Leak probe: the whole process group must be gone.
    time.sleep(0.2)
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        pass  # clean — nothing left in the group
    else:
        os.killpg(pgid, signal.SIGKILL)
        _fail("leaked processes survived shutdown")

    print("smoke: OK (plan coalesce/cache, sweep bit-identity, stats, "
          "400 path, one kept-alive connection, clean shutdown)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
