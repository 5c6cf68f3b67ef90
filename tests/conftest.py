"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# One global profile: the cycle simulator makes some property tests
# moderately slow per example, so keep example counts sane and silence the
# too-slow health check for those.
settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def shm_leak_guard():
    """Fail a test that leaves ``repro_shm_*`` segments in ``/dev/shm``.

    Engine test modules apply this to every test via
    ``pytestmark = pytest.mark.usefixtures("shm_leak_guard")``: the
    shared-memory data plane's contract is that *no* path — success,
    worker raise, timeout, pool death — leaks a segment.  Abandoned
    (timed-out) attempts reclaim their segments via done-callbacks that
    may run shortly after a sweep returns, so the check polls briefly
    before declaring a leak.
    """
    from repro.engine import shm

    if not os.path.isdir("/dev/shm"):  # pragma: no cover - no shm mount
        yield
        return
    pattern = f"/dev/shm/{shm.NAME_PREFIX}_*"
    before = set(glob.glob(pattern))
    yield
    deadline = time.monotonic() + 5.0
    leaked = set(glob.glob(pattern)) - before
    while leaked and time.monotonic() < deadline:
        time.sleep(0.05)
        leaked = set(glob.glob(pattern)) - before
    assert not leaked, f"leaked shm segments: {sorted(leaked)}"


@pytest.fixture()
def close_sessions(monkeypatch):
    """Close every ``EngineSession`` a test created and left open.

    A session dropped without ``close()`` keeps its pool until the
    garbage collector tears it down in the background, so an abandoned
    (timed-out, still sleeping) attempt would wake up and run *inside
    the next test*, taking a core from chunks that test holds to a
    deadline.  Closing here waits for such stragglers — what a one-off
    ``engine.sweep(workers=N)`` does itself — and keeps tests isolated.
    List it after ``shm_leak_guard`` so it is torn down first.
    """
    from repro.engine import EngineSession

    created = []
    init = EngineSession.__init__

    def recording_init(session, *args, **kwargs):
        init(session, *args, **kwargs)
        created.append(session)

    monkeypatch.setattr(EngineSession, "__init__", recording_init)
    yield
    for session in created:
        session.close()
