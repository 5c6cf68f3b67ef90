"""Boot and stop ``python -m repro.service`` as a real subprocess.

The server runs in its own process group so that stopping it can also
prove nothing survived: a member of the group still alive after shutdown
is a failed run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import List

READY_PREFIX = "repro.service ready "


class Server:
    """One running planner service: address, boot time, clean stop."""

    def __init__(self, env: dict) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--sweep-workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, start_new_session=True,
        )
        self.pgid = os.getpgid(self.proc.pid)
        line = self.proc.stdout.readline()
        if not line.startswith(READY_PREFIX):
            self.stop()
            raise RuntimeError(f"service did not come up (got {line!r})")
        self.boot_s = time.perf_counter() - started
        fields = dict(part.split("=", 1) for part in line.split()[2:])
        self.host, self.port = fields["host"], int(fields["port"])

    def stop(self) -> List[str]:
        """SIGTERM the group, wait, and report what went wrong (if anything)."""
        problems: List[str] = []
        try:
            os.killpg(self.pgid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            problems.append("server ignored SIGTERM")
            os.killpg(self.pgid, signal.SIGKILL)
            self.proc.wait(timeout=15)
        self.proc.stdout.close()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.pgid, 0)
            except ProcessLookupError:
                return problems
            time.sleep(0.02)
        os.killpg(self.pgid, signal.SIGKILL)
        problems.append("a member of the server's process group survived")
        return problems
