"""Deterministic, seeded fault injection for the sweep engine.

The fault-tolerance layer (chunk retry/timeout, pool-loss recovery,
store fsck) is only trustworthy if every failure mode it claims to
survive can be *reproduced on demand*.  This module provides that: a
:class:`FaultPlan` — parsed from the ``REPRO_FAULTS`` environment
variable or installed programmatically via :func:`use_faults` — names
which fault fires at which occurrence of which injection site, and a
seeded RNG drives any probabilistic placements, so a given plan + seed
always produces the same failure schedule.

Fault kinds and their sites:

=========  =========  =====================================================
kind       site       effect
=========  =========  =====================================================
``kill``   chunk      the worker executing the chunk calls ``os._exit``
                      mid-chunk (a pool loss: ``BrokenProcessPool``)
``delay``  chunk      the worker sleeps ``arg`` seconds before executing
                      (drives a chunk past its deadline)
``shm``    chunk      the chunk's shared-memory input descriptor is
                      corrupted before shipping (the worker cannot attach)
``torn``   append     the next :class:`~repro.engine.store.TuneDB` append
                      writes only a prefix of its line (a torn record,
                      as if the writer crashed mid-``write``)
=========  =========  =====================================================

Determinism is achieved by drawing faults **in the parent process** at
well-ordered sites: the sweep engine draws one fault per chunk at chunk
*creation* (chunk order is deterministic), and ships ``kill``/``delay``
tokens to the worker alongside the chunk.  Retries and requeues never
carry a token — a fault fires on a chunk's first attempt only, so a
retried chunk runs clean and the sweep converges.  Workers never draw;
they only :func:`perform` tokens they were handed.

``REPRO_FAULTS`` syntax — semicolon-separated directives::

    REPRO_FAULTS="seed=42;kill@1;delay@3=0.5;torn@0;shm%0.25x3"

* ``seed=N`` — seed for probabilistic placement (default 0);
* ``kind@N`` — fire on the N-th (0-based) occurrence of the kind's site;
* ``kind%P`` — fire with probability P at each occurrence (seeded);
* ``xT`` suffix — fire at most T times (default 1);
* ``=A`` suffix — numeric argument (``delay`` seconds; ``torn`` keeps
  that fraction of the line, default 0.5).

With ``REPRO_FAULTS`` unset and nothing installed, every hook is a
cheap no-op.
"""

from __future__ import annotations

import os
import random
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "ENV_VAR",
    "KILL_EXIT_CODE",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "active",
    "install",
    "reset",
    "use_faults",
    "draw",
    "perform",
]

ENV_VAR = "REPRO_FAULTS"

#: Exit status of a worker killed by an injected ``kill`` fault —
#: distinctive enough to recognize in pool post-mortems.
KILL_EXIT_CODE = 86

#: kind -> injection site.  Chunk faults are drawn once per chunk by the
#: sweep engine; append faults once per store append.
SITE_OF = {
    "kill": "chunk",
    "delay": "chunk",
    "shm": "chunk",
    "torn": "append",
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault directive: what fires, where in the schedule, how often.

    Exactly one of ``at`` (fire on that 0-based site occurrence) and
    ``prob`` (seeded coin per occurrence) must be set.  ``times`` caps
    total firings; ``arg`` is the kind-specific numeric argument.
    """

    kind: str
    at: Optional[int] = None
    prob: Optional[float] = None
    times: int = 1
    arg: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in SITE_OF:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {sorted(SITE_OF)}"
            )
        if (self.at is None) == (self.prob is None):
            raise ValueError("exactly one of at= / prob= must be given")
        if self.prob is not None and not 0.0 < self.prob <= 1.0:
            raise ValueError(f"prob must be in (0, 1], got {self.prob}")
        if self.at is not None and self.at < 0:
            raise ValueError(f"at must be >= 0, got {self.at}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")

    @property
    def site(self) -> str:
        return SITE_OF[self.kind]


_TOKEN = re.compile(
    r"^(?P<kind>[a-z]+)"
    r"(?:@(?P<at>\d+)|%(?P<prob>\d*\.?\d+))"
    r"(?:x(?P<times>\d+))?"
    r"(?:=(?P<arg>-?\d*\.?\d+(?:[eE][+-]?\d+)?))?$"
)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults plus the seed that places them."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` directive syntax (see module doc)."""
        faults: List[FaultSpec] = []
        seed = 0
        for raw in text.split(";"):
            token = raw.strip()
            if not token:
                continue
            if token.startswith("seed="):
                try:
                    seed = int(token[len("seed="):])
                except ValueError:
                    raise ValueError(
                        f"bad seed directive {token!r} in fault plan"
                    ) from None
                continue
            match = _TOKEN.match(token)
            if match is None:
                raise ValueError(
                    f"bad fault directive {token!r}; expected kind@N or kind%P "
                    f"with optional xT and =arg suffixes"
                )
            faults.append(FaultSpec(
                kind=match["kind"],
                at=int(match["at"]) if match["at"] is not None else None,
                prob=float(match["prob"]) if match["prob"] is not None else None,
                times=int(match["times"]) if match["times"] is not None else 1,
                arg=float(match["arg"]) if match["arg"] is not None else None,
            ))
        return cls(faults=tuple(faults), seed=seed)


class FaultInjector:
    """Executes a :class:`FaultPlan`: per-site occurrence counters + RNG.

    :meth:`draw` advances the named site's counter and returns the
    matching :class:`FaultSpec`, or ``None`` (the overwhelmingly common
    case).  ``log`` records every firing as ``(site, occurrence, spec)``
    so tests can assert the schedule actually happened.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._site_counts: Dict[str, int] = {}
        self._remaining = [spec.times for spec in plan.faults]
        self.log: List[Tuple[str, int, FaultSpec]] = []

    def draw(self, site: str) -> Optional[FaultSpec]:
        n = self._site_counts.get(site, 0)
        self._site_counts[site] = n + 1
        hit: Optional[FaultSpec] = None
        for index, spec in enumerate(self.plan.faults):
            if spec.site != site or self._remaining[index] <= 0:
                continue
            if spec.at is not None:
                fire = spec.at == n
            else:
                fire = self._rng.random() < spec.prob
            if fire and hit is None:
                self._remaining[index] -= 1
                self.log.append((site, n, spec))
                hit = spec
        return hit


# Held in a dict so use_faults() can swap/restore without `global`.  The
# env variable is parsed lazily on the first draw and only once.
_STATE: Dict[str, object] = {"injector": None, "env_checked": False}


def install(plan: Union[FaultPlan, str, None]) -> Optional[FaultInjector]:
    """Install ``plan`` process-wide (``None`` disables injection)."""
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    injector = FaultInjector(plan) if plan is not None else None
    _STATE["injector"] = injector
    _STATE["env_checked"] = True  # an explicit install overrides the env
    return injector


def reset() -> None:
    """Forget any installed plan and re-arm the ``REPRO_FAULTS`` check."""
    _STATE["injector"] = None
    _STATE["env_checked"] = False


def active() -> Optional[FaultInjector]:
    """The installed injector, lazily created from ``REPRO_FAULTS``."""
    if _STATE["injector"] is None and not _STATE["env_checked"]:
        _STATE["env_checked"] = True
        from ..core import config as _config

        text = _config.env_str(ENV_VAR)
        if text:
            _STATE["injector"] = FaultInjector(FaultPlan.parse(text))
    return _STATE["injector"]  # type: ignore[return-value]


@contextmanager
def use_faults(
    plan: Union[FaultPlan, str, None],
) -> Iterator[Optional[FaultInjector]]:
    """Run a block under ``plan`` (or with injection disabled for ``None``),
    restoring whatever was active — including the not-yet-parsed env
    state — afterwards."""
    previous = (_STATE["injector"], _STATE["env_checked"])
    injector = install(plan)
    try:
        yield injector
    finally:
        _STATE["injector"], _STATE["env_checked"] = previous


def draw(site: str) -> Optional[FaultSpec]:
    """Advance ``site`` and return the fault to inject there, if any."""
    injector = active()
    return injector.draw(site) if injector is not None else None


def perform(fault: Optional[FaultSpec]) -> None:
    """Worker-side execution of a shipped fault token (kill/delay)."""
    if fault is None:
        return
    if fault.kind == "kill":
        os._exit(KILL_EXIT_CODE)
    elif fault.kind == "delay":
        time.sleep(fault.arg if fault.arg is not None else 1.0)
    # "shm" and "torn" are materialized by the parent, not performed here.
