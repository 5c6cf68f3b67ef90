"""One registry for every ``REPRO_*`` environment knob.

Before this module, each subsystem parsed its own environment variables
ad hoc — the engine's retry knobs in :mod:`repro.engine.session`, the
simulator backend in :mod:`repro.fabric.simulator`, and so on — with no
single place to see what knobs exist, what they default to, or what the
process is actually running with.  This module is that place:

* :data:`KNOBS` declares every knob (name, type, default, one-line
  description, owning subsystem).  Parse sites call the typed getters
  below, which refuse undeclared names — a new env var *must* be
  registered here to be readable, so the registry cannot rot.
* ``python -m repro.core.config`` prints the full table with each
  knob's *current* value (environment or default), the quick way to
  audit a deployment.

The getters preserve the historical parse semantics exactly: an unset
or empty variable means "use the default", and an unparsable value
raises ``ValueError`` naming the variable (``REPRO_SERVICE_PORT must
be an integer, got 'lots'``) rather than failing deep inside a sweep.
This module imports nothing from the rest of the package, so any layer
— core, engine, fabric, obs, service — can depend on it without cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, TypeVar

__all__ = [
    "Knob",
    "KNOBS",
    "describe",
    "env_raw",
    "env_str",
    "env_flag",
    "env_int",
    "env_float",
    "env_number",
]

T = TypeVar("T")


@dataclass(frozen=True)
class Knob:
    """One declared environment knob."""

    name: str
    kind: str           # "int" | "float" | "str" | "flag" | "path"
    default: str        # human-readable default (shown by the CLI)
    description: str
    used_by: str        # owning module, e.g. "engine.session"


def _knob_table(*knobs: Knob) -> Dict[str, Knob]:
    return {k.name: k for k in knobs}


#: Every environment variable the package reads, in one place.
KNOBS: Dict[str, Knob] = _knob_table(
    # -- simulator ----------------------------------------------------------
    Knob("REPRO_SIM_BACKEND", "str", "vectorized",
         "simulator backend: 'vectorized' or 'reference'",
         "fabric.simulator"),
    Knob("REPRO_SIM_STRIDE", "flag", "1",
         "steady-state window striding in the vectorized backend "
         "('0' disables)",
         "fabric.vectorized"),
    # -- engine / sweeps ----------------------------------------------------
    Knob("REPRO_SWEEP_WORKERS", "int", "1 (serial)",
         "default worker count for the figure-bench sweeps",
         "bench.sweeps"),
    Knob("REPRO_CHUNK_TIMEOUT", "float", "none (no deadline)",
         "per-chunk wall-clock deadline in seconds before requeue",
         "engine.session"),
    Knob("REPRO_MAX_RETRIES", "int", "2",
         "chunk retries before quarantine",
         "engine.session"),
    Knob("REPRO_RETRY_BACKOFF", "float", "0.05",
         "base seconds of jittered backoff between chunk retries",
         "engine.session"),
    Knob("REPRO_RETRY_SEED", "int", "0",
         "seed of the deterministic retry-backoff jitter",
         "engine.session"),
    Knob("REPRO_MAX_POOL_DEATHS", "int", "2",
         "pool replacements tolerated before degrading to serial",
         "engine.session"),
    Knob("REPRO_FAULTS", "str", "(none)",
         "deterministic fault-injection plan, e.g. 'seed=42;kill@1'",
         "engine.faults"),
    Knob("REPRO_CACHE_DIR", "path", "~/.cache/repro-wse",
         "root directory of the persistent TuneDB",
         "engine.store"),
    # -- observability ------------------------------------------------------
    Knob("REPRO_TRACE", "path", "(disabled)",
         "write a Perfetto-loadable Chrome trace here on exit",
         "obs.export"),
    Knob("REPRO_METRICS", "path", "(disabled)",
         "write the metrics-registry snapshot here (JSONL) on exit",
         "obs.export"),
    # -- planner service ----------------------------------------------------
    Knob("REPRO_SERVICE_HOST", "str", "127.0.0.1",
         "bind address of the planner service",
         "service.app"),
    Knob("REPRO_SERVICE_PORT", "int", "8077 (0 = ephemeral)",
         "TCP port of the planner service",
         "service.app"),
    Knob("REPRO_SERVICE_WORKERS", "int", "4",
         "executor threads running blocking plan/sweep/tune work",
         "service.app"),
    Knob("REPRO_SERVICE_SWEEP_WORKERS", "int", "1 (serial)",
         "process-pool workers of the service's EngineSession",
         "service.app"),
    Knob("REPRO_SERVICE_RATE", "float", "100.0",
         "per-tenant sustained request rate (requests/second)",
         "service.app"),
    Knob("REPRO_SERVICE_BURST", "int", "200",
         "per-tenant token-bucket burst capacity",
         "service.app"),
    Knob("REPRO_SERVICE_MAX_INFLIGHT", "int", "8",
         "heavy requests (plan/sweep/tune) executing concurrently",
         "service.app"),
    Knob("REPRO_SERVICE_QUEUE", "int", "64",
         "admission-control queue depth before 503 Service Unavailable",
         "service.app"),
    Knob("REPRO_SERVICE_DB", "path", "(TuneDB default when it exists)",
         "TuneDB path hydrating the plan cache on service boot "
         "('-' disables warm start)",
         "service.app"),
)


def _declared(name: str) -> Knob:
    try:
        return KNOBS[name]
    except KeyError:
        raise KeyError(
            f"undeclared environment knob {name!r}; register it in "
            f"repro.core.config.KNOBS"
        ) from None


def env_raw(name: str) -> str:
    """The stripped raw value of a declared knob ('' when unset)."""
    _declared(name)
    return os.environ.get(name, "").strip()


def env_str(name: str, default: str = "") -> str:
    """String knob: the raw value, or ``default`` when unset/empty."""
    return env_raw(name) or default


def env_flag(name: str, default: bool = True) -> bool:
    """Flag knob: unset/empty means ``default``; ``"0"`` means off."""
    raw = env_raw(name)
    if not raw:
        return default
    return raw != "0"


def env_number(
    name: str,
    default: T,
    convert: Callable[[str], T],
    what: str = "a number",
) -> T:
    """Numeric knob: ``convert`` the raw value, or ``default`` when unset.

    An unparsable value raises ``ValueError`` naming the variable — the
    historical contract every parse site already promised its tests.
    """
    raw = env_raw(name)
    if not raw:
        return default
    try:
        return convert(raw)
    except ValueError:
        raise ValueError(f"{name} must be {what}, got {raw!r}") from None


def env_int(
    name: str, default: Optional[int], what: str = "an integer"
) -> Optional[int]:
    return env_number(name, default, int, what)


def env_float(
    name: str, default: Optional[float], what: str = "a number"
) -> Optional[float]:
    return env_number(name, default, float, what)


def describe() -> "list[dict]":
    """Every knob with its current value, for tooling and the CLI."""
    rows = []
    for knob in KNOBS.values():
        raw = os.environ.get(knob.name, "").strip()
        rows.append({
            "name": knob.name,
            "kind": knob.kind,
            "default": knob.default,
            "current": raw if raw else "(default)",
            "description": knob.description,
            "used_by": knob.used_by,
        })
    return rows


def main() -> None:
    """``python -m repro.core.config``: print the knob table."""
    rows = describe()
    width = max(len(r["name"]) for r in rows)
    for row in rows:
        print(f"{row['name']:<{width}}  [{row['kind']}] "
              f"current={row['current']}  default={row['default']}")
        print(f"{'':<{width}}  {row['description']} ({row['used_by']})")


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    main()
