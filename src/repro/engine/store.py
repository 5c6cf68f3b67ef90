"""Persistent plan/tune store: spec-keyed records that survive processes.

The plan cache (:data:`repro.core.cache.PLAN_CACHE`) memoizes planning
within one process; this module makes the *knowledge* behind those plans
durable.  A :class:`TuneDB` is an append-only JSON-lines file under a
cache directory mapping a frozen :class:`~repro.core.registry.
CollectiveSpec` (serialized field by field, machine parameters included)
to what the engine has learned about it::

    frozen spec -> {predicted_cycles, measured_cycles,
                    winner_algorithm, measured per-algorithm cycles}

Records are written one JSON object per line, so concurrent processes
can append safely and a truncated or corrupted line loses only itself —
:meth:`TuneDB.load` skips anything unparsable and keeps counting
(``corrupt_lines``).  A record is *committed* only once its trailing
newline is on disk: an unterminated final line is a torn append (a
writer died mid-``write``) and is never trusted, even if its prefix
happens to parse.  The last record for a key wins, merged field-wise,
which makes re-tuning a plain append.

Integrity tooling: :meth:`TuneDB.fsck` reports every torn or invalid
line (kind, line number, preview) without modifying anything, and
:meth:`TuneDB.compact` rewrites the file to one clean merged line per
key — written to a temp file, fsynced, then atomically ``os.replace``-d
over the original, so a crash mid-compaction leaves the old file
intact.

Two consumers:

* :meth:`TuneDB.hydrate_plan_cache` re-plans every recorded spec into a
  :class:`~repro.core.cache.PlanCache`, so a fresh process starts with a
  warm cache (schedules are cheap to rebuild deterministically from the
  spec; only the *specs worth planning* need to persist);
* :class:`repro.engine.autotune.Tuner` consults :meth:`TuneDB.winner`
  to let measured results override the analytic planner.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..core.registry import CollectiveSpec
from ..fabric.geometry import Grid
from ..model.params import MachineParams
from . import faults

__all__ = [
    "SCHEMA_VERSION",
    "TuneRecord",
    "TuneDB",
    "FsckIssue",
    "FsckReport",
    "default_db_path",
    "spec_to_key",
    "spec_from_key",
    "lookup_counts",
]

# Process-wide TuneDB lookup outcome counters, polled as the "tunedb"
# source of the :data:`repro.obs.metrics.METRICS` registry.  Counting at
# module level (not per-DB) matches how the registry absorbs the other
# stats islands: one process, one series.
_LOOKUPS: Dict[str, int] = {"hits": 0, "misses": 0}


def lookup_counts() -> Dict[str, int]:
    """Cumulative :meth:`TuneDB.lookup` hits/misses in this process."""
    return dict(_LOOKUPS)

#: Bump when the on-disk record layout changes; mismatching lines are
#: treated as corrupt (skipped, counted) rather than misread.
SCHEMA_VERSION = 1


def default_db_path() -> pathlib.Path:
    """Default store location: ``$REPRO_CACHE_DIR`` or ``~/.cache``."""
    from ..core import config as _config

    root = _config.env_str("REPRO_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-wse"
    )
    return pathlib.Path(root) / "tune_db.jsonl"


def spec_to_key(spec: CollectiveSpec) -> Dict[str, object]:
    """JSON-safe dict uniquely identifying ``spec`` (params included)."""
    return {
        "kind": spec.kind,
        "rows": spec.grid.rows,
        "cols": spec.grid.cols,
        "b": spec.b,
        "op": spec.op,
        "algorithm": spec.algorithm,
        "xy": spec.xy,
        "params": asdict(spec.params),
    }


def spec_from_key(key: Dict[str, object]) -> CollectiveSpec:
    """Rebuild the frozen spec a :func:`spec_to_key` dict describes."""
    return CollectiveSpec(
        kind=key["kind"],
        grid=Grid(int(key["rows"]), int(key["cols"])),
        b=int(key["b"]),
        op=key["op"],
        algorithm=key["algorithm"],
        params=MachineParams(**key["params"]),
        xy=bool(key["xy"]),
    )


def _key_id(key: Dict[str, object]) -> str:
    """Canonical string form of a spec key (dict-key and dedup identity)."""
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def _encode_record(record: "TuneRecord") -> bytes:
    """One record as its on-disk line (newline-terminated UTF-8)."""
    payload = {
        "schema": SCHEMA_VERSION,
        "key": record.key,
        "predicted_cycles": record.predicted_cycles,
        "measured_cycles": record.measured_cycles,
        "winner_algorithm": record.winner_algorithm,
        "measured": record.measured,
        "backend": record.backend,
    }
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


@dataclass
class TuneRecord:
    """Everything the store knows about one spec.

    ``measured`` holds per-algorithm measured cycles from a tuning run;
    ``winner_algorithm`` is only trustworthy when it appears in
    ``measured`` (enforced by :meth:`TuneDB.winner`).  ``backend`` names
    the simulator backend the measurements ran on; records written
    before the field existed load as ``"reference"``.
    """

    key: Dict[str, object]
    predicted_cycles: Optional[float] = None
    measured_cycles: Optional[int] = None
    winner_algorithm: Optional[str] = None
    measured: Dict[str, int] = field(default_factory=dict)
    backend: str = "reference"

    def spec(self) -> CollectiveSpec:
        return spec_from_key(self.key)


class _RecordError(ValueError):
    """A line that does not decode into a valid record; ``kind`` says why."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def _parse_record(line: str) -> TuneRecord:
    """Decode one store line into a validated :class:`TuneRecord`."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise _RecordError("invalid-json", str(err)) from None
    if not isinstance(obj, dict) or obj.get("schema") != SCHEMA_VERSION:
        schema = obj.get("schema") if isinstance(obj, dict) else None
        raise _RecordError("bad-schema", f"unknown schema {schema!r}")
    try:
        record = TuneRecord(
            key=obj["key"],
            predicted_cycles=obj.get("predicted_cycles"),
            measured_cycles=obj.get("measured_cycles"),
            winner_algorithm=obj.get("winner_algorithm"),
            measured={
                str(k): int(v)
                for k, v in (obj.get("measured") or {}).items()
            },
            backend=str(obj.get("backend") or "reference"),
        )
        record.spec()  # validates the key round-trips to a spec
    except (ValueError, KeyError, TypeError) as err:
        raise _RecordError("bad-record", str(err)) from None
    return record


def _preview(line: str, limit: int = 60) -> str:
    return line if len(line) <= limit else line[:limit] + "..."


@dataclass(frozen=True)
class FsckIssue:
    """One damaged store line: where it is and what is wrong with it.

    ``kind`` is one of ``torn-tail`` (unterminated final line — a torn
    append), ``invalid-json``, ``bad-schema`` or ``bad-record``.
    """

    line_no: int
    kind: str
    preview: str


@dataclass
class FsckReport:
    """What :meth:`TuneDB.fsck` found, without having modified anything."""

    path: pathlib.Path
    total_lines: int = 0
    valid_records: int = 0
    distinct_keys: int = 0
    issues: List[FsckIssue] = field(default_factory=list)
    torn_tail: bool = False

    @property
    def clean(self) -> bool:
        return not self.issues


class TuneDB:
    """Append-only JSON-lines store of :class:`TuneRecord` per spec.

    Loading tolerates corruption line by line; writing is append-only so
    several processes can share one file.  ``path=None`` uses
    :func:`default_db_path`.  :meth:`fsck` audits the file;
    :meth:`compact` rewrites it clean, atomically.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike, None] = None,
        autoload: bool = True,
    ) -> None:
        self.path = pathlib.Path(path) if path is not None else default_db_path()
        self._records: Dict[str, TuneRecord] = {}
        self.corrupt_lines = 0
        self.torn_tail = False
        if autoload:
            self.load()

    # -- persistence --------------------------------------------------------

    def _lines(self) -> Tuple[List[str], bool]:
        """The file's lines plus whether the final one is torn
        (unterminated — its append never committed)."""
        data = self.path.read_bytes()
        torn = bool(data) and not data.endswith(b"\n")
        lines = data.decode("utf-8", errors="replace").split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        return lines, torn

    def load(self) -> int:
        """(Re)read the file, skipping corrupt lines; returns #records.

        An unterminated final line counts as corrupt (``torn_tail``):
        the append protocol commits a record only with its newline, so
        a torn tail is a crashed writer's partial record even when its
        prefix happens to parse.
        """
        self._records.clear()
        self.corrupt_lines = 0
        self.torn_tail = False
        if not self.path.exists():
            return 0
        lines, torn = self._lines()
        for line_no, line in enumerate(lines, start=1):
            if torn and line_no == len(lines):
                self.torn_tail = True
                self.corrupt_lines += 1
                continue
            if not line.strip():
                continue
            try:
                record = _parse_record(line)
            except _RecordError:
                self.corrupt_lines += 1
                continue
            self._merge(record)
        return len(self._records)

    def fsck(self) -> FsckReport:
        """Audit the file: report every torn or invalid line, touch nothing.

        The report names each damaged line (1-based number, kind,
        preview); ``clean`` means the file would load with zero
        ``corrupt_lines``.  Repair is :meth:`compact`'s job.
        """
        report = FsckReport(path=self.path)
        if not self.path.exists():
            return report
        lines, torn = self._lines()
        report.total_lines = len(lines)
        report.torn_tail = torn
        keys = set()
        for line_no, line in enumerate(lines, start=1):
            if torn and line_no == len(lines):
                report.issues.append(
                    FsckIssue(line_no, "torn-tail", _preview(line))
                )
                continue
            if not line.strip():
                continue
            try:
                record = _parse_record(line)
            except _RecordError as err:
                report.issues.append(
                    FsckIssue(line_no, err.kind, _preview(line))
                )
                continue
            report.valid_records += 1
            keys.add(_key_id(record.key))
        report.distinct_keys = len(keys)
        return report

    def compact(self) -> FsckReport:
        """Rewrite the file to one clean merged line per key, atomically.

        Surviving records are the same ones :meth:`load` keeps; torn and
        invalid lines are dropped.  The new contents go to a temp file
        in the same directory, are fsynced, and then ``os.replace`` the
        original — a crash at any point leaves either the old or the
        new file, never a mix.  Returns the pre-compaction
        :meth:`fsck` report (what was repaired); in-memory state is
        reloaded from the compacted file.
        """
        report = self.fsck()
        if not self.path.exists():
            return report
        self.load()
        payload = b"".join(
            _encode_record(record) for record in self._records.values()
        )
        tmp = self.path.with_name(
            f"{self.path.name}.compact.{os.getpid()}.tmp"
        )
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            written = 0
            while written < len(payload):
                written += os.write(fd, payload[written:])
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, self.path)
        try:  # best-effort: make the rename itself durable
            dir_fd = os.open(self.path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        self.load()
        return report

    def _merge(self, record: TuneRecord) -> TuneRecord:
        """Field-wise merge of ``record`` into the in-memory map.

        Measurements taken on different simulator backends never mix:
        when an incoming record carries measurements from another
        backend, the existing measured state is discarded wholesale and
        the record's backend takes over.  Analytic-only records (no
        measurements) merge without touching the backend tag.
        """
        kid = _key_id(record.key)
        existing = self._records.get(kid)
        if existing is None:
            self._records[kid] = record
            return record
        has_measurement = (
            record.measured_cycles is not None or bool(record.measured)
        )
        if has_measurement and record.backend != existing.backend:
            existing.measured = {}
            existing.measured_cycles = None
            existing.winner_algorithm = None
            existing.backend = record.backend
        if record.predicted_cycles is not None:
            existing.predicted_cycles = record.predicted_cycles
        if record.measured_cycles is not None:
            existing.measured_cycles = record.measured_cycles
        if record.winner_algorithm is not None:
            existing.winner_algorithm = record.winner_algorithm
        existing.measured.update(record.measured)
        return existing

    def _append(self, record: TuneRecord) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # One os.write of the whole encoded line on an O_APPEND fd:
        # buffered text IO may flush a long line in several writes, and
        # two processes appending concurrently can interleave those
        # partial flushes into a line neither of them wrote.  A single
        # append-mode write keeps every record intact on its own line.
        line = _encode_record(record)
        fault = faults.draw("append")
        if fault is not None and fault.kind == "torn":
            # Injected torn append: persist only a prefix of the line
            # (never the committing newline), as if we died mid-write.
            fraction = fault.arg if fault.arg is not None else 0.5
            cut = max(1, min(len(line) - 1, int(len(line) * fraction)))
            line = line[:cut]
        fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            written = 0
            while written < len(line):
                written += os.write(fd, line[written:])
        finally:
            os.close(fd)

    def record(
        self,
        spec: CollectiveSpec,
        predicted_cycles: Optional[float] = None,
        measured_cycles: Optional[int] = None,
        winner_algorithm: Optional[str] = None,
        measured: Optional[Dict[str, int]] = None,
        backend: str = "reference",
    ) -> TuneRecord:
        """Merge one observation for ``spec`` and persist it.

        ``backend`` tags any measurements with the simulator backend
        they ran on (see :meth:`winner`).
        """
        merged = self._merge(TuneRecord(
            key=spec_to_key(spec),
            predicted_cycles=predicted_cycles,
            measured_cycles=measured_cycles,
            winner_algorithm=winner_algorithm,
            measured=dict(measured or {}),
            backend=backend,
        ))
        self._append(merged)
        return merged

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TuneRecord]:
        return iter(list(self._records.values()))

    def lookup(self, spec: CollectiveSpec) -> Optional[TuneRecord]:
        """The record for ``spec``, or ``None`` (counted process-wide)."""
        record = self._records.get(_key_id(spec_to_key(spec)))
        _LOOKUPS["hits" if record is not None else "misses"] += 1
        return record

    def winner(
        self, spec: CollectiveSpec, backend: Optional[str] = None
    ) -> Optional[str]:
        """The *measured* winning algorithm for ``spec``, if any.

        Returns ``None`` unless the recorded winner is backed by an
        actual measurement — an analytic-only record never overrides the
        planner.  When ``backend`` is given, winners measured on a
        *different* simulator backend are ignored too, so mixed-backend
        campaigns cannot silently corrupt autotuned plans.
        """
        record = self.lookup(spec)
        if record is None or record.winner_algorithm is None:
            return None
        if record.winner_algorithm not in record.measured:
            return None
        if backend is not None and record.backend != backend:
            return None
        return record.winner_algorithm

    def specs(self) -> List[CollectiveSpec]:
        """Every recorded spec (insertion order)."""
        return [record.spec() for record in self._records.values()]

    # -- plan-cache hydration ------------------------------------------------

    def hydrate_plan_cache(self, cache=None) -> int:
        """Warm a plan cache with every spec this store knows about.

        Plans are rebuilt deterministically from the stored specs (a
        schedule is pure in its spec, so only the spec needs to persist)
        and verified retrievable, so the first user-level ``plan()`` of a
        recorded spec is a cache hit instead of a fresh planning pass.
        Specs the current registry can no longer plan are skipped.
        Returns the number of plans hydrated.
        """
        from ..core import api
        from ..core.cache import PLAN_CACHE

        if cache is None:
            cache = PLAN_CACHE
        hydrated = 0
        for record in self:
            try:
                spec = record.spec()
                cache.get_or_plan(
                    spec, lambda s: api.plan(s, use_cache=False)
                )
            except (ValueError, KeyError, TypeError):
                continue
            if cache.lookup(spec) is not None:
                hydrated += 1
        return hydrated
