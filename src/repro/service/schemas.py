"""Typed request/response schemas: the service's single wire vocabulary.

Every payload that crosses the planner service's HTTP boundary — and
every structured argument a library caller hands :mod:`repro.service.
client` — is one of the frozen dataclasses here.  There are no
dict-shaped ad-hoc payloads: the HTTP layer parses JSON straight into
these types (collecting *all* field errors into one structured
:class:`ValidationError`, which the server renders as a 4xx JSON body),
and serializes responses straight out of them.

The center of the vocabulary is :class:`SpecRequest`, the wire form of
:class:`~repro.core.registry.CollectiveSpec`: flat JSON fields
(``kind``, ``rows``, ``cols``, ``b``, ``op``, ``algorithm``, ``xy``)
that convert losslessly in both directions (:meth:`SpecRequest.to_spec`
/ :meth:`SpecRequest.from_spec`).  Sweep items carry either an explicit
``data`` array (nested JSON lists) or a deterministic ``seed`` —
:func:`seeded_input` (:mod:`repro.core.api`'s, re-exported here; the
autotuner measures on the same one) derives the exact same input the
library path would, which is what makes "service result == library
result, bit-identical" a testable claim: JSON floats round-trip float64
exactly (``repr`` shortest-round-trip on write, exact binary64 on parse).

Bulk arrays — :attr:`SweepItem.data` and :attr:`SweepOutcome.result` —
are held as read-only float64 ndarrays, each built by one ``np.array``
copy of what it is given.  An element that is not a number (null, a
string, a boolean, an object) or a ragged array is a
:class:`ValidationError` on that field, never a silent NaN or 1.0.
The server writes a ``/sweep`` reply with :meth:`SweepResponse.to_json`
straight from the arrays, byte for byte what
``json.dumps(response.to_payload())`` writes (the wire format is the
same one).  Float ``repr`` is most of that cost, so the writer formats
fewer floats where it can: an array whose rows (sub-arrays along the
first axis) are all bit-identical to row 0 — the same vector on every
PE, as a Broadcast or AllReduce leaves it — is written as row 0's text
repeated, at every level of nesting.  Rows are compared as ``uint64``
bits, so ``-0.0`` against ``0.0`` or two NaN payloads count as
different rows.  Requests go out as ``json.dumps(to_payload())``;
``to_payload()`` is the JSON-able dict, arrays as lists.

Machine parameters are the default :data:`~repro.model.params.CS2` —
the service serves one machine; callers needing custom params hold the
library directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.api import seeded_input
from ..core.registry import COLLECTIVE_KINDS, REDUCE_OPS, CollectiveSpec
from ..fabric.geometry import Grid

__all__ = [
    "ValidationError",
    "SpecRequest",
    "PlanResponse",
    "SweepItem",
    "SweepRequest",
    "SweepOutcome",
    "SweepResponse",
    "TuneRequest",
    "TuneOutcome",
    "TuneResponse",
    "StatsResponse",
    "HealthResponse",
    "ErrorResponse",
    "seeded_input",
]


class ValidationError(ValueError):
    """A malformed request: every field problem, collected.

    ``errors`` is a list of ``{"field": ..., "message": ...}`` dicts —
    the server sends them verbatim as the 400 body so a caller can fix
    all mistakes in one round trip.
    """

    def __init__(self, errors: List[Dict[str, str]]) -> None:
        self.errors = list(errors)
        super().__init__(
            "; ".join(f"{e['field']}: {e['message']}" for e in self.errors)
            or "invalid request"
        )


class _Collector:
    """Accumulates field errors while a payload is being parsed."""

    def __init__(self, where: str = "") -> None:
        self.where = where
        self.errors: List[Dict[str, str]] = []

    def add(self, fieldname: str, message: str) -> None:
        name = f"{self.where}{fieldname}" if self.where else fieldname
        self.errors.append({"field": name, "message": message})

    def raise_if_any(self) -> None:
        if self.errors:
            raise ValidationError(self.errors)


def _expect_mapping(payload: Any, what: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise ValidationError([{
            "field": what,
            "message": f"expected a JSON object, got {type(payload).__name__}",
        }])
    return payload


def _get_int(payload: Mapping, name: str, errs: _Collector,
             default: Optional[int] = None, minimum: int = 1) -> Optional[int]:
    value = payload.get(name, default)
    if value is None:
        errs.add(name, "required")
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        errs.add(name, f"expected an integer, got {value!r}")
        return None
    if value < minimum:
        errs.add(name, f"must be >= {minimum}, got {value}")
        return None
    return value


def _get_str(payload: Mapping, name: str, errs: _Collector,
             default: Optional[str] = None) -> Optional[str]:
    value = payload.get(name, default)
    if value is None:
        errs.add(name, "required")
        return None
    if not isinstance(value, str):
        errs.add(name, f"expected a string, got {value!r}")
        return None
    return value


@dataclass(frozen=True)
class SpecRequest:
    """Wire form of one :class:`CollectiveSpec` (default machine params)."""

    kind: str
    rows: int
    cols: int
    b: int
    op: str = "sum"
    algorithm: str = "auto"
    xy: bool = False

    @classmethod
    def from_payload(cls, payload: Any, where: str = "") -> "SpecRequest":
        payload = _expect_mapping(payload, where or "request")
        errs = _Collector(where)
        kind = _get_str(payload, "kind", errs)
        if kind is not None and kind not in COLLECTIVE_KINDS:
            errs.add("kind", f"unknown kind {kind!r}; "
                             f"expected one of {sorted(COLLECTIVE_KINDS)}")
        rows = _get_int(payload, "rows", errs, default=1)
        cols = _get_int(payload, "cols", errs)
        b = _get_int(payload, "b", errs)
        op = _get_str(payload, "op", errs, default="sum")
        if op is not None and op not in REDUCE_OPS:
            errs.add("op", f"unknown op {op!r}; "
                           f"expected one of {sorted(REDUCE_OPS)}")
        algorithm = _get_str(payload, "algorithm", errs, default="auto")
        xy = payload.get("xy", False)
        if not isinstance(xy, bool):
            errs.add("xy", f"expected a boolean, got {xy!r}")
            xy = False
        unknown = set(payload) - {
            "kind", "rows", "cols", "b", "op", "algorithm", "xy",
        }
        for name in sorted(unknown):
            errs.add(name, "unknown field")
        errs.raise_if_any()
        return cls(kind=kind, rows=rows, cols=cols, b=b, op=op,
                   algorithm=algorithm, xy=xy)

    @classmethod
    def from_spec(cls, spec: CollectiveSpec) -> "SpecRequest":
        return cls(kind=spec.kind, rows=spec.grid.rows, cols=spec.grid.cols,
                   b=spec.b, op=spec.op, algorithm=spec.algorithm,
                   xy=spec.xy)

    def to_spec(self) -> CollectiveSpec:
        """The library-side spec; re-validates via the spec's own rules."""
        try:
            return CollectiveSpec(
                kind=self.kind, grid=Grid(self.rows, self.cols), b=self.b,
                op=self.op, algorithm=self.algorithm, xy=self.xy,
            )
        except ValueError as exc:
            raise ValidationError([{"field": "spec", "message": str(exc)}])

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind, "rows": self.rows, "cols": self.cols,
            "b": self.b, "op": self.op, "algorithm": self.algorithm,
            "xy": self.xy,
        }


@dataclass(frozen=True)
class PlanResponse:
    """``POST /plan`` answer: what the planner resolved and how it was served."""

    spec: SpecRequest
    algorithm: str
    predicted_cycles: float
    cached: bool
    coalesced: bool

    def to_payload(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_payload(),
            "algorithm": self.algorithm,
            "predicted_cycles": self.predicted_cycles,
            "cached": self.cached,
            "coalesced": self.coalesced,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "PlanResponse":
        payload = _expect_mapping(payload, "plan response")
        return cls(
            spec=SpecRequest.from_payload(payload["spec"], where="spec."),
            algorithm=payload["algorithm"],
            predicted_cycles=payload["predicted_cycles"],
            cached=payload["cached"],
            coalesced=payload["coalesced"],
        )


#: What ``np.array`` makes of JSON elements that are not numbers.
_NOT_NUMBERS = {"b": "booleans", "U": "strings",
                "O": "nulls, objects or integers beyond 64 bits"}


def _float_array(data: Any) -> np.ndarray:
    """A read-only float64 copy of ``data``, by one ``np.array``.

    Elements that are not numbers raise ``ValueError`` —
    ``np.asarray(data, dtype=float64)`` would turn null into NaN, parse
    ``"1.5"`` and raise ``TypeError`` on an object — as does a ragged
    array.
    """
    array = np.array(data)
    kind = array.dtype.kind
    if kind in "fiu" and _holds_bool(data, array):
        kind = "b"
    if kind not in "fiu":
        raise ValueError("expected numbers, got "
                         + _NOT_NUMBERS.get(kind, str(array.dtype)))
    array = array.astype(np.float64, copy=False)
    array.flags.writeable = False
    return array


def _holds_bool(data: Any, array: np.ndarray) -> bool:
    """Whether nested lists hold a boolean among their numbers.

    ``np.array`` reads such a boolean as 0 or 1, so the element types
    are looked at only when ``array`` holds a 0 or a 1.
    """
    if isinstance(data, np.ndarray) or not ((array == 0) | (array == 1)).any():
        return False
    leaves = [data] if array.ndim == 0 else data
    for _ in range(array.ndim - 1):
        leaves = chain.from_iterable(leaves)
    return bool in set(map(type, leaves))


def _same_array(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    """Bit identity of two optional float64 arrays: shape and bytes."""
    if a is None or b is None:
        return a is b
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _array_json(array: np.ndarray) -> str:
    """``json.dumps(array.tolist())``, byte for byte.

    An array whose rows are all bit-identical to row 0 is written as row
    0's text, formatted once and repeated; row 0 gets the same rule.
    """
    if array.ndim > 1 and len(array) > 1:
        bits = array.view(np.uint64)
        if (bits == bits[0]).all():
            row = _array_json(array[0])
            return "[" + ", ".join([row] * len(array)) + "]"
    return json.dumps(array.tolist())


@dataclass(frozen=True, eq=False)
class SweepItem:
    """One sweep point: a spec plus its input (seed or explicit data).

    ``data`` may be given as nested lists, tuples or an ndarray; it is
    held as a read-only float64 ndarray.  Equality is bit identity of
    the array; items are not hashable.
    """

    spec: SpecRequest
    seed: Optional[int] = None
    data: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.data is not None:
            object.__setattr__(self, "data", _float_array(self.data))

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, SweepItem):
            return NotImplemented
        return ((self.spec, self.seed) == (other.spec, other.seed)
                and _same_array(self.data, other.data))

    @classmethod
    def from_payload(cls, payload: Any, where: str = "") -> "SweepItem":
        payload = _expect_mapping(payload, where or "sweep item")
        errs = _Collector(where)
        spec_payload = payload.get("spec")
        if spec_payload is None:
            errs.add("spec", "required")
            errs.raise_if_any()
        spec = SpecRequest.from_payload(spec_payload, where=f"{where}spec.")
        seed = payload.get("seed")
        data = payload.get("data")
        if seed is None and data is None:
            errs.add("seed", "exactly one of 'seed' or 'data' is required")
        if seed is not None and data is not None:
            errs.add("seed", "pass either 'seed' or 'data', not both")
        if seed is not None and (isinstance(seed, bool)
                                 or not isinstance(seed, int)):
            errs.add("seed", f"expected an integer, got {seed!r}")
            seed = None
        if data is not None and not isinstance(data, (list, tuple)):
            errs.add("data", f"expected a nested array, got {data!r}")
            data = None
        errs.raise_if_any()
        try:
            return cls(spec=spec, seed=seed, data=data)
        except ValueError as exc:  # from _float_array: not numbers
            errs.add("data", f"not a numeric array: {exc}")
            raise ValidationError(errs.errors) from None

    def to_payload(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"spec": self.spec.to_payload()}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.data is not None:
            out["data"] = self.data.tolist()
        return out

    def input_array(self) -> np.ndarray:
        """The float64 input this item describes (seeded or explicit)."""
        if self.data is not None:
            return self.data
        return seeded_input(self.spec.to_spec(), self.seed or 0)


@dataclass(frozen=True)
class SweepRequest:
    """``POST /sweep`` body: the points to run, in order."""

    items: Tuple[SweepItem, ...]
    return_results: bool = False

    @classmethod
    def from_payload(cls, payload: Any) -> "SweepRequest":
        payload = _expect_mapping(payload, "sweep request")
        errs = _Collector()
        items = payload.get("items")
        if not isinstance(items, (list, tuple)) or not items:
            errs.add("items", "expected a non-empty array of sweep items")
            errs.raise_if_any()
        return_results = payload.get("return_results", False)
        if not isinstance(return_results, bool):
            errs.add("return_results",
                     f"expected a boolean, got {return_results!r}")
        parsed = []
        for i, item in enumerate(items):
            try:
                parsed.append(SweepItem.from_payload(item, where=f"items[{i}]."))
            except ValidationError as exc:
                errs.errors.extend(exc.errors)
        errs.raise_if_any()
        return cls(items=tuple(parsed), return_results=bool(return_results))

    def to_payload(self) -> Dict[str, Any]:
        return {
            "items": [item.to_payload() for item in self.items],
            "return_results": self.return_results,
        }


@dataclass(frozen=True, eq=False)
class SweepOutcome:
    """One executed sweep point (result array only when asked for).

    ``result`` is held as a read-only float64 ndarray; equality is bit
    identity of it (NaN-safe); outcomes are not hashable.
    """

    algorithm: str
    predicted_cycles: float
    measured_cycles: int
    backend: str
    result: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.result is not None:
            object.__setattr__(self, "result", _float_array(self.result))

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, SweepOutcome):
            return NotImplemented
        return (self._head() == other._head()
                and _same_array(self.result, other.result))

    def _head(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "predicted_cycles": self.predicted_cycles,
            "measured_cycles": self.measured_cycles,
            "backend": self.backend,
        }

    def to_payload(self) -> Dict[str, Any]:
        out = self._head()
        if self.result is not None:
            out["result"] = self.result.tolist()
        return out

    def to_json(self) -> str:
        """``json.dumps(self.to_payload())``, written from the array."""
        text = json.dumps(self._head())
        if self.result is None:
            return text
        return f'{text[:-1]}, "result": {_array_json(self.result)}}}'

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SweepOutcome":
        return cls(
            algorithm=payload["algorithm"],
            predicted_cycles=payload["predicted_cycles"],
            measured_cycles=payload["measured_cycles"],
            backend=payload["backend"],
            result=payload.get("result"),
        )

    def result_array(self) -> np.ndarray:
        if self.result is None:
            raise ValueError("sweep ran with return_results=False")
        return self.result


@dataclass(frozen=True)
class SweepResponse:
    outcomes: Tuple[SweepOutcome, ...]

    def to_payload(self) -> Dict[str, Any]:
        return {"outcomes": [o.to_payload() for o in self.outcomes]}

    def to_json(self) -> str:
        """``json.dumps(self.to_payload())``, written from the arrays."""
        return ('{"outcomes": ['
                + ", ".join(o.to_json() for o in self.outcomes) + "]}")

    @classmethod
    def from_payload(cls, payload: Any) -> "SweepResponse":
        payload = _expect_mapping(payload, "sweep response")
        return cls(outcomes=tuple(
            SweepOutcome.from_payload(o) for o in payload["outcomes"]
        ))


@dataclass(frozen=True)
class TuneRequest:
    """``POST /tune`` body: specs to autotune (measure every candidate)."""

    specs: Tuple[SpecRequest, ...]
    seed: int = 0

    @classmethod
    def from_payload(cls, payload: Any) -> "TuneRequest":
        payload = _expect_mapping(payload, "tune request")
        errs = _Collector()
        specs = payload.get("specs")
        if not isinstance(specs, (list, tuple)) or not specs:
            errs.add("specs", "expected a non-empty array of specs")
            errs.raise_if_any()
        seed = payload.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            errs.add("seed", f"expected an integer, got {seed!r}")
            seed = 0
        parsed = []
        for i, spec in enumerate(specs):
            try:
                parsed.append(
                    SpecRequest.from_payload(spec, where=f"specs[{i}].")
                )
            except ValidationError as exc:
                errs.errors.extend(exc.errors)
        errs.raise_if_any()
        return cls(specs=tuple(parsed), seed=seed)

    def to_payload(self) -> Dict[str, Any]:
        return {"specs": [s.to_payload() for s in self.specs],
                "seed": self.seed}


@dataclass(frozen=True)
class TuneOutcome:
    """What tuning one spec measured and decided."""

    spec: SpecRequest
    winner_algorithm: Optional[str]
    measured: Dict[str, int] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_payload(),
            "winner_algorithm": self.winner_algorithm,
            "measured": dict(self.measured),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "TuneOutcome":
        return cls(
            spec=SpecRequest.from_payload(payload["spec"], where="spec."),
            winner_algorithm=payload["winner_algorithm"],
            measured=dict(payload["measured"]),
        )


@dataclass(frozen=True)
class TuneResponse:
    outcomes: Tuple[TuneOutcome, ...]

    def to_payload(self) -> Dict[str, Any]:
        return {"outcomes": [o.to_payload() for o in self.outcomes]}

    @classmethod
    def from_payload(cls, payload: Any) -> "TuneResponse":
        payload = _expect_mapping(payload, "tune response")
        return cls(outcomes=tuple(
            TuneOutcome.from_payload(o) for o in payload["outcomes"]
        ))


@dataclass(frozen=True)
class StatsResponse:
    """``GET /stats``: the metrics-registry snapshot plus service meta."""

    metrics: Dict[str, Any]
    uptime_seconds: float
    version: str

    def to_payload(self) -> Dict[str, Any]:
        return {
            "metrics": self.metrics,
            "uptime_seconds": self.uptime_seconds,
            "version": self.version,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "StatsResponse":
        payload = _expect_mapping(payload, "stats response")
        return cls(metrics=dict(payload["metrics"]),
                   uptime_seconds=payload["uptime_seconds"],
                   version=payload["version"])


@dataclass(frozen=True)
class HealthResponse:
    status: str
    version: str
    uptime_seconds: float

    def to_payload(self) -> Dict[str, Any]:
        return {"status": self.status, "version": self.version,
                "uptime_seconds": self.uptime_seconds}

    @classmethod
    def from_payload(cls, payload: Any) -> "HealthResponse":
        payload = _expect_mapping(payload, "health response")
        return cls(status=payload["status"], version=payload["version"],
                   uptime_seconds=payload["uptime_seconds"])


@dataclass(frozen=True)
class ErrorResponse:
    """Every non-2xx body the service emits."""

    error: str
    errors: Tuple[Dict[str, str], ...] = ()
    retry_after: Optional[float] = None

    def to_payload(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"error": self.error}
        if self.errors:
            out["errors"] = [dict(e) for e in self.errors]
        if self.retry_after is not None:
            out["retry_after"] = self.retry_after
        return out

    @classmethod
    def from_payload(cls, payload: Any) -> "ErrorResponse":
        payload = _expect_mapping(payload, "error response")
        return cls(
            error=payload.get("error", "unknown error"),
            errors=tuple(payload.get("errors", ())),
            retry_after=payload.get("retry_after"),
        )
