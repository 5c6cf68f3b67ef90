"""Keyed plan cache: plan a spec once, execute it many times.

Planning a collective is pure — the schedule, the prediction and the
planner ranking depend only on the :class:`~repro.core.registry.
CollectiveSpec` — and the cycle simulator never mutates a schedule (it
copies router rules and op lists into its own per-PE state).  Schedules
are therefore treated as immutable once built, and the frozen, hashable
spec itself is the cache key: two specs differing in any field
(including distinct :class:`~repro.model.params.MachineParams`) key
separately, while repeated identical specs — a B-sweep re-measuring the
same point, a training loop allreducing the same gradient shape every
step — reuse one plan.

:data:`PLAN_CACHE` is the process-wide default used by
:func:`repro.core.api.plan` and :func:`repro.core.api.run_many`;
independent caches can be instantiated for isolation (tests do).
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .api import Plan
    from .registry import CollectiveSpec

__all__ = ["PlanCache", "PLAN_CACHE"]


class _Flight:
    """One in-progress planning pass other threads can wait on.

    The planned result travels *on the flight itself* rather than through
    a cache re-check: a bounded cache may evict the plan between the
    planner's ``store`` and a waiter waking up, and re-planning in that
    window would break the "planned exactly once" contract.  ``plan`` is
    written before ``event.set()``, so the Event's happens-before edge
    publishes it safely; ``failed`` marks a planner that raised (waiters
    then retry, and one of them becomes the new planner).
    """

    __slots__ = ("event", "plan", "failed")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.plan: Optional["Plan"] = None
        self.failed = False


class PlanCache:
    """An LRU-evicting map from :class:`CollectiveSpec` to its plan.

    ``maxsize=None`` (the default) never evicts.  All operations are
    guarded by a lock so concurrent drivers can share one cache.
    :meth:`get_or_plan` is single-flight: when several threads miss on
    the same spec simultaneously, exactly one runs the builder (outside
    the lock) while the others wait for its result, so a spec is never
    planned twice by the same cache.
    """

    def __init__(self, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self._plans: "OrderedDict[CollectiveSpec, Plan]" = OrderedDict()
        self._lock = threading.Lock()
        self._pending: Dict["CollectiveSpec", _Flight] = {}
        # Async flights are keyed per event loop (futures belong to
        # their loop); only the loop's own thread touches its dict.
        self._async_flights: Dict[
            "asyncio.AbstractEventLoop", Dict["CollectiveSpec", "asyncio.Future"]
        ] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, spec: "CollectiveSpec") -> bool:
        with self._lock:
            return spec in self._plans

    def lookup(self, spec: "CollectiveSpec") -> Optional["Plan"]:
        """The cached plan for ``spec``, or ``None`` (counts hit/miss)."""
        with self._lock:
            plan = self._plans.get(spec)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(spec)
            self.hits += 1
            return plan

    def get_or_plan(
        self,
        spec: "CollectiveSpec",
        planner: Callable[["CollectiveSpec"], "Plan"],
    ) -> "Plan":
        """The cached plan for ``spec``, planning and storing on a miss.

        Single-flight: concurrent callers missing on the same spec block
        until the first caller's ``planner`` finishes, then return its
        result (counted as hits) directly off the in-flight record — so
        the contract holds even if a bounded cache evicts the plan
        before a waiter wakes.  If the builder raises, one of the
        waiters takes over and retries.

        This call *blocks* while it waits; never run it on an asyncio
        event-loop thread (it would freeze the loop, and — if the
        planner itself needed a loop callback — deadlock).  Async
        callers use :meth:`get_or_plan_async`, which coalesces on the
        loop without blocking it.
        """
        while True:
            with self._lock:
                plan = self._plans.get(spec)
                if plan is not None:
                    self._plans.move_to_end(spec)
                    self.hits += 1
                    return plan
                flight = self._pending.get(spec)
                if flight is None:
                    flight = _Flight()
                    self._pending[spec] = flight
                    self.misses += 1
                    break
            # Another thread is already planning this spec; wait for it.
            flight.event.wait()
            if not flight.failed:
                with self._lock:
                    self.hits += 1
                return flight.plan
            # The planner failed; loop and maybe become the new planner.
        try:
            plan = planner(spec)
        except BaseException:
            flight.failed = True
            with self._lock:
                self._pending.pop(spec, None)
            flight.event.set()
            raise
        flight.plan = plan
        self.store(spec, plan)
        with self._lock:
            self._pending.pop(spec, None)
        flight.event.set()
        return plan

    def async_inflight(self, spec: "CollectiveSpec") -> bool:
        """Is an async planning flight for ``spec`` running on this loop?

        Must be called from a running event loop.  Because flights are
        loop-local and only the loop thread mutates them, checking this
        immediately before :meth:`get_or_plan_async` (with no ``await``
        in between) race-freely predicts whether that call will coalesce
        onto an existing flight — how the service counts coalesced
        requests.
        """
        loop = asyncio.get_running_loop()
        flights = self._async_flights.get(loop)
        return bool(flights) and spec in flights

    async def get_or_plan_async(
        self,
        spec: "CollectiveSpec",
        planner: Callable[["CollectiveSpec"], "Plan"],
        executor=None,
    ) -> "Plan":
        """Async single-flight: :meth:`get_or_plan` without blocking the loop.

        Cache hits return immediately on the loop thread (microseconds,
        no executor round-trip).  On a miss, the *first* caller submits
        one ``get_or_plan`` job to ``executor`` (``None`` = the loop's
        default) and every concurrent identical request awaits that same
        future — N in-flight identical specs cost exactly one executor
        slot and one planner invocation.  That coalescing is what makes
        a bounded executor safe: waiters never occupy a thread, so 32
        concurrent requests through a 1-thread executor cannot deadlock
        the way 32 blocking ``event.wait()`` calls would.

        The executor job still runs the thread-keyed single-flight, so
        async callers, plain threads and other loops planning the same
        spec concurrently also collapse to one planner invocation.
        """
        plan = self._peek(spec)
        if plan is not None:
            return plan
        loop = asyncio.get_running_loop()
        flights = self._async_flights.setdefault(loop, {})
        future = flights.get(spec)
        if future is None:
            future = loop.run_in_executor(
                executor, self.get_or_plan, spec, planner
            )
            flights[spec] = future

            def _retire(_done, loop=loop, spec=spec):
                flights = self._async_flights.get(loop)
                if flights is not None:
                    flights.pop(spec, None)
                    if not flights:
                        self._async_flights.pop(loop, None)

            future.add_done_callback(_retire)
        return await asyncio.shield(future)

    def _peek(self, spec: "CollectiveSpec") -> Optional["Plan"]:
        """The async fast path: a present plan counts as a hit, but an
        absent one is *not* counted as a miss — the executor-side
        ``get_or_plan`` counts exactly one miss per planning pass, so
        counting here too would book N misses for N coalesced callers."""
        with self._lock:
            plan = self._plans.get(spec)
            if plan is not None:
                self._plans.move_to_end(spec)
                self.hits += 1
            return plan

    def store(self, spec: "CollectiveSpec", plan: "Plan") -> None:
        """Insert ``plan`` under ``spec``, evicting LRU past ``maxsize``."""
        with self._lock:
            if spec not in self._plans and self.maxsize is not None:
                while len(self._plans) >= self.maxsize:
                    self._plans.popitem(last=False)
            self._plans[spec] = plan
            self._plans.move_to_end(spec)

    def clear(self) -> None:
        """Drop every cached plan and reset the hit/miss counters."""
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        """Counters for reports and tests: size, hits, misses."""
        with self._lock:
            return {
                "size": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
            }


#: Process-wide default plan cache (unbounded).
PLAN_CACHE = PlanCache()
