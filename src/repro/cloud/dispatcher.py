"""Dispatch layer: concurrency and single-flight coalescing for serving.

:class:`PlanDispatcher` puts a thread pool in front of
:meth:`~repro.cloud.service.CloudPlannerService.request` so a fleet's
requests are served concurrently, and adds **single-flight request
coalescing**: concurrent requests that quantize to the same service
cache key (:meth:`CloudPlannerService.coalesce_key`) run exactly one
planner solve — the first submission becomes the *leader*, everyone else
a *follower* that is then answered from the warm plan cache (a cheap
shift + revalidate, no DP).

Same-key requests are **chained** in submission order: each waits for
its predecessor's service call to finish before making its own.  The
order is decided synchronously **at submission time**, in the caller's
thread, not at task-execution time.  So every key is served exactly as
a serial loop would serve it — the first request solves, and a follower
whose hit fails revalidation re-solves before the next one reads the
cache — which keeps dispatcher-threaded serving bit-identical to serial
serving (and testable as such).

Deadlines are wall-clock budgets from submission: a request still queued
behind a saturated pool, or still waiting on its predecessor, when its
deadline lapses fails fast with the typed
:class:`~repro.errors.DispatchDeadlineError` instead of hanging.  A
request that has already started solving runs to completion (the DP is
not interruptible); its own deadline is only checked before the solve
starts.  Every request releases its successor when it ends, however it
ends.

If a leader's solve fails, its followers are *not* failed with it: each
falls back to its own ``service.request`` call, preserving the serial
semantics where every infeasible request fails (and is accounted)
individually.

A warm hit needs no pool thread.  :meth:`PlanDispatcher.request_cached`
answers a request in the caller's thread (the plan server's event loop)
from the service's warm cache, through the service's own
``request_cached``, when no flight of its key is open.  It never solves;
anything it cannot answer is left for :meth:`PlanDispatcher.submit`.  It
counts the answered request as the pool would have — submitted, a
leader, completed — so the counters read the same whichever path
served.

Each event is counted once, by the dispatcher's
:class:`~repro.obs.Counters` (mirrored into the registry as
``cloud.dispatch.*``); :class:`DispatcherStats` is a view of one
snapshot of them.
"""

from __future__ import annotations

import threading
import time as _time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Optional, Sequence, Union

from repro import obs
from repro.cloud.messages import PlanRequest, PlanResponse
from repro.cloud.service import CloudPlannerService
from repro.errors import ConfigurationError, DispatchDeadlineError

__all__ = ["DispatcherStats", "PlanDispatcher"]


@dataclass(frozen=True)
class DispatcherStats:
    """Immutable view of one dispatcher's counts.

    Attributes:
        submitted: Requests accepted by :meth:`PlanDispatcher.submit`.
        completed: Requests that produced a response.
        errors: Requests that raised (planning failures included).
        leaders: Requests with a coalescing key and no predecessor
            (first in flight for their key).
        coalesced: Followers answered by a plan-cache hit.
        deadline_exceeded: Requests failed on an expired deadline.
        workers: The pool size.
    """

    submitted: int = 0
    completed: int = 0
    errors: int = 0
    leaders: int = 0
    coalesced: int = 0
    deadline_exceeded: int = 0
    workers: int = 0

    @property
    def in_flight(self) -> int:
        """Requests submitted but not yet completed or failed."""
        return self.submitted - self.completed - self.errors

    def summary(self) -> str:
        """One-line human-readable form for CLI/report output."""
        return (
            f"{self.submitted} submitted, {self.coalesced} coalesced, "
            f"{self.errors} error(s), {self.deadline_exceeded} deadline-expired "
            f"({self.workers} workers)"
        )


class _Flight:
    """One in-flight request of a key: its successor waits on ``done``."""

    __slots__ = ("done",)

    def __init__(self) -> None:
        self.done = threading.Event()


class PlanDispatcher:
    """Thread-pooled, single-flight front end for a planning service.

    Args:
        service: The synchronous service the workers call into.  Its
            caches and stats are thread-safe; its planner is read-only
            during solves, so concurrent solves of *different* keys are
            safe.
        workers: Worker count (>= 1): pool threads, or worker processes
            under the process backend.
        name: Metrics namespace for the :mod:`repro.obs` counters.
        backend: ``"thread"`` (default) serves through an in-process
            pool sharing the service's caches; ``"process"`` serves
            through key-sharded worker processes that map the corridor
            artifacts from shared memory
            (:class:`repro.cloud.procpool.ProcessBackend`) — real
            parallelism for the GIL-bound DP, at the cost of per-worker
            service caches.

    Use as a context manager, or call :meth:`shutdown` when done.
    """

    def __init__(
        self,
        service: CloudPlannerService,
        workers: int = 4,
        name: str = "cloud.dispatch",
        backend: str = "thread",
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"dispatcher needs >= 1 worker, got {workers}")
        if backend not in ("thread", "process"):
            raise ConfigurationError(
                f"dispatcher backend must be 'thread' or 'process', got {backend!r}"
            )
        self.service = service
        self.workers = int(workers)
        self.name = name
        self.backend = backend
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="plan-dispatch"
        )
        self._flights: Dict[Hashable, _Flight] = {}
        self._lock = threading.Lock()
        self._counters = obs.Counters(
            name,
            (
                "submitted", "completed", "errors", "leaders", "coalesced",
                "deadline_exceeded",
            ),
        )
        self._proc = None
        # Worker processes keep their own caches, which the caller's
        # thread cannot read, and a duck-typed service may have no probe.
        self._answer_cached = (
            getattr(service, "request_cached", None) if backend == "thread" else None
        )
        if backend == "process":
            from repro.cloud.procpool import ProcessBackend

            self._proc = ProcessBackend(
                service, self._account_process_outcome, workers=self.workers
            )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, req: PlanRequest, deadline_s: Optional[float] = None
    ) -> "Future[PlanResponse]":
        """Enqueue one request; returns a future of its response.

        Args:
            req: The plan request.
            deadline_s: Optional wall-clock budget (seconds from now);
                expired requests raise
                :class:`~repro.errors.DispatchDeadlineError` from the
                future instead of being served late.
        """
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError(f"deadline must be positive, got {deadline_s}")
        submitted_at = _time.monotonic()
        key = self.service.coalesce_key(req)
        if self._proc is not None:
            self._counters.inc("submitted")
            return self._proc.submit(req, key, deadline_s, submitted_at)
        flight: Optional[_Flight] = None
        predecessor: Optional[_Flight] = None
        if key is not None:
            # The chain is extended here, synchronously, so same-key
            # requests run in submission order — the order a serial loop
            # would have run them in.
            flight = _Flight()
            with self._lock:
                predecessor = self._flights.get(key)
                self._flights[key] = flight
        self._counters.inc("submitted")
        return self._pool.submit(
            self._run, req, key, flight, predecessor, deadline_s, submitted_at
        )

    def request_cached(self, req: PlanRequest) -> Optional[PlanResponse]:
        """Answer ``req`` from the warm cache in this thread, else ``None``.

        The plan server calls this on its event loop before it submits,
        so a warm hit costs no pool hop.  It answers only when no flight
        of the request's key is open and the service's ``request_cached``
        accepts the hit; it never solves.  ``None`` (nothing counted)
        leaves the request for :meth:`submit`: misses, failed
        revalidations, replans and other uncoalescable requests, and any
        request whose key has a flight open.

        Per-key order: the flight check, the service's probe and its
        counting all run under the dispatcher's lock, the lock under
        which every submission registers its flight.  A flight stays
        registered until the last submitted request of its key has
        finished its service call, so no open flight means no request of
        the key is queued or running.  And a same-key submission from any
        thread either registered first — this sees its flight and
        declines, and the request is chained behind it by :meth:`submit`
        — or registers after this has answered and counted.  So the probe
        reads the cache exactly as the key's next serial request would.

        An answered request is counted as the pool counts a first-in-
        flight request that completes: submitted, a leader, completed.
        """
        if self._answer_cached is None:
            return None
        key = self.service.coalesce_key(req)
        if key is None:
            return None
        with self._lock:
            if key in self._flights:
                return None
            response = self._answer_cached(req)
            if response is None:
                return None
            self._counters.inc("submitted", "leaders", "completed")
        return response

    def submit_many(
        self,
        requests: Sequence[PlanRequest],
        deadline_s: Optional[float] = None,
        return_exceptions: bool = False,
    ) -> List[Union[PlanResponse, Exception]]:
        """Submit a batch (in order) and gather the responses (in order).

        Submission order decides coalescing leadership, so a batch of
        same-key requests is served exactly as a serial loop would serve
        it: the first solves, the rest hit the warm cache.

        Args:
            requests: The batch.
            deadline_s: Optional shared per-request deadline.
            return_exceptions: When true, a failed request contributes
                its exception to the result list instead of raising, so
                one infeasible departure does not mask the others.
        """
        futures = [self.submit(req, deadline_s=deadline_s) for req in requests]
        results: List[Union[PlanResponse, Exception]] = []
        first_error: Optional[Exception] = None
        for future in futures:
            try:
                results.append(future.result())
            except Exception as exc:  # noqa: BLE001 - re-raised below
                if not return_exceptions and first_error is None:
                    first_error = exc
                results.append(exc)
        if first_error is not None:
            raise first_error
        return results

    def request(
        self, req: PlanRequest, deadline_s: Optional[float] = None
    ) -> PlanResponse:
        """Synchronous convenience wrapper: submit and wait."""
        return self.submit(req, deadline_s=deadline_s).result()

    def _account_process_outcome(
        self, outcome: Union[PlanResponse, Exception]
    ) -> None:
        """Count a process-backend outcome before its future resolves.

        The backend calls this ahead of resolving the future, so a
        caller woken by the result never reads counters that lag it.
        """
        if isinstance(outcome, DispatchDeadlineError):
            self._counters.inc("errors", "deadline_exceeded")
        elif isinstance(outcome, Exception):
            self._counters.inc("errors")
        elif outcome.cache_hit:
            self._counters.inc("completed", "coalesced")
        else:
            self._counters.inc("completed")

    # ------------------------------------------------------------------
    # Worker body
    # ------------------------------------------------------------------
    def _check_deadline(
        self,
        req: PlanRequest,
        deadline_s: Optional[float],
        submitted_at: float,
        while_doing: str,
    ) -> float:
        """Remaining budget (inf when unbounded); raises when expired."""
        if deadline_s is None:
            return float("inf")
        remaining = deadline_s - (_time.monotonic() - submitted_at)
        if remaining <= 0:
            self._counters.inc("deadline_exceeded", "errors")
            raise DispatchDeadlineError(
                f"request for {req.vehicle_id!r} missed its {deadline_s:.2f} s "
                f"deadline {while_doing}",
                vehicle_id=req.vehicle_id,
                deadline_s=deadline_s,
            )
        return remaining

    def _run(
        self,
        req: PlanRequest,
        key: Optional[Hashable],
        flight: Optional[_Flight],
        predecessor: Optional[_Flight],
        deadline_s: Optional[float],
        submitted_at: float,
    ) -> PlanResponse:
        # The whole worker body runs under the chain-release finally: a
        # request that dies *anywhere* — including on a deadline that
        # expired while it was still queued — must release its successor,
        # or a successor with no deadline of its own waits forever.
        try:
            remaining = self._check_deadline(req, deadline_s, submitted_at, "while queued")
            if predecessor is not None:
                # Follower: wait for the previous same-key request, then
                # serve from the cache it left with an ordinary service call.
                timeout = None if remaining == float("inf") else remaining
                if not predecessor.done.wait(timeout=timeout):
                    self._check_deadline(
                        req, deadline_s, submitted_at, "waiting on a coalesced solve"
                    )
            elif key is not None:
                self._counters.inc("leaders")
            try:
                response = self.service.request(req)
            except Exception:
                self._counters.inc("errors")
                raise
            # A follower is only *coalesced* if the warm cache actually
            # answered it.  When its leader failed (or the entry was
            # rejected on revalidation) the serve above fell back to a
            # full solve of its own — counting that as coalesced would
            # overstate the dispatcher's savings.
            if predecessor is not None and response.cache_hit:
                self._counters.inc("coalesced", "completed")
            else:
                self._counters.inc("completed")
            return response
        finally:
            if flight is not None:
                with self._lock:
                    if self._flights.get(key) is flight:
                        del self._flights[key]
                flight.done.set()

    # ------------------------------------------------------------------
    # Lifecycle / stats
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop any worker processes and the pool (idempotent)."""
        if self._proc is not None:
            self._proc.shutdown(wait=wait)
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "PlanDispatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=True)

    def stats(self) -> DispatcherStats:
        """An immutable snapshot of the counts."""
        return DispatcherStats(workers=self.workers, **self._counters.snapshot())
