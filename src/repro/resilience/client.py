"""A fault-tolerant client for the cloud planning service.

:class:`ResilientPlanClient` sits between a vehicle (or the closed-loop
driver) and :class:`~repro.cloud.service.CloudPlannerService` and makes
the request path survivable:

* **Per-request deadline** — simulated latency (from the injected fault
  model) plus backoff waits are charged against a request budget; a
  request that cannot complete in time fails fast instead of hanging.
* **Bounded retries with jittered exponential backoff** — dropped
  attempts are retried up to ``max_attempts`` times; the wait before
  attempt ``k`` is ``backoff_base_s * backoff_factor**(k-1)`` stretched
  by a deterministic jitter factor in ``[1, 1 + backoff_jitter]``.
* **Circuit breaker** — ``closed → open`` after
  ``breaker_threshold`` consecutive request failures; while open,
  requests fast-fail without touching the wire; after
  ``breaker_cooldown_s`` of simulated time the breaker goes
  ``half_open`` and admits a single probe whose outcome closes or
  re-opens it.

All waits are *simulated* (the client never sleeps): time advances only
through the ``now_s`` values callers pass in, which is the simulation
clock in closed-loop runs.  Every state transition and retry is recorded
both in :class:`ClientStats` and the active :mod:`repro.obs` registry.

With no fault model attached the client is a pure pass-through — the
service sees exactly the requests it would have seen without the client.
To put a real serialization boundary under it, wrap a
:class:`~repro.cloud.netclient.NetworkPlanTransport` instead of the
service itself.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import obs
from repro.cloud.messages import PlanRequest, PlanResponse
from repro.cloud.service import CloudPlannerService
from repro.errors import (
    CloudUnavailableError,
    ConfigurationError,
    PlanningFailedError,
    ServerOverloadError,
    WireProtocolError,
)
from repro.resilience.faults import CloudFaultModel, hash_uniform

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

_STATE_GAUGE = {BREAKER_CLOSED: 0.0, BREAKER_HALF_OPEN: 1.0, BREAKER_OPEN: 2.0}


@dataclass
class ClientStats:
    """Operational counters of one resilient client.

    Attributes:
        requests: Requests submitted (including fast-fails).
        served: Requests answered by the service (plans and
            ``PlanningFailedError`` both count — the wire worked).
        attempts: Wire attempts made.
        retries: Attempts beyond the first, across all requests.
        drops: Attempts lost to injected drops (includes outage drops).
        outage_drops: Attempts lost inside an outage window.
        deadline_exceeded: Requests abandoned because latency + backoff
            exhausted the request deadline.
        failures: Requests that produced no service answer (transport).
        fast_fails: Requests rejected immediately by an open breaker
            (or while another caller's half-open probe was in flight).
        transport_errors: Attempts the wrapped service itself failed
            with a :class:`CloudUnavailableError` (a real transport —
            e.g. :class:`~repro.cloud.netclient.NetworkPlanTransport` —
            timing out, resetting, or being shed); retried like drops.
        busy_rejections: The subset of ``transport_errors`` that were
            typed BUSY sheds (:class:`ServerOverloadError`).
        breaker_state: Current breaker state.
        transitions: Breaker history as ``(now_s, from, to)`` tuples.
    """

    requests: int = 0
    served: int = 0
    attempts: int = 0
    retries: int = 0
    drops: int = 0
    outage_drops: int = 0
    deadline_exceeded: int = 0
    failures: int = 0
    fast_fails: int = 0
    transport_errors: int = 0
    busy_rejections: int = 0
    breaker_state: str = BREAKER_CLOSED
    transitions: List[Tuple[float, str, str]] = field(default_factory=list)

    @property
    def breaker_opens(self) -> int:
        """Times the breaker tripped open."""
        return sum(1 for _, _, to in self.transitions if to == BREAKER_OPEN)


class ResilientPlanClient:
    """Deadline/retry/breaker wrapper around a planning service.

    Args:
        service: The wrapped :class:`CloudPlannerService` (anything with
            a compatible ``request``).
        fault: Injected transport faults; ``None`` = a perfect link.
        deadline_s: Per-request simulated time budget.
        max_attempts: Wire attempts per request (>= 1).
        backoff_base_s: Wait before the first retry.
        backoff_factor: Geometric growth of successive waits.
        backoff_jitter: Jitter fraction; each wait is stretched by a
            deterministic factor in ``[1, 1 + backoff_jitter]``.
        breaker_threshold: Consecutive request failures that trip the
            breaker open.
        breaker_cooldown_s: Simulated seconds the breaker stays open
            before admitting a half-open probe.
    """

    def __init__(
        self,
        service: CloudPlannerService,
        fault: Optional[CloudFaultModel] = None,
        deadline_s: float = 5.0,
        max_attempts: int = 3,
        backoff_base_s: float = 0.2,
        backoff_factor: float = 2.0,
        backoff_jitter: float = 0.5,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 60.0,
    ) -> None:
        if deadline_s <= 0:
            raise ConfigurationError("request deadline must be positive")
        if max_attempts < 1:
            raise ConfigurationError("need at least one attempt per request")
        if backoff_base_s < 0 or backoff_factor < 1.0 or backoff_jitter < 0:
            raise ConfigurationError(
                "backoff needs base >= 0, factor >= 1 and jitter >= 0"
            )
        if breaker_threshold < 1 or breaker_cooldown_s <= 0:
            raise ConfigurationError(
                "breaker needs threshold >= 1 and a positive cooldown"
            )
        self.service = service
        self.fault = fault
        self.deadline_s = float(deadline_s)
        self.max_attempts = int(max_attempts)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_factor = float(backoff_factor)
        self.backoff_jitter = float(backoff_jitter)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self.stats = ClientStats()
        self._request_index = 0
        self._consecutive_failures = 0
        self._opened_at_s = 0.0
        # Breaker state machine guard: concurrent callers (fleet threads
        # sharing one client) must agree on who carries the half-open
        # probe — exactly one may be in flight at a time.
        self._breaker_mutex = threading.Lock()
        self._probe_in_flight = False

    # ------------------------------------------------------------------
    # Breaker
    # ------------------------------------------------------------------
    def _transition(self, to: str, now_s: float) -> None:
        state = self.stats.breaker_state
        if state == to:
            return
        self.stats.breaker_state = to
        self.stats.transitions.append((now_s, state, to))
        registry = obs.get_registry()
        registry.inc(f"resilience.breaker.{to}")
        registry.gauge("resilience.breaker.state", _STATE_GAUGE[to])

    def _breaker_admits(self, now_s: float) -> bool:
        """Whether the breaker lets this request reach the wire.

        Thread-safe, and half-open admits **exactly one** probe: the
        caller that wins the transition carries it; every other caller
        fast-fails until that probe's outcome closes or re-opens the
        breaker.  Without the in-flight flag, any number of concurrent
        requests arriving while half-open would all pass — a thundering
        herd onto a service that just proved unhealthy.
        """
        with self._breaker_mutex:
            state = self.stats.breaker_state
            if state == BREAKER_CLOSED:
                return True
            if state == BREAKER_OPEN:
                if now_s - self._opened_at_s < self.breaker_cooldown_s:
                    return False
                self._transition(BREAKER_HALF_OPEN, now_s)
                self._probe_in_flight = True
                return True
            # Half-open: admit only if no probe is already in flight.
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def _record_success(self, now_s: float) -> None:
        with self._breaker_mutex:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self.stats.breaker_state != BREAKER_CLOSED:
                self._transition(BREAKER_CLOSED, now_s)

    def _record_failure(self, now_s: float) -> None:
        with self._breaker_mutex:
            if self.stats.breaker_state == BREAKER_HALF_OPEN:
                # The probe failed: straight back to open, fresh cooldown.
                self._probe_in_flight = False
                self._opened_at_s = now_s
                self._transition(BREAKER_OPEN, now_s)
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.breaker_threshold:
                self._opened_at_s = now_s
                self._transition(BREAKER_OPEN, now_s)

    # ------------------------------------------------------------------
    # Backoff
    # ------------------------------------------------------------------
    def backoff_s(self, request_index: int, attempt: int) -> float:
        """The (jittered) wait before retry ``attempt`` (1-based).

        Bounded: ``base * factor**(attempt-1) <= wait <=
        base * factor**(attempt-1) * (1 + jitter)``.
        """
        if attempt < 1:
            return 0.0
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        seed = self.fault.seed if self.fault is not None else 0
        u = hash_uniform(seed, "backoff", request_index, attempt)
        return base * (1.0 + self.backoff_jitter * u)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def request(self, req: PlanRequest, now_s: Optional[float] = None) -> PlanResponse:
        """Submit one plan request through the fault-tolerant path.

        Args:
            req: The plan request.
            now_s: Simulated submission time; defaults to
                ``req.depart_s`` (a vehicle asks when it wants to go).

        Raises:
            CloudUnavailableError: The breaker was open, every attempt
                was dropped, or the deadline was exhausted.
            PlanningFailedError: The service answered but found the
                request infeasible (propagated; does not trip the
                breaker — the transport worked).
        """
        t = req.depart_s if now_s is None else float(now_s)
        registry = obs.get_registry()
        self.stats.requests += 1
        registry.inc("resilience.requests")
        index = self._request_index
        self._request_index += 1

        if not self._breaker_admits(t):
            self.stats.fast_fails += 1
            registry.inc("resilience.fast_fails")
            raise CloudUnavailableError(
                f"breaker open: request for {req.vehicle_id!r} fast-failed at "
                f"{t:.1f} s",
                vehicle_id=req.vehicle_id,
                attempts=0,
                reason="breaker_open",
            )

        elapsed = 0.0
        reason = "drop"
        attempts_allowed = (
            1 if self.stats.breaker_state == BREAKER_HALF_OPEN else self.max_attempts
        )
        attempts = 0
        for attempt in range(attempts_allowed):
            if attempt > 0:
                wait = self.backoff_s(index, attempt)
                if elapsed + wait > self.deadline_s:
                    reason = "deadline"
                    self.stats.deadline_exceeded += 1
                    registry.inc("resilience.deadline_exceeded")
                    break
                elapsed += wait
                self.stats.retries += 1
                registry.inc("resilience.retries")
            attempts += 1
            self.stats.attempts += 1
            decision = (
                self.fault.evaluate(index, attempt, t + elapsed)
                if self.fault is not None
                else None
            )
            if decision is not None:
                if elapsed + decision.latency_s > self.deadline_s:
                    reason = "deadline"
                    self.stats.deadline_exceeded += 1
                    registry.inc("resilience.deadline_exceeded")
                    break
                elapsed += decision.latency_s
                if decision.dropped:
                    self.stats.drops += 1
                    registry.inc("resilience.drops")
                    if decision.in_outage:
                        self.stats.outage_drops += 1
                        reason = "outage"
                    else:
                        reason = "drop"
                    continue
            try:
                response = self.service.request(req)
            except PlanningFailedError:
                # The service answered: transport is healthy even though
                # the problem was infeasible.
                self.stats.served += 1
                registry.inc("resilience.infeasible")
                self._record_success(t + elapsed)
                raise
            except WireProtocolError:
                # The server answered and judged our request defective;
                # identical retries cannot succeed, and the transport
                # itself worked — propagate without touching the breaker
                # failure count.
                self._record_success(t + elapsed)
                raise
            except CloudUnavailableError as exc:
                # A real transport under the client (the network plan
                # transport) failed this attempt: BUSY shed, timeout,
                # reset, garbled reply.  Retryable, exactly like an
                # injected drop.
                self.stats.transport_errors += 1
                registry.inc("resilience.transport_errors")
                if isinstance(exc, ServerOverloadError):
                    self.stats.busy_rejections += 1
                    registry.inc("resilience.busy_rejections")
                reason = exc.reason
                continue
            self.stats.served += 1
            registry.observe("resilience.request_elapsed_s", elapsed)
            self._record_success(t + elapsed)
            return response

        self.stats.failures += 1
        registry.inc("resilience.failures")
        self._record_failure(t + elapsed)
        raise CloudUnavailableError(
            f"cloud unreachable for {req.vehicle_id!r} after {attempts} "
            f"attempt(s) ({reason}) at {t:.1f} s",
            vehicle_id=req.vehicle_id,
            attempts=attempts,
            reason=reason,
        )
