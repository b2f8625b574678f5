"""The cloud planning service: a thin facade over the serving layers.

With fixed-time signals and a stationary arrival-rate forecast, the
planning problem is periodic: a departure at ``t`` and one at
``t + P`` (``P`` = the common signal period) have identical optimal
profiles, merely shifted in time.  The service exploits this — requests
are keyed by the departure's phase within ``P`` (quantized) and the trip
budget, so a warm cache answers most of a fleet's requests without
running the DP at all.  This is what makes the vehicular-cloud deployment
of [6, 7] economical.

The service itself is deliberately thin.  It owns the serving *policy*
(quantization, revalidation, budget defaults, the accounting invariant)
and composes the mechanism layers:

* :mod:`repro.cloud.plan_cache` — the bounded, thread-safe LRU
  caches behind the phase cache and both min-time memos (previously
  three unbounded dicts);
* :mod:`repro.cloud.dispatcher` — concurrency and request coalescing on
  top of :meth:`CloudPlannerService.request` (the service stays
  synchronous; the dispatcher threads it);
* :mod:`repro.cloud.wire` — the serialization boundary, exercised by
  clients that round-trip requests/responses through the codec.

Thread-safety: :meth:`request` may be called from multiple dispatcher
workers concurrently.  The caches lock internally and the stats counters
mutate under the service's own lock, so the
``requests == cache_hits + cache_misses + errors`` invariant holds under
concurrency too.
"""

from __future__ import annotations

import math
import threading
import time as _time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.cloud.messages import DEFAULT_CORRIDOR_ID, PlanRequest, PlanResponse
from repro.cloud.plan_cache import CacheStats, PlanCache
from repro.core.planner import DpPlannerBase
from repro.core.profile import VelocityProfile
from repro.errors import (
    ConfigurationError,
    InfeasibleProblemError,
    PlanRejectedError,
    PlanningFailedError,
    UnknownCorridorError,
)
from repro.guard.contracts import validate_plan_request
from repro.guard.plan_check import PlanValidator


@dataclass
class ServiceStats:
    """Operational counters of the service.

    Every request increments exactly one of ``cache_hits``,
    ``cache_misses`` or ``errors``, so
    ``requests == cache_hits + cache_misses + errors`` always holds —
    including when the planner raises mid-request, and under concurrent
    dispatch (the service mutates these under a lock).

    Attributes:
        requests: Total requests received (served or not).
        cache_hits: Requests answered from the phase cache.
        cache_misses: Requests answered by running the planner.
        errors: Requests the planner could not satisfy
            (:class:`~repro.errors.PlanningFailedError` was raised).
        revalidation_misses: Cache hits discarded because the shifted
            profile no longer satisfied the arrival windows at the new
            departure; each one is also counted as a ``cache_misses``
            (the plan was recomputed), never as a hit.
        total_compute_s: Planner wall time, including failed solves.
    """

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    errors: int = 0
    revalidation_misses: int = 0
    total_compute_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Cache hit fraction of *served* requests; 0 when idle.

        Failed requests (``errors``) never reached a serve decision, so
        they are excluded — a planner failure does not skew the rate.
        """
        served = self.cache_hits + self.cache_misses
        return self.cache_hits / served if served else 0.0


class CloudPlannerService:
    """Serves velocity plans to vehicles, caching by signal phase.

    Args:
        planner: Any planner from :mod:`repro.core.planner` (typically the
            queue-aware one).  Callable arrival rates disable caching —
            a time-varying forecast breaks periodicity.
        phase_quantum_s: Cache key resolution within the signal period.
        budget_quantum_s: Cache key resolution of the trip budget.
        default_budget_slack_s: Slack added to the fastest-feasible trip
            when a request carries no budget.
        validator: Optional :class:`~repro.guard.plan_check.PlanValidator`;
            when given, every freshly solved plan is audited against the
            planner's own arrival windows before it is served or cached.
            An invalid plan raises :class:`~repro.errors.PlanningFailedError`
            (accounted like any planner failure) so clients degrade
            instead of executing a degenerate profile.
        cache_capacity: Bound of each of the three serving caches (the
            phase-keyed plan cache and both min-time memos).  Entries
            never expire by age: with fixed-time signals plans only go
            stale on forecast updates, which call :meth:`clear_cache`.
        name: Metric namespace of this service's counters and caches
            (``<name>.requests``, ``<name>.plan_cache.hits``, …).  The
            default preserves the historical ``cloud.*`` names; a
            corridor shard passes e.g. ``cloud.elm-street`` so
            ``--metrics`` and the server stats frame break hit rates
            down by corridor.
        corridor_id: The corridor this service is bound to.  A request
            naming any other corridor is rejected with
            :class:`~repro.errors.UnknownCorridorError` — the structural
            guarantee that a plan cached for corridor A is never served
            for corridor B.  Single-corridor deployments keep the
            default and never notice.
    """

    def __init__(
        self,
        planner: DpPlannerBase,
        phase_quantum_s: float = 1.0,
        budget_quantum_s: float = 5.0,
        default_budget_slack_s: float = 30.0,
        validator: Optional[PlanValidator] = None,
        cache_capacity: int = 256,
        name: str = "cloud",
        corridor_id: str = DEFAULT_CORRIDOR_ID,
    ) -> None:
        if phase_quantum_s <= 0 or budget_quantum_s <= 0:
            raise ConfigurationError("cache quanta must be positive")
        if default_budget_slack_s < 0:
            raise ConfigurationError("budget slack must be >= 0")
        if not isinstance(corridor_id, str) or not corridor_id:
            raise ConfigurationError("corridor id must be a non-empty string")
        self.planner = planner
        self.validator = validator
        self.name = str(name)
        self.corridor_id = corridor_id
        self.phase_quantum_s = float(phase_quantum_s)
        self.budget_quantum_s = float(budget_quantum_s)
        self.default_budget_slack_s = float(default_budget_slack_s)
        self.stats = ServiceStats()
        self._mutex = threading.Lock()
        self.plan_cache = PlanCache(
            capacity=cache_capacity, name=f"{self.name}.plan_cache"
        )
        self.min_time_cache = PlanCache(
            capacity=cache_capacity, name=f"{self.name}.min_time_cache"
        )
        self.min_time_exact = PlanCache(
            capacity=cache_capacity, name=f"{self.name}.min_time_exact"
        )
        self._period_s = self._common_signal_period()
        self._cacheable = self._period_s is not None and not self._rates_time_varying()

    def _check_corridor(self, req: PlanRequest) -> None:
        """Reject a request routed to the wrong corridor's service."""
        if req.corridor_id != self.corridor_id:
            raise UnknownCorridorError(
                f"request from {req.vehicle_id!r} names corridor "
                f"{req.corridor_id!r}, but this service is bound to "
                f"{self.corridor_id!r}",
                corridor_id=req.corridor_id,
                known_ids=(self.corridor_id,),
                source=f"service {self.name!r}",
            )

    # ------------------------------------------------------------------
    # Periodicity analysis
    # ------------------------------------------------------------------
    def _common_signal_period(self) -> Optional[float]:
        """LCM of all signal cycles (decisecond precision), if signals exist."""
        cycles = [site.light.cycle_s for site in self.planner.road.signals]
        if not cycles:
            return None
        decis = [int(round(c * 10.0)) for c in cycles]
        lcm = decis[0]
        for d in decis[1:]:
            lcm = lcm * d // math.gcd(lcm, d)
        return lcm / 10.0

    def _rates_time_varying(self) -> bool:
        rates = getattr(self.planner, "arrival_rates", None)
        if rates is None:
            return False
        if callable(rates):
            return True
        if isinstance(rates, dict):
            return any(callable(r) for r in rates.values())
        return False

    @property
    def cache_enabled(self) -> bool:
        """Whether phase caching applies to this planner/road combination."""
        return self._cacheable

    # ------------------------------------------------------------------
    # Cache keys
    # ------------------------------------------------------------------
    def _phase_bin(self, depart_s: float) -> int:
        return int((depart_s % self._period_s) / self.phase_quantum_s)

    def coalesce_key(self, req: PlanRequest) -> Optional[Tuple]:
        """The key under which concurrent requests may share one solve.

        Two requests with equal keys are guaranteed to resolve to the
        same plan-cache entry, so the dispatch layer lets one of them
        solve and serves the rest from the warm cache.  ``None`` means
        the request is uncoalescable (uncacheable planner, mid-route
        replan, or a non-energy objective) and must run on its own.

        A budget-less request keys on ``(phase_bin, None)``: its budget
        derives deterministically from the phase bin (min-time memo +
        slack), so equal bins imply equal budgets.
        """
        if not self._cacheable or req.is_replan or req.minimize != "energy":
            return None
        phase_bin = self._phase_bin(req.depart_s)
        if req.max_trip_time_s is None:
            return (phase_bin, None)
        return (phase_bin, int(req.max_trip_time_s / self.budget_quantum_s))

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def request(self, req: PlanRequest) -> PlanResponse:
        """Answer one vehicle's plan request.

        Cache hits are *revalidated*: the cached profile is shifted to the
        request's departure (:meth:`VelocityProfile.shifted_to`, which
        reuses its validated arrays) and its signal arrivals are
        re-checked against the (margin-shrunk) arrival windows at that
        departure.  This bounds the phase-quantization error — a hit
        whose shifted arrivals drifted out of the windows (possible when
        ``phase_quantum_s`` exceeds the planner's window margin) falls
        back to a fresh solve instead of handing out a stale plan.

        Raises:
            PlanningFailedError: The planner found the request infeasible.
                ``stats.errors`` is incremented and any planner wall time
                spent is accounted in ``stats.total_compute_s`` before the
                raise, so counters stay consistent for callers that catch
                it and continue.
        """
        registry = obs.get_registry()
        # Screen the one thing the frozen request could not check about
        # itself: its position against this service's route.  The
        # request's own field contract (finiteness, ceilings) already ran
        # in ``PlanRequest.__post_init__`` and the request is immutable,
        # so those checks are skipped here rather than run twice.
        self._check_corridor(req)
        validate_plan_request(
            req,
            route_length_m=self.planner.road.length_m,
            source=f"plan request from {req.vehicle_id!r}",
            check_fields=False,
        )
        t_req = _time.perf_counter()
        with self._mutex:
            self.stats.requests += 1
        registry.inc(f"{self.name}.requests")
        try:
            response = self._serve(req, registry)
        except (InfeasibleProblemError, PlanRejectedError) as exc:
            with self._mutex:
                self.stats.errors += 1
            registry.inc(f"{self.name}.errors")
            if isinstance(exc, PlanRejectedError):
                registry.inc(f"{self.name}.guard_rejections")
            registry.observe(f"{self.name}.request_s", _time.perf_counter() - t_req)
            raise PlanningFailedError(
                f"no feasible plan for {req.vehicle_id!r} departing at "
                f"{req.depart_s:.1f} s: {exc}",
                vehicle_id=req.vehicle_id,
                depart_s=req.depart_s,
            ) from exc
        registry.observe(f"{self.name}.request_s", _time.perf_counter() - t_req)
        return response

    def _serve(self, req: PlanRequest, registry: obs.MetricsRegistry) -> PlanResponse:
        """Serve one request: cache lookup + revalidation, else a solve."""
        if req.is_replan or req.minimize != "energy":
            return self._serve_uncached(req, registry)
        budget = req.max_trip_time_s
        if budget is None:
            budget = self._fastest_trip(req.depart_s) + self.default_budget_slack_s

        key = None
        if self._cacheable:
            key = (self._phase_bin(req.depart_s), int(budget / self.budget_quantum_s))
            cached = self.plan_cache.get(key)
            if cached is not None:
                profile, energy_mah, trip_time = cached
                shifted = profile.shifted_to(req.depart_s)
                if self._revalidate(shifted, req.depart_s):
                    with self._mutex:
                        self.stats.cache_hits += 1
                    registry.inc(f"{self.name}.hits")
                    return PlanResponse(
                        vehicle_id=req.vehicle_id,
                        profile=shifted,
                        energy_mah=energy_mah,
                        trip_time_s=trip_time,
                        cache_hit=True,
                        compute_time_s=0.0,
                        corridor_id=req.corridor_id,
                    )
                self.plan_cache.note_revalidation_miss()
                with self._mutex:
                    self.stats.revalidation_misses += 1
                registry.inc(f"{self.name}.revalidation_misses")

        t0 = _time.perf_counter()
        try:
            solution = self.planner.plan(
                start_time_s=req.depart_s, max_trip_time_s=budget
            )
        finally:
            # Failed solves burn real planner time too; account it so the
            # service's compute economics stay honest under errors.
            compute = _time.perf_counter() - t0
            with self._mutex:
                self.stats.total_compute_s += compute
        self._screen(solution, req.depart_s)
        with self._mutex:
            self.stats.cache_misses += 1
        registry.inc(f"{self.name}.misses")
        if key is not None:
            self.plan_cache.put(
                key,
                (solution.profile, solution.energy_mah, solution.trip_time_s),
            )
        return PlanResponse(
            vehicle_id=req.vehicle_id,
            profile=solution.profile,
            energy_mah=solution.energy_mah,
            trip_time_s=solution.trip_time_s,
            cache_hit=False,
            compute_time_s=compute,
            corridor_id=req.corridor_id,
        )

    def _serve_uncached(
        self, req: PlanRequest, registry: obs.MetricsRegistry
    ) -> PlanResponse:
        """Serve a mid-route replan or a non-energy objective.

        Phase caching does not apply: a replan is specific to the
        vehicle's ``(position, speed, time)`` state, and the cache stores
        energy-optimal profiles only.  The solve is accounted as a cache
        miss so the ``requests == hits + misses + errors`` invariant
        holds unchanged.  A ``None`` budget falls through to the solver's
        horizon default — the route-start fastest-trip floor is
        meaningless mid-route.
        """
        t0 = _time.perf_counter()
        try:
            if req.is_replan:
                solution = self.planner.replan(
                    position_m=req.position_m,
                    speed_ms=req.speed_ms,
                    time_s=req.depart_s,
                    max_trip_time_s=req.max_trip_time_s,
                    minimize=req.minimize,
                )
            else:
                solution = self.planner.plan(
                    start_time_s=req.depart_s,
                    max_trip_time_s=req.max_trip_time_s,
                    minimize=req.minimize,
                )
        finally:
            compute = _time.perf_counter() - t0
            with self._mutex:
                self.stats.total_compute_s += compute
        self._screen(solution, req.depart_s)
        with self._mutex:
            self.stats.cache_misses += 1
        registry.inc(f"{self.name}.misses")
        registry.inc(f"{self.name}.replans" if req.is_replan else f"{self.name}.uncached")
        return PlanResponse(
            vehicle_id=req.vehicle_id,
            profile=solution.profile,
            energy_mah=solution.energy_mah,
            trip_time_s=solution.trip_time_s,
            cache_hit=False,
            compute_time_s=compute,
            corridor_id=req.corridor_id,
        )

    def request_batch(
        self, reqs: Sequence[PlanRequest]
    ) -> List[Union[PlanResponse, Exception]]:
        """Serve many requests in order, one :meth:`request` each.

        This is a plain loop over :meth:`request` with exceptions
        captured in place of responses, so one bad request does not
        mask the others, and plans, caches and counters are those of
        serial serving.

        Returns:
            One entry per request, in order: a :class:`PlanResponse`, or
            the exception :meth:`request` raised for it.
        """
        outcomes: List[Union[PlanResponse, Exception]] = []
        for req in reqs:
            try:
                outcomes.append(self.request(req))
            except Exception as exc:  # noqa: BLE001 - mirrored to caller
                outcomes.append(exc)
        return outcomes

    def _screen(self, solution, depart_s: float) -> None:
        """Audit a freshly solved plan before it is served or cached.

        Raises:
            PlanRejectedError: The configured validator found the plan
                degenerate (non-finite values, envelope breaches, or an
                arrival outside the planner's own ``T_q``/green windows).
        """
        if self.validator is None:
            return
        verdict = self.validator.check_solution(
            solution, constraints=self.planner.signal_constraints(depart_s)
        )
        if not verdict.ok:
            raise PlanRejectedError(
                "served plan failed its safety audit: " + verdict.summary(),
                violations=verdict.violations,
            )

    def _revalidate(self, profile: VelocityProfile, depart_s: float) -> bool:
        """Whether a shifted cached profile still hits every arrival window.

        The cache key quantizes the departure phase, so a shifted profile's
        arrivals can drift up to ``phase_quantum_s`` relative to the solve
        that produced it.  The planner's window margin normally absorbs
        that drift; this check catches the cases it cannot (quantum larger
        than the margin, windows whose edges moved between cycles).  The
        windows come from :meth:`~repro.core.planner.DpPlannerBase.signal_constraints`,
        the same definition the DP solved against.
        """
        return all(
            profile.arrival_time_at(constraint.position_m) in constraint.windows
            for constraint in self.planner.signal_constraints(depart_s)
        )

    def _fastest_trip(self, depart_s: float) -> float:
        """Minimum feasible trip time, memoized per departure bin.

        Cacheable (periodic) planners share one entry per quantized phase
        bin.  Uncacheable planners (time-varying rates) still memoize per
        *exact* departure — the solve is deterministic, so repeated
        budget-less requests at one departure pay a single ``minimize=
        "time"`` DP instead of one each, without any quantization that
        could alter budgets (and therefore plans).
        """
        if not self._cacheable:
            cached = self.min_time_exact.get(depart_s)
            if cached is None:
                t0 = _time.perf_counter()
                try:
                    cached = self.planner.min_trip_time(depart_s)
                finally:
                    with self._mutex:
                        self.stats.total_compute_s += _time.perf_counter() - t0
                self.min_time_exact.put(depart_s, cached)
            return cached
        phase_bin = self._phase_bin(depart_s)
        cached = self.min_time_cache.get(phase_bin)
        if cached is None:
            t0 = _time.perf_counter()
            try:
                cached = self.planner.min_trip_time(depart_s)
            finally:
                with self._mutex:
                    self.stats.total_compute_s += _time.perf_counter() - t0
            self.min_time_cache.put(phase_bin, cached)
        return cached

    @property
    def artifact_store(self):
        """The planner's shared corridor-artifact store, if it has one.

        The service itself never builds corridor artifacts — the planner's
        solver does, once, at construction — but fleet/CLI summaries want
        the store counters next to the plan-cache counters, so the store
        is surfaced here.
        """
        return getattr(self.planner, "store", None)

    def stats_snapshot(self) -> ServiceStats:
        """A point-in-time copy of the counters, safe to keep in results.

        ``stats`` itself is the *live* mutable record — later requests
        keep mutating it.  Result objects (fleet studies, benchmarks)
        must hold this snapshot instead, so a finished study's numbers
        cannot drift afterwards.
        """
        with self._mutex:
            return replace(self.stats)

    def cache_stats(self) -> Tuple[CacheStats, CacheStats, CacheStats]:
        """Snapshots of (plan cache, min-time memo, exact min-time memo)."""
        return (
            self.plan_cache.stats(),
            self.min_time_cache.stats(),
            self.min_time_exact.stats(),
        )

    def clear_cache(self) -> None:
        """Drop all cached plans (e.g. after a forecast update)."""
        self.plan_cache.clear()
        self.min_time_cache.clear()
        self.min_time_exact.clear()
