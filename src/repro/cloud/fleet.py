"""Fleet-scale evaluation of the cloud planning service.

Models a day-slice of EV traffic on the corridor: vehicles depart at
Poisson times, each asks the cloud for a plan, and the study aggregates
the fleet's planned energy against what the same fleet would burn driving
like the paper's human references (a mild/fast mix).  Also surfaces the
service-side economics — the phase cache means fleet cost grows with the
number of *distinct phases*, not the number of vehicles.

Two serving modes share one aggregation path:

* **serial** (``workers=0``, the default) — each request is served in
  the caller's thread, exactly as before;
* **dispatched** (``workers>0``) — the Poisson stream is submitted
  through a :class:`~repro.cloud.dispatcher.PlanDispatcher`, which
  serves distinct phases concurrently and coalesces same-phase requests
  into single solves.  Submission order matches departure order, so
  coalescing leadership (and therefore every served profile) is
  bit-identical to the serial mode.  The dispatcher's process backend
  (``backend="process"``) plugs in here unchanged and serves
  bit-identical plans too.

To put the real wire under a study, serve ``via=`` a
:class:`~repro.cloud.netclient.NetworkPlanTransport` pointing at a
:class:`~repro.cloud.server.PlanServer`: every request and response then
crosses the codec, the framing and a socket, and the results stay
bit-identical.

**Multi-corridor mode** (``corridors=`` instead of ``road=``) drives an
interleaved fleet across several corridors at once — vehicle ``i``
departs on corridor ``i % len(corridors)`` — against a sharded target
such as a :class:`~repro.cloud.router.PlanRouter`.  Human references
are synthesized per corridor (each corridor's own road and signals),
and the result carries a :class:`CorridorFleetSlice` per corridor next
to the fleet-wide aggregate, so per-corridor savings and cache economics
are inspectable directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cloud.dispatcher import DispatcherStats, PlanDispatcher
from repro.cloud.messages import PlanRequest, PlanResponse
from repro.cloud.plan_cache import CacheStats
from repro.cloud.service import CloudPlannerService, ServiceStats
from repro.core.engine import StoreStats
from repro.errors import (
    CloudUnavailableError,
    ConfigurationError,
    PlanningFailedError,
)
from repro.route.road import RoadSegment
from repro.trace.driver import fast_driver, mild_driver, synthesize_trace


@dataclass
class CorridorFleetSlice:
    """One corridor's share of a multi-corridor fleet study.

    Attributes:
        corridor_id: The corridor this slice aggregates.
        n_vehicles: Departures on this corridor that were served.
        n_failed: Departures on this corridor that produced no plan.
        planned_energy_mah: Planned trip energy on this corridor.
        human_energy_mah: Scaled human-reference energy (this corridor's
            own road and signal plan).
        savings_pct: This corridor's energy saving.
        service: This corridor's service counters, when the serving
            target exposes a per-corridor breakdown (a
            :class:`~repro.cloud.router.PlanRouter`); ``None`` otherwise.
        cache: This corridor's plan-cache counters (same condition).
    """

    corridor_id: str
    n_vehicles: int
    n_failed: int
    planned_energy_mah: float
    human_energy_mah: float
    savings_pct: float
    service: Optional[ServiceStats] = None
    cache: Optional[CacheStats] = None

    def summary(self) -> str:
        """One-line roll-up for reports and CLI output."""
        line = (
            f"{self.corridor_id}: {self.n_vehicles} served / "
            f"{self.n_failed} failed, savings {self.savings_pct:.1f}%"
        )
        if self.service is not None:
            line += f", hit rate {self.service.hit_rate:.2f}"
        return line


@dataclass
class FleetResult:
    """Aggregates of one fleet study.

    Every stats field is a point-in-time *snapshot* taken when
    :meth:`FleetStudy.run` returned — serving more requests through the
    same service afterwards cannot mutate a finished result.

    Attributes:
        n_vehicles: Fleet size served (successfully planned).
        n_failed: Departures that produced no plan — unplannable ones
            (:class:`~repro.errors.PlanningFailedError`) and, when
            serving ``via`` a network target, transport-dead ones
            (:class:`~repro.errors.CloudUnavailableError`); the study
            keeps going and reports them here instead of aborting.
        planned_energy_mah: Sum of planned (optimized) trip energies.
        human_energy_mah: Sum of the reference human-driving energies for
            the *served* departures (mild/fast mix) — failed departures
            are excluded from both sides of the comparison.
        savings_pct: Fleet-level energy saving of the optimized plans.
        mean_trip_time_s: Mean planned trip duration.
        service: Planning-service counters (cache hits, errors, compute
            time), snapshotted at the end of the run.
        failed_vehicle_ids: Ids of the unplannable departures, in order.
        store: Corridor-artifact store counters at the end of the run
            (``None`` when the service's planner holds no shared store).
        cache: Plan-cache counters at the end of the run.
        dispatch: Dispatcher counters (``None`` for serial runs).
        per_corridor: One :class:`CorridorFleetSlice` per corridor, in
            catalog order (empty for single-corridor studies).
    """

    n_vehicles: int
    n_failed: int
    planned_energy_mah: float
    human_energy_mah: float
    savings_pct: float
    mean_trip_time_s: float
    service: ServiceStats
    failed_vehicle_ids: List[str] = field(default_factory=list)
    store: Optional[StoreStats] = None
    cache: Optional[CacheStats] = None
    dispatch: Optional[DispatcherStats] = None
    per_corridor: List[CorridorFleetSlice] = field(default_factory=list)

    def summary(self) -> str:
        """One-line roll-up for reports and CLI output."""
        line = (
            f"{self.n_vehicles} served / {self.n_failed} failed, "
            f"savings {self.savings_pct:.1f}%, "
            f"plan-cache hit rate {self.service.hit_rate:.2f}"
        )
        if self.cache is not None:
            line += f", plan cache: {self.cache.summary()}"
        if self.dispatch is not None:
            line += f", dispatcher: {self.dispatch.summary()}"
        if self.store is not None:
            line += f", artifact store: {self.store.summary()}"
        for corridor_slice in self.per_corridor:
            line += f"\n  {corridor_slice.summary()}"
        return line


class FleetStudy:
    """Run a fleet of EVs through the cloud planner.

    Args:
        service: The planning service under study (or a
            :class:`~repro.cloud.router.PlanRouter` fronting several).
        road: Corridor (shared with the service's planner).  Mutually
            exclusive with ``corridors``.
        fleet_rate_vph: EV departure rate (vehicles/hour).
        mild_fraction: Share of the fleet whose human reference is the
            mild style (the rest drive fast).
        background_vph: Background traffic used for the human references.
        seed: Departure sampling and style assignment seed.
        workers: Dispatcher worker threads; 0 (the default) serves the
            stream serially in the caller's thread.
        backend: Dispatcher backend when ``workers > 0``: ``"thread"``
            (default) or ``"process"`` (key-sharded worker processes
            over shared-memory artifacts).
        via: Alternate request target for serial mode — anything with a
            compatible ``request(req)`` (a
            :class:`~repro.cloud.netclient.NetworkPlanTransport`
            pointing at a plan server, or a
            :class:`~repro.resilience.client.ResilientPlanClient`
            wrapping one).  ``service`` is still required: it is the
            stats authority the result snapshots.  Departures the
            target fails with :class:`~repro.errors.CloudUnavailableError`
            (timeouts, resets, BUSY sheds that survive the client's
            retries) are recorded as failed, like unplannable ones.
            Mutually exclusive with ``workers > 0``.
        corridors: Multi-corridor mode — a sequence of corridor specs
            (anything with ``corridor_id`` and ``road`` attributes, e.g.
            :class:`~repro.cloud.registry.CorridorSpec`).  Vehicle ``i``
            departs on corridor ``i % len(corridors)`` and its request
            carries that ``corridor_id``, so the serving target must
            know every named corridor (a
            :class:`~repro.cloud.router.PlanRouter` over the matching
            catalog).  Mutually exclusive with ``road``.
    """

    def __init__(
        self,
        service: CloudPlannerService,
        road: Optional[RoadSegment] = None,
        fleet_rate_vph: float = 40.0,
        mild_fraction: float = 0.5,
        background_vph: float = 300.0,
        seed: int = 0,
        workers: int = 0,
        backend: str = "thread",
        via=None,
        corridors: Optional[Sequence] = None,
    ) -> None:
        if fleet_rate_vph <= 0:
            raise ConfigurationError("fleet rate must be positive")
        if not 0.0 <= mild_fraction <= 1.0:
            raise ConfigurationError("mild fraction must be in [0, 1]")
        if workers < 0:
            raise ConfigurationError("workers must be >= 0 (0 = serial)")
        if via is not None and workers > 0:
            raise ConfigurationError(
                "via= serves serially; combine it with workers=0"
            )
        if (road is None) == (corridors is None):
            raise ConfigurationError(
                "pass exactly one of road= (single corridor) or "
                "corridors= (multi-corridor)"
            )
        if corridors is not None:
            corridors = tuple(corridors)
            if not corridors:
                raise ConfigurationError("corridors= must name >= 1 corridor")
            for spec in corridors:
                if not getattr(spec, "corridor_id", "") or not hasattr(spec, "road"):
                    raise ConfigurationError(
                        "each corridor spec needs corridor_id and road "
                        f"attributes, got {spec!r}"
                    )
            seen = [spec.corridor_id for spec in corridors]
            if len(set(seen)) != len(seen):
                raise ConfigurationError(f"duplicate corridor ids in {seen}")
        self.service = service
        self.via = via
        self.road = road
        self.corridors = corridors
        self.fleet_rate_vph = fleet_rate_vph
        self.mild_fraction = mild_fraction
        self.background_vph = background_vph
        self.seed = seed
        self.workers = int(workers)
        self.backend = backend

    def _corridor_of(self, index: int):
        """The corridor spec vehicle ``index`` departs on (``None`` = single)."""
        if self.corridors is None:
            return None
        return self.corridors[index % len(self.corridors)]

    def _make_request(
        self, vehicle_id: str, depart_s: float, corridor_id: Optional[str] = None
    ) -> PlanRequest:
        if corridor_id is None:
            return PlanRequest(vehicle_id=vehicle_id, depart_s=depart_s)
        return PlanRequest(
            vehicle_id=vehicle_id, depart_s=depart_s, corridor_id=corridor_id
        )

    def _serve_stream(self, departures: np.ndarray):
        """Serve all departures; yields ``(vehicle_id, response-or-error)``.

        Both modes produce results in departure order, so aggregation
        downstream is identical (and sums bit-identical) either way.
        """
        requests = [
            self._make_request(
                f"ev{i}",
                float(depart),
                spec.corridor_id if (spec := self._corridor_of(i)) else None,
            )
            for i, depart in enumerate(departures)
        ]
        if self.workers > 0:
            dispatcher = PlanDispatcher(
                self.service, workers=self.workers, backend=self.backend
            )
            try:
                outcomes = dispatcher.submit_many(requests, return_exceptions=True)
            finally:
                dispatcher.shutdown()
            self._dispatch_stats = dispatcher.stats()
            for req, outcome in zip(requests, outcomes):
                yield req.vehicle_id, outcome
            return
        self._dispatch_stats = None
        target = self.via if self.via is not None else self.service
        for req in requests:
            try:
                yield req.vehicle_id, target.request(req)
            except (PlanningFailedError, CloudUnavailableError) as exc:
                yield req.vehicle_id, exc

    def run(
        self,
        duration_s: float,
        start_s: float = 300.0,
        human_reference_sample: int = 4,
    ) -> FleetResult:
        """Serve a Poisson stream of plan requests over ``duration_s``.

        Human reference energies are expensive (each is a simulator run),
        so they are measured on ``human_reference_sample`` departures per
        style and scaled to the fleet — human trip energy varies little
        with departure compared to its mild/fast split.

        Departures the service cannot plan
        (:class:`~repro.errors.PlanningFailedError`) do not abort the
        study: they are recorded in ``FleetResult.failed_vehicle_ids``
        (and the service's ``stats.errors``), excluded from both the
        planned and the human-reference energy sums, and the run carries
        on with the remaining fleet.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        registry = obs.get_registry()
        rng = np.random.default_rng(self.seed)
        n = rng.poisson(self.fleet_rate_vph * duration_s / 3600.0)
        departures = np.sort(rng.uniform(start_s, start_s + duration_s, size=n))
        styles = rng.random(n) < self.mild_fraction

        specs = self.corridors if self.corridors is not None else (None,)
        corridor_ids = [
            spec.corridor_id if spec is not None else "" for spec in specs
        ]

        with registry.span("fleet.run", departures=int(n)):
            # Accumulators are keyed per corridor; the single-corridor
            # study is the one-key special case of the same path.
            trip_times: List[float] = []
            served_mild = {cid: 0 for cid in corridor_ids}
            served_fast = {cid: 0 for cid in corridor_ids}
            planned = {cid: 0.0 for cid in corridor_ids}
            failed = {cid: 0 for cid in corridor_ids}
            failed_ids: List[str] = []
            for i, (vehicle_id, outcome) in enumerate(
                self._serve_stream(departures)
            ):
                spec = self._corridor_of(i)
                cid = spec.corridor_id if spec is not None else ""
                if isinstance(outcome, (PlanningFailedError, CloudUnavailableError)):
                    failed_ids.append(vehicle_id)
                    failed[cid] += 1
                    registry.inc("fleet.failed")
                    continue
                if isinstance(outcome, Exception):
                    raise outcome
                response: PlanResponse = outcome
                planned[cid] += response.energy_mah
                trip_times.append(response.trip_time_s)
                if styles[i]:
                    served_mild[cid] += 1
                else:
                    served_fast[cid] += 1
                registry.inc("fleet.served")

            # Human references per corridor (each corridor's own road and
            # signal plan) and per style.
            human_means: Dict[Tuple[str, str], float] = {}
            for spec, cid in zip(specs, corridor_ids):
                road = spec.road if spec is not None else self.road
                for style in (mild_driver(), fast_driver()):
                    energies = []
                    for k in range(human_reference_sample):
                        depart = start_s + k * 17.0
                        trace = synthesize_trace(
                            road,
                            style,
                            arrival_rate_vph=self.background_vph,
                            depart_s=depart,
                            seed=self.seed + k,
                        )
                        energies.append(trace.energy().net_mah)
                    human_means[(cid, style.name)] = float(np.mean(energies))

        per_service = {}
        per_corridor_services = getattr(self.service, "per_corridor_services", None)
        if callable(per_corridor_services):
            per_service = per_corridor_services()

        slices: List[CorridorFleetSlice] = []
        planned_total = 0.0
        human_total = 0.0
        n_served = 0
        for cid in corridor_ids:
            human = (
                served_mild[cid] * human_means[(cid, "mild")]
                + served_fast[cid] * human_means[(cid, "fast")]
            )
            planned_total += planned[cid]
            human_total += human
            n_served += served_mild[cid] + served_fast[cid]
            if self.corridors is None:
                continue
            corridor_service = per_service.get(cid)
            slices.append(
                CorridorFleetSlice(
                    corridor_id=cid,
                    n_vehicles=served_mild[cid] + served_fast[cid],
                    n_failed=failed[cid],
                    planned_energy_mah=planned[cid],
                    human_energy_mah=human,
                    savings_pct=(
                        100.0 * (1.0 - planned[cid] / human) if human > 0 else 0.0
                    ),
                    service=(
                        corridor_service.stats_snapshot()
                        if corridor_service is not None
                        else None
                    ),
                    cache=(
                        corridor_service.plan_cache.stats()
                        if corridor_service is not None
                        else None
                    ),
                )
            )

        savings = (
            100.0 * (1.0 - planned_total / human_total) if human_total > 0 else 0.0
        )
        return FleetResult(
            n_vehicles=n_served,
            n_failed=len(failed_ids),
            planned_energy_mah=planned_total,
            human_energy_mah=human_total,
            savings_pct=savings,
            mean_trip_time_s=float(np.mean(trip_times)) if trip_times else 0.0,
            service=self.service.stats_snapshot(),
            failed_vehicle_ids=failed_ids,
            store=(
                store.stats()
                if (store := self.service.artifact_store) is not None
                else None
            ),
            cache=self.service.plan_cache.stats(),
            dispatch=self._dispatch_stats,
            per_corridor=slices,
        )
