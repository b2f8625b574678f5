"""Request routing across corridors, behind one service facade.

:class:`PlanRouter` is the seam that turns the single-corridor serving
stack into a multi-corridor one.  It fronts a
:class:`~repro.cloud.registry.CorridorCatalog` and exposes **exactly the
protocol of a** :class:`~repro.cloud.service.CloudPlannerService` —
``request``/``request_cached``/``request_batch``/``coalesce_key`` plus
the stats surface —
so every layer above it (:class:`~repro.cloud.dispatcher.PlanDispatcher`,
:class:`~repro.cloud.server.PlanServer`,
:class:`~repro.cloud.netclient.NetworkPlanTransport`,
:class:`~repro.resilience.client.ResilientPlanClient`,
:class:`~repro.cloud.fleet.FleetStudy`) drops on top unchanged.

Routing is a catalog lookup: ``corridor_id`` names the corridor's
runtime (its own plan caches, artifact store, and corridor-bound
service), which the catalog builds lazily on first touch.  Routing is a
plain synchronous call in the caller's thread, so a single-corridor
workload through the router is **bit-identical** to the direct service
path (gated in ``benchmarks/bench_pr9.py``); serving concurrency comes
from a dispatcher or server stacked on top.  The router counts only
``routed`` and ``rejected``; every other counter belongs to a corridor's
own service, caches and store.

Coalesce keys are prefixed with the corridor id, so a dispatcher sitting
on top of the router can never coalesce two corridors' requests into one
flight even when their phase bins and budgets collide — the router-level
guarantee matching the service-level
:class:`~repro.errors.UnknownCorridorError` binding check below it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.cloud.messages import PlanRequest, PlanResponse
from repro.cloud.plan_cache import CacheStats
from repro.cloud.registry import CorridorCatalog
from repro.cloud.service import CloudPlannerService, ServiceStats
from repro.core.engine import StoreStats
from repro.errors import UnknownCorridorError

__all__ = ["PlanRouter", "RouterStats"]


@dataclass(frozen=True)
class RouterStats:
    """Immutable view of one router's counts.

    Attributes:
        corridors_registered: Ids the catalog holds.
        corridors_built: Ids whose runtimes exist (were actually served).
        routed: Requests resolved to a corridor service.
        rejected: Requests naming an unknown corridor
            (:class:`~repro.errors.UnknownCorridorError`).
    """

    corridors_registered: int
    corridors_built: int
    routed: int
    rejected: int

    def summary(self) -> str:
        """One-line human-readable form for CLI/report output."""
        return (
            f"{self.routed} routed / {self.rejected} rejected, "
            f"{self.corridors_built}/{self.corridors_registered} corridor(s) built"
        )


class _AggregateCaches:
    """A ``plan_cache``-shaped view summing the corridor caches.

    Exists so callers written against ``service.plan_cache.stats()``
    (the fleet study, CLI summaries) read a fleet-wide roll-up without
    knowing the stack serves several corridors.
    """

    __slots__ = ("_router", "_which", "name")

    def __init__(self, router: "PlanRouter", which: int, name: str) -> None:
        self._router = router
        self._which = which
        self.name = name

    def stats(self) -> CacheStats:
        merged = CacheStats(name=self.name)
        for service in self._router.per_corridor_services().values():
            merged = _sum_dataclasses(merged, service.cache_stats()[self._which])
        return merged


class _AggregateStore:
    """An ``artifact_store``-shaped view summing the corridor stores."""

    __slots__ = ("_router", "name")

    def __init__(self, router: "PlanRouter") -> None:
        self._router = router
        self.name = f"{router.name}.store"

    def stats(self) -> StoreStats:
        merged = StoreStats()
        for runtime in self._router.catalog.built_runtimes():
            merged = _sum_dataclasses(merged, runtime.store.stats())
        return merged


def _sum_dataclasses(acc, nxt):
    """Field-wise sum of two stats dataclasses (non-numeric fields kept)."""
    updates = {}
    for f in fields(acc):
        a, b = getattr(acc, f.name), getattr(nxt, f.name)
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            continue
        if isinstance(b, (int, float)) and not isinstance(b, bool):
            updates[f.name] = a + b
    return replace(acc, **updates)


class PlanRouter:
    """Route plan requests to per-corridor services, behind one facade.

    Args:
        catalog: The corridor registry; runtimes build lazily on first
            request per corridor.
        name: Metric namespace (``<name>.routed``, ``<name>.rejected``).
    """

    def __init__(self, catalog: CorridorCatalog, name: str = "cloud.router") -> None:
        self.catalog = catalog
        self.name = name
        self._counters = obs.Counters(name, ("routed", "rejected"))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _resolve(self, req: PlanRequest) -> CloudPlannerService:
        """The corridor service for a request, with routing accounting."""
        try:
            service = self.catalog.service(req.corridor_id)
        except UnknownCorridorError:
            self._counters.inc("rejected")
            raise
        self._counters.inc("routed")
        return service

    # ------------------------------------------------------------------
    # The CloudPlannerService protocol
    # ------------------------------------------------------------------
    def coalesce_key(self, req: PlanRequest):
        """The corridor-prefixed coalesce key (or ``None``).

        Prefixing with the corridor id means a dispatcher fronting the
        router can never merge two corridors' requests into one flight,
        even when their phase bins and budget bins collide.  An unknown
        corridor is uncoalescable — it runs solo so :meth:`request` can
        surface the typed rejection.
        """
        if req.corridor_id not in self.catalog:
            return None
        inner = self.catalog.service(req.corridor_id).coalesce_key(req)
        if inner is None:
            return None
        return (req.corridor_id,) + tuple(inner)

    def request(self, req: PlanRequest) -> PlanResponse:
        """Route one request to its corridor's service.

        Raises:
            UnknownCorridorError: The request's corridor is not in the
                catalog (the error carries the offending id and the ids
                the catalog holds).
            PlanningFailedError: The corridor's planner found the
                request infeasible.
        """
        return self._resolve(req).request(req)

    def request_cached(self, req: PlanRequest) -> Optional[PlanResponse]:
        """The corridor service's :meth:`~CloudPlannerService.request_cached`.

        The request is counted as routed only when the corridor answers
        it, so one that is left for :meth:`request` (``None``, with
        nothing counted, also for an unknown corridor) is routed once.
        """
        if req.corridor_id not in self.catalog:
            return None
        response = self.catalog.service(req.corridor_id).request_cached(req)
        if response is not None:
            self._counters.inc("routed")
        return response

    def request_batch(
        self, reqs: Sequence[PlanRequest]
    ) -> List[Union[PlanResponse, Exception]]:
        """Serve many requests, results (or exceptions) in request order."""
        outcomes: List[Union[PlanResponse, Exception]] = []
        for req in reqs:
            try:
                # Routed here, not through request(): servebench's tracer
                # wraps both by name, and a nested router span per item
                # would change cold_fleet's traced span tree.
                outcomes.append(self._resolve(req).request(req))
            except Exception as exc:  # noqa: BLE001 - mirrored to caller
                outcomes.append(exc)
        return outcomes

    # ------------------------------------------------------------------
    # Aggregated stats surface (ducks as a CloudPlannerService)
    # ------------------------------------------------------------------
    @property
    def cache_enabled(self) -> bool:
        """Whether every built corridor service has phase caching on."""
        services = self.per_corridor_services().values()
        return all(s.cache_enabled for s in services) if services else True

    def stats_snapshot(self) -> ServiceStats:
        """Fleet-wide service counters: field-wise sum over corridors."""
        merged = ServiceStats()
        for service in self.per_corridor_services().values():
            merged = _sum_dataclasses(merged, service.stats_snapshot())
        return merged

    def cache_stats(self) -> Tuple[CacheStats, CacheStats, CacheStats]:
        """Aggregated (plan cache, min-time memo, exact memo) snapshots."""
        return (
            self.plan_cache.stats(),
            self.min_time_cache.stats(),
            self.min_time_exact.stats(),
        )

    @property
    def plan_cache(self) -> _AggregateCaches:
        """A summing view over every corridor's plan cache."""
        return _AggregateCaches(self, 0, f"{self.name}.plan_cache")

    @property
    def min_time_cache(self) -> _AggregateCaches:
        return _AggregateCaches(self, 1, f"{self.name}.min_time_cache")

    @property
    def min_time_exact(self) -> _AggregateCaches:
        return _AggregateCaches(self, 2, f"{self.name}.min_time_exact")

    @property
    def artifact_store(self) -> _AggregateStore:
        """A summing view over every corridor's artifact store."""
        return _AggregateStore(self)

    def clear_cache(self) -> None:
        """Drop every corridor's cached plans."""
        for service in self.per_corridor_services().values():
            service.clear_cache()

    # ------------------------------------------------------------------
    # Per-corridor breakdown (consumed by repro.cloud.stats)
    # ------------------------------------------------------------------
    def per_corridor_services(self) -> Dict[str, CloudPlannerService]:
        """The built corridor services, keyed by corridor id."""
        return {
            runtime.corridor_id: runtime.service
            for runtime in self.catalog.built_runtimes()
        }

    def router_stats(self) -> RouterStats:
        """An immutable snapshot of the routing counts."""
        return RouterStats(
            corridors_registered=len(self.catalog),
            corridors_built=len(self.catalog.built_ids()),
            **self._counters.snapshot(),
        )
