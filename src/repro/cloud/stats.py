"""One JSON document composing every serving-stack counter.

Downstream tooling (dashboards, regression trackers, the CLI's
``--service-stats-json``) wants the whole serving picture in one place:
service accounting, the three plan caches, the dispatcher, the resilient
client and the corridor-artifact store.  :func:`compose_stats_document`
snapshots whichever components the caller has and renders them as plain
JSON-serializable types — absent components are simply omitted, so the
document shape is stable regardless of how much of the stack a run
stood up.

When the ``service`` is a :class:`~repro.cloud.router.PlanRouter` the
top-level sections hold the fleet-wide roll-up (so dashboards keyed on
them keep working), and two extra sections appear: ``router`` (corridor
counts and routed/rejected counters) and ``corridors`` — one full
service/cache/store breakdown per built corridor, so hit rates are
inspectable per corridor, not just in aggregate.  The sections are
duck-typed (``per_corridor_services``/``router_stats``), so anything
exposing that surface gets the same treatment.

Every section is read from the components' typed ``*Stats`` views, each
of them one snapshot of the component's :class:`~repro.obs.Counters`,
so the document reports the same counts as the registry mirrors.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Optional

#: Document schema tag; bump on incompatible layout changes (v3 dropped
#: the router's ``shards`` and ``per_shard``).
STATS_SCHEMA = "repro.cloud.stats/v3"

__all__ = ["STATS_SCHEMA", "compose_stats_document"]


def _service_section(service) -> Dict[str, Any]:
    stats = service.stats_snapshot()
    section = asdict(stats)
    section["hit_rate"] = stats.hit_rate
    section["cache_enabled"] = service.cache_enabled
    return section


def _cache_section(cache_stats) -> Dict[str, Any]:
    section = asdict(cache_stats)
    section["hit_rate"] = cache_stats.hit_rate
    return section


def _client_section(client) -> Dict[str, Any]:
    stats = client.stats
    section = asdict(stats)
    del section["transitions"]
    section["breaker_opens"] = stats.breaker_opens
    return section


def compose_stats_document(
    service=None,
    dispatcher=None,
    client=None,
    store=None,
) -> Dict[str, Any]:
    """The composed serving-stack counters as one JSON-ready dict.

    Args:
        service: Optional :class:`~repro.cloud.service.CloudPlannerService`;
            contributes the ``service`` section plus one section per
            serving cache (``plan_cache``, ``min_time_cache``,
            ``min_time_exact``) and, when the planner holds a store and
            none was passed explicitly, the ``artifact_store`` section.
        dispatcher: Optional :class:`~repro.cloud.dispatcher.PlanDispatcher`.
        client: Optional :class:`~repro.resilience.client.ResilientPlanClient`.
        store: Optional :class:`~repro.core.engine.ArtifactStore`
            (overrides the service's own).
    """
    document: Dict[str, Any] = {"schema": STATS_SCHEMA}
    if service is not None:
        document["service"] = _service_section(service)
        plan, min_time, min_time_exact = service.cache_stats()
        document["plan_cache"] = _cache_section(plan)
        document["min_time_cache"] = _cache_section(min_time)
        document["min_time_exact"] = _cache_section(min_time_exact)
        if store is None:
            store = service.artifact_store
        router_stats = getattr(service, "router_stats", None)
        if callable(router_stats):
            document["router"] = asdict(router_stats())
        per_corridor = getattr(service, "per_corridor_services", None)
        if callable(per_corridor):
            corridors: Dict[str, Any] = {}
            for corridor_id, corridor_service in sorted(per_corridor().items()):
                plan, min_time, min_time_exact = corridor_service.cache_stats()
                entry: Dict[str, Any] = {
                    "service": _service_section(corridor_service),
                    "plan_cache": _cache_section(plan),
                    "min_time_cache": _cache_section(min_time),
                    "min_time_exact": _cache_section(min_time_exact),
                }
                corridor_store = corridor_service.artifact_store
                if corridor_store is not None:
                    store_stats = corridor_store.stats()
                    store_section = asdict(store_stats)
                    store_section["hit_rate"] = store_stats.hit_rate
                    entry["artifact_store"] = store_section
                corridors[corridor_id] = entry
            document["corridors"] = corridors
    if dispatcher is not None:
        stats = dispatcher.stats()
        section = asdict(stats)
        section["in_flight"] = stats.in_flight
        document["dispatcher"] = section
    if client is not None:
        document["client"] = _client_section(client)
    if store is not None:
        store_stats = store.stats()
        section = asdict(store_stats)
        section["hit_rate"] = store_stats.hit_rate
        document["artifact_store"] = section
    return document
