"""Vehicular-cloud planning service.

The paper's introduction describes the deployment model of [6, 7]: each
vehicle uploads its state (starting time and route) to a cloud service
over wireless, and the cloud computes the optimal velocity profile.  This
subpackage implements that service as a four-layer serving stack on top
of the planners:

* :mod:`repro.cloud.messages` — the request/response records vehicles
  exchange with the service.
* :mod:`repro.cloud.wire` — the wire layer: a versioned, schema-checked
  codec between those records and canonical JSON bytes (bit-exact round
  trips; malformed payloads raise typed errors).
* :mod:`repro.cloud.plan_cache` — the cache layer: a bounded,
  thread-safe LRU store with full hit/miss/eviction accounting.
* :mod:`repro.cloud.service` — the serving layer: a thin phase-aware
  facade that validates, consults the caches and plans on misses.
* :mod:`repro.cloud.dispatcher` — the dispatch layer: a worker pool with
  single-flight coalescing and per-request deadlines.
* :mod:`repro.cloud.stats` — one JSON document composing every
  serving-stack counter.
* :mod:`repro.cloud.fleet` — fleet-scale evaluation: many EVs request
  plans (serially or through the dispatcher) and the study aggregates
  fleet energy against human-driving references.
* :mod:`repro.cloud.framing` — length-prefixed frames restoring message
  boundaries on a TCP byte stream, with typed truncation/oversize errors.
* :mod:`repro.cloud.server` — the network front door: an asyncio TCP
  server with bounded admission (typed BUSY sheds), per-connection
  deadlines, malformed-frame containment and graceful drain.
* :mod:`repro.cloud.netclient` — the vehicle-side socket transport,
  mapping every wire failure into the resilience stack's typed errors.
* :mod:`repro.cloud.registry` — the corridor registry: immutable
  corridor specs (road, traffic, planner recipe) and a catalog that
  lazily builds one isolated serving runtime per corridor.
* :mod:`repro.cloud.router` — the request router: per-corridor
  serving behind the same service facade, so the whole stack above it
  (dispatcher, server, transport, fleet study) is corridor-aware for
  free.
"""

from repro.cloud.messages import DEFAULT_CORRIDOR_ID, PlanRequest, PlanResponse
from repro.cloud.plan_cache import CacheStats, PlanCache
from repro.cloud.registry import (
    CorridorCatalog,
    CorridorRuntime,
    CorridorSpec,
    builtin_catalog,
)
from repro.cloud.router import PlanRouter, RouterStats
from repro.cloud.service import CloudPlannerService, ServiceStats
from repro.cloud.dispatcher import DispatcherStats, PlanDispatcher
from repro.cloud.fleet import CorridorFleetSlice, FleetStudy, FleetResult
from repro.cloud.framing import FrameAssembler, encode_frame, split_frames
from repro.cloud.netclient import NetworkPlanTransport, TransportStats
from repro.cloud.server import PlanServer, ServerHandle, ServerStats, serve_in_background
from repro.cloud.stats import STATS_SCHEMA, compose_stats_document

__all__ = [
    "CacheStats",
    "CloudPlannerService",
    "CorridorCatalog",
    "CorridorFleetSlice",
    "CorridorRuntime",
    "CorridorSpec",
    "DEFAULT_CORRIDOR_ID",
    "DispatcherStats",
    "FleetResult",
    "FleetStudy",
    "FrameAssembler",
    "NetworkPlanTransport",
    "PlanCache",
    "PlanDispatcher",
    "PlanRequest",
    "PlanResponse",
    "PlanRouter",
    "PlanServer",
    "RouterStats",
    "STATS_SCHEMA",
    "ServerHandle",
    "ServerStats",
    "ServiceStats",
    "TransportStats",
    "builtin_catalog",
    "compose_stats_document",
    "encode_frame",
    "serve_in_background",
    "split_frames",
]
