"""Corridor registry: immutable specs, lazily built per-corridor runtimes.

The paper's deployment serves one arterial; a production vehicular cloud
fronts many.  This module is the catalog that makes "many" a first-class
notion: a :class:`CorridorSpec` is everything needed to reconstruct one
corridor's serving stack (the road geometry and signal plan, the traffic
forecast, the planner recipe and its discretization), and a
:class:`CorridorCatalog` maps corridor ids to specs and builds — lazily,
thread-safely, at most once per corridor — the live runtime behind each:
an :class:`~repro.core.engine.ArtifactStore`, a planner, and a
:class:`~repro.cloud.service.CloudPlannerService` bound to that corridor
id.

Laziness matters because planner construction is the expensive step (the
corridor precomputation builds DP tables); a catalog of fifty corridors
must not pay fifty builds at server start when tonight's traffic only
touches three.  Binding matters because isolation is structural: each
runtime's service carries its ``corridor_id`` and rejects any request
naming another corridor (:class:`~repro.errors.UnknownCorridorError`),
so a plan cached for corridor A can never be served for corridor B even
if departure phase and budget collide.

:func:`builtin_catalog` ships the US-25 corridor of the source paper
plus two synthetic :mod:`repro.route.builder` variants with distinct
signal plans — enough to exercise multi-corridor serving end to end
(CLI ``--list-corridors``, the router, the fleet study's interleaved
mode) without any external data.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.cloud.messages import DEFAULT_CORRIDOR_ID
from repro.cloud.service import CloudPlannerService
from repro.core.engine import ArtifactStore
from repro.core.planner import (
    BaselineDpPlanner,
    DpPlannerBase,
    PlannerConfig,
    QueueAwareDpPlanner,
    UnconstrainedDpPlanner,
)
from repro.errors import ConfigurationError, UnknownCorridorError
from repro.route.road import RoadSegment
from repro.route.builder import CorridorBuilder
from repro.route.us25 import us25_greenville_segment
from repro.units import vehicles_per_hour_to_per_second
from repro.vehicle.catalog import DEFAULT_VEHICLE_ID, get_vehicle
from repro.vehicle.environment import EnvironmentConditions
from repro.vehicle.params import VehicleParams
from repro.vehicle.scenarios import get_scenario

__all__ = [
    "PLANNER_KINDS",
    "CorridorSpec",
    "CorridorRuntime",
    "CorridorCatalog",
    "builtin_catalog",
]

#: Planner recipes a spec may name (mirrors the CLI's ``--planner``).
PLANNER_KINDS = ("proposed", "baseline", "unconstrained")


@dataclass(frozen=True)
class CorridorSpec:
    """Everything needed to build one corridor's serving stack.

    Immutable by design: a spec is registered once and shared between
    the catalog, the router, and documentation/CLI listings; runtime
    state (caches, counters, planners) lives in the
    :class:`CorridorRuntime` built from it.

    Attributes:
        corridor_id: The routing key requests carry.
        road: Geometry, zones, stop signs and signal plan.
        arrival_rate_vph: Stationary cross-traffic forecast feeding the
            queue-aware planner's VM/QL models (vehicles/hour).
        planner: Recipe name from :data:`PLANNER_KINDS` — ``"proposed"``
            is the paper's queue-aware DP.
        config: Discretization; ``None`` uses planner defaults.
        description: One line for ``--list-corridors`` output.
        vehicle_id: Catalog id of the vehicle this corridor plans for
            (:mod:`repro.vehicle.catalog`).  ``None`` defers to the
            scenario pack's vehicle, falling back to the catalog default.
            Validated at spec construction: a typo'd id raises
            :class:`~repro.errors.UnknownVehicleError` before any
            planner is built or any serving counter moves.
        scenario: Scenario-pack id (:mod:`repro.vehicle.scenarios`)
            supplying the ambient environment (and, when ``vehicle_id``
            is not given, the vehicle).  ``None`` is nominal.  Also
            validated at spec construction
            (:class:`~repro.errors.UnknownScenarioError`).
    """

    corridor_id: str
    road: RoadSegment
    arrival_rate_vph: float = 300.0
    planner: str = "proposed"
    config: Optional[PlannerConfig] = None
    description: str = ""
    vehicle_id: Optional[str] = None
    scenario: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.corridor_id, str) or not self.corridor_id:
            raise ConfigurationError("corridor id must be a non-empty string")
        if self.planner not in PLANNER_KINDS:
            raise ConfigurationError(
                f"unknown planner recipe {self.planner!r}; expected one of {PLANNER_KINDS}"
            )
        if not self.arrival_rate_vph >= 0:
            raise ConfigurationError(
                f"arrival rate must be >= 0 vph, got {self.arrival_rate_vph}"
            )
        # Fail typed on unknown ids *now*, at registration time.
        if self.scenario is not None:
            get_scenario(self.scenario)
        if self.vehicle_id is not None:
            get_vehicle(self.vehicle_id)

    def resolved_vehicle_id(self) -> str:
        """The catalog id this spec plans for (explicit > scenario > default)."""
        if self.vehicle_id is not None:
            return self.vehicle_id
        if self.scenario is not None:
            return get_scenario(self.scenario).vehicle_id
        return DEFAULT_VEHICLE_ID

    def resolve_vehicle(self) -> VehicleParams:
        """The resolved vehicle's parameters, fresh from the catalog."""
        return get_vehicle(self.resolved_vehicle_id())

    def resolve_environment(self) -> Optional[EnvironmentConditions]:
        """The pack's environment, or ``None`` (nominal) without a scenario."""
        if self.scenario is None:
            return None
        return get_scenario(self.scenario).environment

    def build_planner(self, store: Optional[ArtifactStore] = None) -> DpPlannerBase:
        """Construct this spec's planner (the expensive step)."""
        vehicle = self.resolve_vehicle()
        environment = self.resolve_environment()
        if self.planner == "proposed":
            return QueueAwareDpPlanner(
                self.road,
                arrival_rates=vehicles_per_hour_to_per_second(self.arrival_rate_vph),
                vehicle=vehicle,
                config=self.config,
                store=store,
                environment=environment,
            )
        if self.planner == "baseline":
            return BaselineDpPlanner(
                self.road, vehicle=vehicle, config=self.config, store=store,
                environment=environment,
            )
        return UnconstrainedDpPlanner(
            self.road, vehicle=vehicle, config=self.config, store=store,
            environment=environment,
        )


@dataclass(frozen=True)
class CorridorRuntime:
    """One corridor's live serving stack, built from its spec.

    Attributes:
        spec: The immutable recipe this runtime was built from.
        store: The corridor's own artifact store (per-corridor metric
            namespace ``engine.store.<corridor_id>``).
        planner: The built planner, sharing ``store``.
        service: The corridor-bound planning service (metric namespace
            ``cloud.<corridor_id>``); rejects requests naming any other
            corridor.
    """

    spec: CorridorSpec
    store: ArtifactStore
    planner: DpPlannerBase
    service: CloudPlannerService

    @property
    def corridor_id(self) -> str:
        return self.spec.corridor_id


class CorridorCatalog:
    """Corridor ids → specs, with lazily built per-corridor runtimes.

    Args:
        specs: Corridor specs to register up front (``register`` adds
            more later).  Ids must be unique.
        store_capacity: Per-corridor artifact-store bound.  Each corridor
            gets its *own* store — eviction pressure on one corridor's
            artifacts never touches another's.
        cache_capacity: Per-corridor plan/min-time cache bound.
        validator: Optional shared plan validator handed to every
            corridor's service (validators are stateless).
        service_kwargs: Extra keyword arguments for every corridor's
            :class:`CloudPlannerService` (quanta, budget slack, …).

    Thread-safety: registration and runtime construction hold locks; a
    corridor's runtime is built at most once, and two threads racing on
    *different* cold corridors build concurrently (per-corridor build
    locks), so one corridor's expensive first build never serializes
    another's.
    """

    def __init__(
        self,
        specs: Iterable[CorridorSpec] = (),
        store_capacity: int = 4,
        cache_capacity: int = 256,
        validator=None,
        service_kwargs: Optional[dict] = None,
    ) -> None:
        self.store_capacity = int(store_capacity)
        self.cache_capacity = int(cache_capacity)
        self.validator = validator
        self.service_kwargs = dict(service_kwargs or {})
        self._mutex = threading.Lock()
        self._specs: "Dict[str, CorridorSpec]" = {}
        self._build_locks: Dict[str, threading.Lock] = {}
        self._runtimes: Dict[str, CorridorRuntime] = {}
        for spec in specs:
            self.register(spec)

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(self, spec: CorridorSpec) -> CorridorSpec:
        """Add one corridor spec; duplicate ids are a configuration error."""
        with self._mutex:
            if spec.corridor_id in self._specs:
                raise ConfigurationError(
                    f"corridor {spec.corridor_id!r} is already registered"
                )
            self._specs[spec.corridor_id] = spec
            self._build_locks[spec.corridor_id] = threading.Lock()
        return spec

    def ids(self) -> Tuple[str, ...]:
        """All registered corridor ids, in registration order."""
        with self._mutex:
            return tuple(self._specs)

    def __contains__(self, corridor_id: str) -> bool:
        with self._mutex:
            return corridor_id in self._specs

    def __len__(self) -> int:
        with self._mutex:
            return len(self._specs)

    def __iter__(self) -> Iterator[CorridorSpec]:
        with self._mutex:
            return iter(tuple(self._specs.values()))

    def spec(self, corridor_id: str) -> CorridorSpec:
        """The spec under an id.

        Raises:
            UnknownCorridorError: No such corridor; the error carries the
                offending id and the ids the catalog does hold.
        """
        with self._mutex:
            spec = self._specs.get(corridor_id)
            known = tuple(self._specs)
        if spec is None:
            raise UnknownCorridorError(
                f"unknown corridor {corridor_id!r}; catalog holds {sorted(known)}",
                corridor_id=corridor_id,
                known_ids=known,
            )
        return spec

    # ------------------------------------------------------------------
    # Lazy runtimes
    # ------------------------------------------------------------------
    def runtime(self, corridor_id: str) -> CorridorRuntime:
        """The corridor's live serving stack, built on first request.

        Raises:
            UnknownCorridorError: The id is not registered.
        """
        runtime = self._runtimes.get(corridor_id)
        if runtime is not None:
            return runtime
        spec = self.spec(corridor_id)  # raises UnknownCorridorError
        with self._build_locks[corridor_id]:
            runtime = self._runtimes.get(corridor_id)
            if runtime is not None:
                return runtime
            store = ArtifactStore(
                capacity=self.store_capacity, name=f"engine.store.{corridor_id}"
            )
            planner = spec.build_planner(store)
            service = CloudPlannerService(
                planner,
                validator=self.validator,
                cache_capacity=self.cache_capacity,
                name=f"cloud.{corridor_id}",
                corridor_id=corridor_id,
                **self.service_kwargs,
            )
            runtime = CorridorRuntime(
                spec=spec, store=store, planner=planner, service=service
            )
            with self._mutex:
                self._runtimes[corridor_id] = runtime
        return runtime

    def service(self, corridor_id: str) -> CloudPlannerService:
        """Shorthand: the corridor's (lazily built) planning service."""
        return self.runtime(corridor_id).service

    def built_ids(self) -> Tuple[str, ...]:
        """Ids whose runtimes exist (have served at least one build)."""
        with self._mutex:
            return tuple(self._runtimes)

    def built_runtimes(self) -> Tuple[CorridorRuntime, ...]:
        """Snapshot of the live runtimes, in build order."""
        with self._mutex:
            return tuple(self._runtimes.values())


# ----------------------------------------------------------------------
# Built-in corridors
# ----------------------------------------------------------------------
def _elm_street_segment() -> RoadSegment:
    """A short downtown arterial: closely spaced, offset-coordinated lights."""
    return (
        CorridorBuilder("Elm Street downtown", 2600.0)
        .speed_limits(v_max_kmh=50.0, v_min_kmh=25.0)
        .zone(0.0, 400.0, v_max_kmh=40.0, v_min_kmh=20.0)
        .stop_sign(at_m=380.0)
        .signal(at_m=900.0, red_s=25.0, green_s=35.0, offset_s=5.0,
                turn_ratio=0.85, queue_spacing_m=7.5)
        .signal(at_m=1500.0, red_s=25.0, green_s=35.0, offset_s=20.0,
                turn_ratio=0.85, queue_spacing_m=7.5)
        .signal(at_m=2100.0, red_s=25.0, green_s=35.0, offset_s=35.0,
                turn_ratio=0.85, queue_spacing_m=7.5)
        .build()
    )


def _airport_loop_segment() -> RoadSegment:
    """A long suburban connector: fast, sparse signals with long reds."""
    return (
        CorridorBuilder("Airport connector loop", 5600.0)
        .speed_limits(v_max_kmh=80.0, v_min_kmh=45.0)
        .zone(2400.0, 3200.0, v_max_kmh=60.0, v_min_kmh=35.0)
        .signal(at_m=1400.0, red_s=40.0, green_s=20.0, offset_s=0.0,
                turn_ratio=0.7, queue_spacing_m=9.0)
        .signal(at_m=4200.0, red_s=40.0, green_s=20.0, offset_s=30.0,
                turn_ratio=0.7, queue_spacing_m=9.0)
        .build()
    )


def builtin_catalog(
    config: Optional[PlannerConfig] = None, **catalog_kwargs
) -> CorridorCatalog:
    """The catalog every CLI/server starts from: US-25 plus two variants.

    The three corridors have deliberately distinct signal plans (cycle
    lengths 60 s, 60 s with different splits/offsets, and 60 s with a
    40/20 split) and different lengths/limits, so cross-corridor cache
    collisions would be *visible* if isolation ever broke — identical
    phase bins map to different optimal profiles on each corridor.

    Args:
        config: One discretization shared by all three specs (``None``
            uses planner defaults; tests pass a coarse grid).
        **catalog_kwargs: Forwarded to :class:`CorridorCatalog`.
    """
    specs = (
        CorridorSpec(
            corridor_id=DEFAULT_CORRIDOR_ID,
            road=us25_greenville_segment(),
            arrival_rate_vph=300.0,
            planner="proposed",
            config=config,
            description="US-25 Greenville arterial segment (the paper's corridor)",
        ),
        CorridorSpec(
            corridor_id="elm-street",
            road=_elm_street_segment(),
            arrival_rate_vph=420.0,
            planner="proposed",
            config=config,
            description="Downtown arterial: three offset-coordinated 25/35 s signals",
        ),
        CorridorSpec(
            corridor_id="airport-loop",
            road=_airport_loop_segment(),
            arrival_rate_vph=180.0,
            planner="proposed",
            config=config,
            description="Suburban connector: two sparse 40/20 s signals at 80 km/h",
        ),
    )
    return CorridorCatalog(specs, **catalog_kwargs)
