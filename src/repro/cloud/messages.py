"""Request/response records of the vehicular-cloud planning service."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.profile import VelocityProfile
from repro.errors import ConfigurationError
from repro.guard.contracts import validate_plan_request

#: Corridor served when a request does not name one.  Version-1 wire
#: clients predate ``corridor_id`` entirely; their requests decode to
#: this corridor (or whatever the decoder was configured with), so old
#: vehicles keep planning against the original single arterial.
DEFAULT_CORRIDOR_ID = "us25"


@dataclass(frozen=True)
class PlanRequest:
    """A vehicle's upload: who it is, when and where it departs.

    A request with the default ``position_m``/``speed_ms`` asks for a
    full trip from the route source (cacheable by departure phase); a
    request carrying a mid-route state is the online replanning upload
    of the closed-loop driver and is served state-specifically.

    Attributes:
        vehicle_id: Requesting vehicle.
        depart_s: Intended departure time (absolute seconds); for a
            mid-route request this is "now" — the replan instant.
        max_trip_time_s: The driver's trip-time budget; ``None`` lets the
            service pick the fastest-feasible budget plus slack (full
            trips) or fall back to the solver horizon (replans).
        position_m: Current route position for a mid-route replan
            (0 = plan the whole trip).
        speed_ms: Current speed for a mid-route replan.
        minimize: Planning objective, ``"energy"`` or ``"time"``.
        corridor_id: The corridor this trip runs on — the routing key a
            :class:`~repro.cloud.router.PlanRouter` resolves to that
            corridor's service.  Defaults to :data:`DEFAULT_CORRIDOR_ID`, so
            single-corridor deployments never mention it.
    """

    vehicle_id: str
    depart_s: float
    max_trip_time_s: Optional[float] = None
    position_m: float = 0.0
    speed_ms: float = 0.0
    minimize: str = "energy"
    corridor_id: str = DEFAULT_CORRIDOR_ID

    def __post_init__(self) -> None:
        if not self.vehicle_id:
            raise ConfigurationError("vehicle id must be non-empty")
        if not isinstance(self.corridor_id, str) or not self.corridor_id:
            raise ConfigurationError("corridor id must be a non-empty string")
        if self.depart_s < 0:
            raise ConfigurationError(f"departure must be >= 0, got {self.depart_s}")
        if self.max_trip_time_s is not None and self.max_trip_time_s <= 0:
            raise ConfigurationError("trip-time budget must be positive")
        if self.position_m < 0 or self.speed_ms < 0:
            raise ConfigurationError("replan state must satisfy position, speed >= 0")
        if self.minimize not in ("energy", "time"):
            raise ConfigurationError(f"unknown objective {self.minimize!r}")
        # The range checks above pass NaN/inf straight through (NaN < 0 is
        # False); the input contract closes that hole at construction.
        # This is the ONLY place the field contract runs: the request is
        # frozen, so the service trusts it and adds just the
        # route-length check it alone can perform (check_fields=False).
        validate_plan_request(self, source=f"plan request from {self.vehicle_id!r}")

    @property
    def is_replan(self) -> bool:
        """Whether this request carries a mid-route state."""
        return self.position_m > 0.0 or self.speed_ms > 0.0


@dataclass(frozen=True)
class PlanResponse:
    """The cloud's answer: a profile plus accounting metadata.

    Attributes:
        vehicle_id: Requesting vehicle (echoed).
        profile: The planned velocity profile, shifted to the request's
            departure time.
        energy_mah: Planned energy (mAh).
        trip_time_s: Planned duration (s).
        cache_hit: Whether the plan was served from the phase cache.
        compute_time_s: Server-side planning time (0 for cache hits).
        corridor_id: The corridor that served this plan (echoed from the
            request by the corridor's own service) — clients can assert
            their plan came from the road they asked about.
    """

    vehicle_id: str
    profile: VelocityProfile
    energy_mah: float
    trip_time_s: float
    cache_hit: bool
    compute_time_s: float
    corridor_id: str = DEFAULT_CORRIDOR_ID
