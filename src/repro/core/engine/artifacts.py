"""Precomputed corridor artifacts: the offline half of the DP split.

Everything the DP prices a ``(segment, v, v')`` transition from is static
corridor data — the velocity grid, the feasible transitions with their
Eq. 9 energies and times, the admissible-velocity masks, the stop-sign
dwells and the optimistic min-time-to-go bound.  Real-time eco-driving
systems get their latency budget precisely by separating this *offline
corridor precomputation* from the *online solve*;
:class:`CorridorArtifacts` is that offline product, built once by
:meth:`CorridorArtifacts.build` and shared by every solver over the
same corridor.

Identity is content-addressed: :func:`corridor_digest` renders the
canonical build inputs — road geometry, vehicle physics and grid
resolutions — to a stable text form (in the spirit of
:func:`repro.resilience.faults.schedule_bytes`) and hashes it with
blake2b.  Two builds with equal digests produce bit-identical arrays,
which is what lets the :class:`~repro.core.engine.store.ArtifactStore`
hand the same artifacts to the cloud planner, every degradation-ladder
tier and a whole fleet sweep.

Signal *timing* (red/green/offset) is deliberately absent from the
digest: the artifacts depend on where signals sit (their positions snap
into the distance grid), never on when they turn green — so replans
across cycle phases, drifted timing plans and re-offset corridors all
share one build.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.core.cost import price_segments
from repro.errors import ConfigurationError
from repro.route.road import RoadSegment
from repro.vehicle.dynamics import LongitudinalModel
from repro.vehicle.environment import EnvironmentConditions, NOMINAL_ENVIRONMENT
from repro.vehicle.params import VehicleParams

__all__ = ["CorridorArtifacts", "TransitionPairs", "corridor_digest"]

#: Bump when the canonical rendering (or the artifact contents derived
#: from it) changes shape; digests from different versions never collide.
#: v2: efficiency-map and environment fragments joined the rendering.
_DIGEST_VERSION = "corridor-artifacts-v2"

#: The array fields of :class:`CorridorArtifacts` (besides its ``pairs``)
#: and of :class:`TransitionPairs`.
_ARRAY_FIELDS = ("positions", "v_grid", "allowed", "dwell_at", "min_time_to_go")
_PAIR_FIELDS = ("offsets", "j", "j2", "energy_j", "dt_s")


def _canonical_parts(
    road: RoadSegment,
    vehicle: VehicleParams,
    environment: EnvironmentConditions,
    v_step_ms: float,
    s_step_m: float,
    stop_dwell_s: float,
    enforce_min_speed: bool,
) -> Iterator[str]:
    """Render every digest-relevant input as stable text fragments.

    Floats are rendered with ``repr`` (shortest round-trip form), so the
    rendering — and therefore the digest — is identical across platforms
    and processes for equal inputs.
    """
    yield _DIGEST_VERSION
    yield f"grid:{v_step_ms!r},{s_step_m!r},{stop_dwell_s!r},{int(enforce_min_speed)}"
    yield f"road:{float(road.length_m)!r}"
    for zone in road.zones:
        yield (
            f"zone:{float(zone.start_m)!r},{float(zone.end_m)!r},"
            f"{float(zone.v_max_ms)!r},{float(zone.v_min_ms)!r}"
        )
    for sign in road.stop_signs:
        yield f"stop:{float(sign.position_m)!r}"
    for site in road.signals:
        # Position only: timing never reaches the artifacts (see module doc).
        yield f"signal:{float(site.position_m)!r}"
    grade_pos, grade_rad = road.grade.breakpoints()
    yield "grade:" + ",".join(repr(float(g)) for g in grade_pos)
    yield "grade:" + ",".join(repr(float(g)) for g in grade_rad)
    battery = vehicle.battery
    yield (
        "vehicle:"
        + ",".join(
            repr(float(value))
            for value in (
                vehicle.mass_kg,
                vehicle.frontal_area_m2,
                vehicle.drag_coefficient,
                vehicle.rolling_resistance,
                vehicle.air_density,
                vehicle.battery_efficiency,
                vehicle.powertrain_efficiency,
                vehicle.regen_efficiency,
                vehicle.aux_power_w,
                vehicle.max_accel_ms2,
                vehicle.min_accel_ms2,
            )
        )
    )
    yield (
        "battery:"
        + ",".join(
            repr(float(value))
            for value in (battery.voltage_v, battery.capacity_ah, battery.cell_capacity_ah)
        )
        + f",{battery.series_cells},{battery.parallel_strings}"
    )
    # A vehicle with no map renders the constant fragment it is
    # physically equivalent to, so `efficiency_map=None` and an explicit
    # ConstantEfficiencyMap(drivetrain_efficiency) share one digest.
    if vehicle.efficiency_map is None:
        yield f"effmap:constant,{float(vehicle.drivetrain_efficiency)!r}"
    else:
        yield from vehicle.efficiency_map.canonical_parts()
    # The environment fragment is always present (nominal included), so
    # any parameter nudge — temperature, wind, payload, grade offset —
    # re-keys the artifacts and can never reuse another scenario's build.
    yield from environment.canonical_parts()


def corridor_digest(
    road: RoadSegment,
    vehicle: VehicleParams,
    *,
    v_step_ms: float,
    s_step_m: float,
    stop_dwell_s: float = 2.0,
    enforce_min_speed: bool = True,
    environment: Optional[EnvironmentConditions] = None,
) -> str:
    """Stable content digest of one corridor-artifact build's inputs.

    Equal inputs always hash equal (blake2b over the canonical text
    rendering); any change to the road geometry, the vehicle physics,
    the ambient environment or the grid resolutions yields a new digest.
    ``environment=None`` means :data:`~repro.vehicle.environment.NOMINAL_ENVIRONMENT`
    and digests identically to it.
    """
    environment = environment if environment is not None else NOMINAL_ENVIRONMENT
    hasher = hashlib.blake2b(digest_size=16)
    for part in _canonical_parts(
        road, vehicle, environment, float(v_step_ms), float(s_step_m),
        float(stop_dwell_s), bool(enforce_min_speed),
    ):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


@dataclass(frozen=True, eq=False)
class TransitionPairs:
    """The feasible ``(segment, v, v')`` transitions of a corridor, stacked.

    Transitions are in segment-major, then row-major ``(j, j2)`` order —
    the order of one :func:`numpy.nonzero` over a stacked
    ``(segments, v, v')`` mask — so each segment's transitions are one
    contiguous slice, sorted by source velocity.  The arrays are
    read-only.

    Attributes:
        offsets: ``(segments, levels + 1)`` CSR row offsets into the
            stacked arrays: segment ``i``'s transitions from velocity
            index ``j`` are ``offsets[i, j]:offsets[i, j + 1]``, and the
            segment spans ``offsets[i, 0]:offsets[i, -1]``.
        j: Source velocity index of each transition.
        j2: Successor velocity index of each transition.
        energy_j: Energy of each transition (J).
        dt_s: Traversal time of each transition, including the dwell
            charged when departing the segment's start (s).
    """

    offsets: np.ndarray
    j: np.ndarray
    j2: np.ndarray
    energy_j: np.ndarray
    dt_s: np.ndarray

    def __post_init__(self) -> None:
        _freeze(getattr(self, name) for name in _PAIR_FIELDS)

    @property
    def nbytes(self) -> int:
        """Bytes of the transition arrays and their offsets."""
        return sum(getattr(self, name).nbytes for name in _PAIR_FIELDS)


@dataclass(frozen=True, eq=False)
class CorridorArtifacts:
    """Immutable bundle of everything the DP derives from static inputs.

    Attributes:
        digest: Content digest of the build inputs (the store key).
        road: The corridor the artifacts were built for.
        vehicle: The vehicle whose physics priced the energy tables.
        environment: Ambient conditions the tables were priced under.
        v_step_ms: Velocity grid resolution (m/s).
        s_step_m: Distance grid resolution (m).
        stop_dwell_s: Mandatory stop-sign dwell baked into ``dwell_at``.
        enforce_min_speed: Whether the Eq. 7a lower bound shaped ``allowed``.
        positions: Route grid points (m), stops and signals snapped in.
        v_grid: Velocity grid values (m/s).
        allowed: Per-point boolean masks of admissible velocity indices
            (Eq. 7a/7c), *without* any solver-local velocity bounds.
        dwell_at: Dwell charged when departing each grid point (s).
        min_time_to_go: Optimistic remaining travel time per point (s).
        pairs: The transitions feasible under Eq. 7b with ``allowed``
            already applied, with their Eq. 9 energies and times,
            stacked with their CSR offsets — the form the stage kernel
            consumes directly.

    The dense ``(segments, v, v')`` tables the pairs are priced from are
    not kept (:meth:`build`).  The arrays are shared, not copied, between
    every solver holding the same artifacts, and are marked read-only at
    construction, so a write through any of them raises instead of
    changing every later solve.
    """

    digest: str
    road: RoadSegment
    vehicle: VehicleParams
    environment: EnvironmentConditions
    v_step_ms: float
    s_step_m: float
    stop_dwell_s: float
    enforce_min_speed: bool
    positions: np.ndarray
    v_grid: np.ndarray
    allowed: np.ndarray
    dwell_at: np.ndarray
    min_time_to_go: np.ndarray
    pairs: TransitionPairs

    def __post_init__(self) -> None:
        _freeze(getattr(self, name) for name in _ARRAY_FIELDS)

    @classmethod
    def build(
        cls,
        road: RoadSegment,
        vehicle: Optional[VehicleParams] = None,
        *,
        v_step_ms: float = 0.5,
        s_step_m: float = 10.0,
        stop_dwell_s: float = 2.0,
        enforce_min_speed: bool = True,
        environment: Optional[EnvironmentConditions] = None,
    ) -> "CorridorArtifacts":
        """Build the full artifact set from the canonical inputs.

        This is the offline (amortizable) half of every DP solve; the
        construction replicates the pre-split solver's operations
        exactly, so a solver running on built artifacts produces
        bit-identical solutions to one building its own.  The segments
        are priced in blocks (:func:`~repro.core.cost.price_segments`),
        and each block is reduced to its transitions and its segments'
        fastest traversals before the next is priced.
        ``environment=None`` builds under (and digests as)
        :data:`~repro.vehicle.environment.NOMINAL_ENVIRONMENT`.
        """
        if v_step_ms <= 0 or s_step_m <= 0:
            raise ConfigurationError("grid resolutions must be positive")
        if stop_dwell_s < 0:
            raise ConfigurationError(f"stop dwell must be >= 0, got {stop_dwell_s}")
        vehicle = vehicle if vehicle is not None else VehicleParams()
        environment = environment if environment is not None else NOMINAL_ENVIRONMENT
        model = LongitudinalModel(vehicle, environment)
        positions = road.grid(s_step_m)
        v_max_global = max(zone.v_max_ms for zone in road.zones)
        n_levels = int(np.floor(v_max_global / v_step_ms + 1e-9)) + 1
        v_grid = np.arange(n_levels) * v_step_ms
        if v_grid[-1] < v_max_global - 1e-9:
            # Keep the exact speed limit reachable: losing the top sliver
            # of speed compounds into several seconds over a long corridor,
            # enough to miss tight windows.
            v_grid = np.append(v_grid, v_max_global)

        allowed = _build_allowed_masks(
            road, vehicle, positions, v_grid, s_step_m, enforce_min_speed
        )
        dwell_at = _build_dwells(road, positions, stop_dwell_s)
        blocks = price_segments(
            model,
            v_grid,
            np.diff(positions),
            road.grade_at(0.5 * (positions[:-1] + positions[1:])),
            vehicle.min_accel_ms2,
            vehicle.max_accel_ms2,
        )
        pairs, fastest = _price_pairs(blocks, allowed, dwell_at)
        min_time_to_go = _build_min_time_to_go(fastest, dwell_at)
        return cls(
            digest=corridor_digest(
                road,
                vehicle,
                v_step_ms=v_step_ms,
                s_step_m=s_step_m,
                stop_dwell_s=stop_dwell_s,
                enforce_min_speed=enforce_min_speed,
                environment=environment,
            ),
            road=road,
            vehicle=vehicle,
            environment=environment,
            v_step_ms=float(v_step_ms),
            s_step_m=float(s_step_m),
            stop_dwell_s=float(stop_dwell_s),
            enforce_min_speed=bool(enforce_min_speed),
            positions=positions,
            v_grid=v_grid,
            allowed=allowed,
            dwell_at=dwell_at,
            min_time_to_go=min_time_to_go,
            pairs=pairs,
        )

    @property
    def n_segments(self) -> int:
        """Number of route segments the transitions cover."""
        return self.positions.size - 1

    @property
    def nbytes(self) -> int:
        """Bytes of every array held, the transitions included.

        Store sizing guidance: one US-25 build holds 0.31 MB at the
        serving benchmark's grid (1 m/s, 25 m) and 1.39 MB at the
        paper's default grid (0.5 m/s, 10 m); the dense
        ``(segments, v, v')`` tables its pairs are priced from, which
        are not kept, would add 1.26 and 11.42 MB.  Size the store
        capacity so ``capacity * nbytes`` fits comfortably in memory.
        """
        return self.pairs.nbytes + sum(getattr(self, name).nbytes for name in _ARRAY_FIELDS)

    def pairs_for(self, allowed: np.ndarray) -> TransitionPairs:
        """The transitions whose endpoints a restricted ``allowed`` admits.

        A solver with a velocity band (see :meth:`restrict_allowed`)
        filters :attr:`pairs` down to its own.  The result equals
        extracting the transitions under ``allowed`` from the dense
        tables :attr:`pairs` were priced from, order included.

        Raises:
            ConfigurationError: ``allowed`` is not a restriction of
                :attr:`allowed` (a different shape, or a velocity the
                base masks refuse).
        """
        allowed = np.asarray(allowed)
        if allowed.dtype != bool or allowed.shape != self.allowed.shape:
            raise ConfigurationError(
                f"velocity masks must be bool {self.allowed.shape}, "
                f"got {allowed.dtype} {allowed.shape}"
            )
        widened = np.argwhere(allowed & ~self.allowed)
        if widened.size:
            i, j = widened[0]
            raise ConfigurationError(
                f"velocity {self.v_grid[j]:.2f} m/s at {self.positions[i]:.1f} m is "
                "refused by the corridor's own masks; a band can only restrict them"
            )
        base = self.pairs
        sizes = base.offsets[:, -1] - base.offsets[:, 0]
        seg = np.repeat(np.arange(sizes.size), sizes)
        keep = allowed[seg, base.j]
        keep &= allowed[seg + 1, base.j2]
        # The kept transitions keep their order; a row's new offset is the
        # number kept before its old one.
        kept_before = np.zeros(keep.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        return TransitionPairs(
            kept_before[base.offsets],
            base.j[keep],
            base.j2[keep],
            base.energy_j[keep],
            base.dt_s[keep],
        )

    def restrict_allowed(
        self, velocity_bounds: Callable[[float], Tuple[float, float]]
    ) -> np.ndarray:
        """The admissible-velocity masks intersected with an extra band.

        The coarse-to-fine accelerator restricts the fine search to a
        corridor around a coarse solution; the band is solver-local (an
        arbitrary callable), so it is applied *on top* of the shared base
        masks rather than baked into cached artifacts.

        Raises:
            ConfigurationError: The band empties some position's mask.
        """
        restricted = self.allowed.copy()
        for i, s in enumerate(self.positions):
            lo, hi = velocity_bounds(float(s))
            restricted[i] &= (self.v_grid >= lo - 1e-9) & (self.v_grid <= hi + 1e-9)
            if not restricted[i].any():
                raise ConfigurationError(
                    f"no admissible velocity at {s:.1f} m; check zone limits vs grid step"
                )
        return restricted


def _build_allowed_masks(
    road: RoadSegment,
    vehicle: VehicleParams,
    positions: np.ndarray,
    v_grid: np.ndarray,
    s_step_m: float,
    enforce_min_speed: bool,
) -> np.ndarray:
    """Per-point boolean masks of admissible velocity indices (Eq. 7a/7c)."""
    stops = np.asarray(road.mandatory_stop_positions())
    to_stop = np.min(np.abs(stops[None, :] - positions[:, None]), axis=1)
    zones = [road.zone_at(float(s)) for s in positions]
    v_max = np.asarray([zone.v_max_ms for zone in zones], dtype=float)
    allowed = (v_grid > 0.0) & (v_grid <= v_max[:, None] + 1e-9)
    if enforce_min_speed:
        v_min = np.asarray([zone.v_min_ms for zone in zones], dtype=float)
        ramp = np.maximum(
            v_min * v_min / (2.0 * abs(vehicle.min_accel_ms2)),
            v_min * v_min / (2.0 * vehicle.max_accel_ms2),
        ) + s_step_m
        floored = (v_min > 0) & (to_stop > ramp)
        allowed[floored] &= v_grid >= v_min[floored, None] - 1e-9
    at_stop = to_stop < 1e-6
    allowed[at_stop] = False
    allowed[at_stop, 0] = True  # mandatory stop: only v = 0
    empty = np.flatnonzero(~allowed.any(axis=1))
    if empty.size:
        raise ConfigurationError(
            f"no admissible velocity at {positions[empty[0]]:.1f} m; "
            "check zone limits vs grid step"
        )
    return allowed


def _build_dwells(
    road: RoadSegment, positions: np.ndarray, stop_dwell_s: float
) -> np.ndarray:
    """Dwell time charged when departing each grid point (stop signs only)."""
    dwells = np.zeros(positions.size)
    for sign in road.stop_signs:
        idx = int(np.argmin(np.abs(positions - sign.position_m)))
        dwells[idx] = stop_dwell_s
    return dwells


def _price_pairs(
    blocks: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    allowed: np.ndarray,
    dwell_at: np.ndarray,
) -> Tuple[TransitionPairs, np.ndarray]:
    """The transitions feasible under Eq. 7b whose endpoints ``allowed`` admits.

    Each block is reduced to its transitions as it arrives, so no
    ``(segments, v, v')`` table outlives its block.

    Args:
        blocks: The ``(energy_j, travel_s, feasible)`` blocks of
            consecutive segments that
            :func:`~repro.core.cost.price_segments` yields.
        allowed: ``(points, v)`` admissible-velocity masks.
        dwell_at: Dwell charged when departing each point (s).

    Returns:
        The transitions, and each segment's fastest feasible
        traversal time (s; ``+inf`` for a segment with none),
        whatever ``allowed`` admits.
    """
    n_v = allowed.shape[1]
    flat_parts, energy_parts, dt_parts, fastest = [], [], [], []
    lo = 0
    for energy_j, travel_s, feasible in blocks:
        hi = lo + feasible.shape[0]
        mask = feasible & allowed[lo:hi, :, None]
        mask &= allowed[lo + 1:hi + 1, None, :]
        # Flat indices into the block, in np.nonzero order.
        flat = np.flatnonzero(mask)
        energy_parts.append(energy_j.ravel()[flat])
        dt_parts.append(travel_s.ravel()[flat])
        flat_parts.append(flat + lo * n_v * n_v)
        fastest.append(travel_s.min(axis=(1, 2)))
        lo = hi
    row, j2 = np.divmod(np.concatenate(flat_parts), n_v)
    seg, j = np.divmod(row, n_v)
    dt_s = np.concatenate(dt_parts)
    dt_s += dwell_at[seg]
    ends = np.cumsum(np.bincount(row, minlength=lo * n_v))
    offsets = np.empty((lo, n_v + 1), dtype=np.int64)
    offsets[:, 1:] = ends.reshape(lo, n_v)
    offsets[0, 0] = 0
    offsets[1:, 0] = offsets[:-1, -1]
    pairs = TransitionPairs(offsets, j, j2, np.concatenate(energy_parts), dt_s)
    return pairs, np.concatenate(fastest)


def _build_min_time_to_go(fastest: np.ndarray, dwell_at: np.ndarray) -> np.ndarray:
    """Optimistic remaining travel time from each grid point (s).

    An admissible bound — the fastest any label could still finish —
    used to prune labels that can no longer make the trip-time cap.
    Sums each segment's fastest feasible traversal (``+inf`` for a
    segment with none) plus the mandatory stop-sign dwells from the
    destination backwards.
    """
    best = fastest.tolist()
    dwell = dwell_at.tolist()
    to_go = np.zeros(len(best) + 1)
    remaining = 0.0
    for i in range(len(best) - 1, -1, -1):
        remaining = remaining + best[i] + dwell[i]
        to_go[i] = remaining
    return to_go


def _freeze(arrays: Iterable[np.ndarray]) -> None:
    """Mark held arrays read-only: artifacts are shared by every solver."""
    for array in arrays:
        array.flags.writeable = False
