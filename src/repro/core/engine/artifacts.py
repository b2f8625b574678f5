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

import bisect
import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.core.cost import _BLOCK_ENTRIES, price_segments
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
_PAIR_FIELDS = ("offsets", "j2", "energy_j", "dt_s")


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
    contiguous slice, sorted by source velocity.  The source index ``j``
    is not held: transition ``k`` leaves velocity ``j`` of segment ``i``
    for the row ``offsets[i, j] <= k < offsets[i, j + 1]``.  The arrays
    are read-only.

    Attributes:
        offsets: ``(segments, levels + 1)`` CSR row offsets into the
            stacked arrays: segment ``i``'s transitions from velocity
            index ``j`` are ``offsets[i, j]:offsets[i, j + 1]``, and the
            segment spans ``offsets[i, 0]:offsets[i, -1]``.
        j2: Successor velocity index of each transition.
        energy_j: Energy of each transition (J).
        dt_s: Traversal time of each transition, including the dwell
            charged when departing the segment's start (s).
    """

    offsets: np.ndarray
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
        bit-identical solutions to one building its own.

        The work is done once per distinct segment class, not once per
        segment.  Eq. 9 prices a transition from the segment's length
        and grade alone, so each distinct ``(length, grade)`` shape is
        priced once, in blocks (:func:`~repro.core.cost.price_segments`).
        A segment's transitions further depend only on the masks at its
        two ends and the dwell charged on departure, so each class of
        equal shape, masks and dwell is reduced to its transitions once,
        while its shape's block is alive.  The classes' transitions are
        then laid out in route order, byte for byte as a per-segment
        build lays them out.  The built-in corridors repeat a handful of
        shapes hundreds of times.  A corridor without repeats does a
        per-segment build's work plus the keying and that copy, and is
        consistently slower to build than per segment when the two are
        timed side by side in one process (US-25 graded throughout: 7–13%
        at both grids); across separate processes the difference is
        lost in the spread.
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
        pairs, fastest = _price_pairs(
            model,
            v_grid,
            np.diff(positions),
            road.grade_at(0.5 * (positions[:-1] + positions[1:])),
            allowed,
            dwell_at,
            vehicle.min_accel_ms2,
            vehicle.max_accel_ms2,
        )
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

        Store sizing guidance: one US-25 build holds 0.24 MB at the
        serving benchmark's grid (1 m/s, 25 m) and 1.08 MB at the
        paper's default grid (0.5 m/s, 10 m), 24 B per transition
        (its ``j2``, energy and time) plus the offsets and per-point
        arrays; the dense ``(segments, v, v')`` tables its pairs are
        priced from, which are not kept, would add 1.26 and 11.42 MB.
        Size the store capacity so ``capacity * nbytes`` fits
        comfortably in memory.
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
        # Each transition's segment and source index, from its offsets row.
        counts = np.diff(base.offsets, axis=1)
        seg, j = np.divmod(np.repeat(np.arange(counts.size), counts.ravel()), counts.shape[1])
        keep = allowed[seg, j]
        keep &= allowed[seg + 1, base.j2]
        # The kept transitions keep their order; a row's new offset is the
        # number kept before its old one.
        kept_before = np.zeros(keep.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        return TransitionPairs(
            kept_before[base.offsets],
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
    allowed = (v_grid > 0.0) & (v_grid <= road.v_max_at(positions)[:, None] + 1e-9)
    if enforce_min_speed:
        v_min = road.v_min_at(positions)
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
    model: LongitudinalModel,
    v_grid: np.ndarray,
    distances_m: np.ndarray,
    grades_rad: np.ndarray,
    allowed: np.ndarray,
    dwell_at: np.ndarray,
    a_min: float,
    a_max: float,
) -> Tuple[TransitionPairs, np.ndarray]:
    """The transitions feasible under Eq. 7b whose endpoints ``allowed`` admits.

    Each distinct shape is priced once and each class reduced once
    (:func:`_segment_classes`), in shape order, so a block of priced
    shapes is reduced before the next is priced.  Classes are reduced
    in blocks of at most ``_BLOCK_ENTRIES`` entries, so no
    ``(segments, v, v')`` table outlives its block.  The reduced
    classes are then copied into route order with one gather.

    Args:
        model: Vehicle consumption model.
        v_grid: Velocity grid values (m/s).
        distances_m: Length of each segment (m).
        grades_rad: Grade of each segment (at its midpoint).
        allowed: ``(points, v)`` admissible-velocity masks.
        dwell_at: Dwell charged when departing each point (s).
        a_min: Minimum allowed acceleration (m/s^2, negative).
        a_max: Maximum allowed acceleration (m/s^2, positive).

    Returns:
        The transitions, and each segment's fastest feasible
        traversal time (s; ``+inf`` for a segment with none),
        whatever ``allowed`` admits.
    """
    n_seg, n_v = distances_m.size, v_grid.size
    entries = n_v * n_v
    shape_of, shape_first, class_of, class_first = _segment_classes(
        distances_m, grades_rad, allowed, dwell_at
    )
    # The reduction order: classes by shape, then by first appearance.
    by_shape = np.argsort(shape_of[class_first], kind="stable")
    first_seg = class_first[by_shape]
    shape = shape_of[first_seg]
    shape_list = shape.tolist()
    entry_rows = allowed[first_seg, :, None]
    exit_rows = allowed[first_seg + 1, None, :]
    per_block = max(1, _BLOCK_ENTRIES // entries)
    flat_parts, energy_parts, dt_parts, fastest = [], [], [], []
    lo = done = 0
    for energy_j, travel_s, feasible in price_segments(
        model, v_grid, distances_m[shape_first], grades_rad[shape_first], a_min, a_max
    ):
        hi = lo + feasible.shape[0]
        fastest.append(travel_s.min(axis=(1, 2)))
        end = bisect.bisect_left(shape_list, hi, done)
        for start in range(done, end, per_block):
            stop = min(start + per_block, end)
            # Each class's shape, as an index into the priced block.
            local = shape[start:stop] - lo
            mask = feasible[local] & entry_rows[start:stop]
            mask &= exit_rows[start:stop]
            # Flat indices into the classes, in np.nonzero order, and
            # the same entries as flat indices into the priced block.
            flat = np.flatnonzero(mask)
            priced = flat + ((local - np.arange(stop - start)) * entries)[flat // entries]
            energy_parts.append(energy_j.ravel()[priced])
            dt_parts.append(travel_s.ravel()[priced])
            flat_parts.append(flat + start * entries)
        done = end
        lo = hi
    row, j2 = np.divmod(np.concatenate(flat_parts), n_v)
    energy = np.concatenate(energy_parts)
    dt_s = np.concatenate(dt_parts)
    dt_s += dwell_at[first_seg][row // n_v]
    rows = np.bincount(row, minlength=first_seg.size * n_v).reshape(-1, n_v)
    # Each segment's class, as a position in the reduction order.
    position = np.empty_like(by_shape)
    position[by_shape] = np.arange(by_shape.size)
    seg_class = position[class_of]
    offsets = np.empty((n_seg, n_v + 1), dtype=np.int64)
    offsets[:, 1:] = np.cumsum(rows[seg_class]).reshape(n_seg, n_v)
    offsets[0, 0] = 0
    offsets[1:, 0] = offsets[:-1, -1]
    # Copy each segment's class's transitions into route order.
    class_start = np.zeros(first_seg.size, dtype=np.int64)
    np.cumsum(rows.sum(axis=1)[:-1], out=class_start[1:])
    take = np.repeat(class_start[seg_class] - offsets[:, 0], offsets[:, -1] - offsets[:, 0])
    take += np.arange(take.size)
    pairs = TransitionPairs(offsets, j2[take], energy[take], dt_s[take])
    return pairs, np.concatenate(fastest)[shape_of]


def _segment_classes(
    distances_m: np.ndarray,
    grades_rad: np.ndarray,
    allowed: np.ndarray,
    dwell_at: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each segment's shape and class, both numbered by first appearance.

    A segment's shape is the bytes of its ``(length, grade)``, so a
    ``-0.0`` grade is not a ``0.0`` one: Eq. 9 prices a transition from
    the shape alone.  Its class is the bytes of its shape, entry mask
    row, exit mask row and departure dwell: its transitions follow from
    the class alone.

    Returns:
        ``(shape_of, shape_first, class_of, class_first)``: segment
        ``i`` has shape ``shape_of[i]`` and class ``class_of[i]``, and
        ``shape_first[k]`` (``class_first[k]``) is the first segment of
        shape (class) ``k``.
    """
    n_seg = distances_m.size
    shape_of, shape_first = _first_appearance(np.column_stack([distances_m, grades_rad]))
    class_of, class_first = _first_appearance(
        np.concatenate(
            [
                shape_of.view(np.uint8).reshape(n_seg, -1),
                allowed[:-1].view(np.uint8),
                allowed[1:].view(np.uint8),
                dwell_at[:-1].view(np.uint8).reshape(n_seg, -1),
            ],
            axis=1,
        )
    )
    return shape_of, shape_first, class_of, class_first


def _first_appearance(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ids of a 2-D array's rows, equal bytes sharing one, by first appearance.

    Returns ``(ids, first)``: row ``i`` has id ``ids[i]``, and ``first[k]``
    is the first row with id ``k``.  Both are 1-D.
    """
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse.ravel()], first[order]


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
