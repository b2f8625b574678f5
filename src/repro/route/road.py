"""Road-segment model used by both the optimizer and the simulator.

A :class:`RoadSegment` is a one-dimensional corridor from a source (s=0) to
a destination (s=length).  It carries:

* piecewise-constant speed-limit zones (minimum and maximum limits, Eq. 7a),
* stop signs (Eq. 7c: velocity must be zero there),
* signalized intersections (positions; timing lives on the
  :class:`repro.signal.light.TrafficLight` attached per site),
* an optional road-grade profile for the gravity terms of Eq. 1.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.signal.light import TrafficLight


@dataclass(frozen=True)
class SpeedLimitZone:
    """A stretch of road with fixed minimum/maximum speed limits.

    Attributes:
        start_m: Zone start position (inclusive).
        end_m: Zone end position (exclusive, except for the final zone).
        v_max_ms: Maximum legal speed (m/s).
        v_min_ms: Minimum expected flow speed (m/s); 0 where unposted.
    """

    start_m: float
    end_m: float
    v_max_ms: float
    v_min_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.end_m <= self.start_m:
            raise ConfigurationError(
                f"zone end {self.end_m} must exceed start {self.start_m}"
            )
        if self.v_max_ms <= 0:
            raise ConfigurationError(f"v_max must be positive, got {self.v_max_ms}")
        if not 0 <= self.v_min_ms <= self.v_max_ms:
            raise ConfigurationError(
                f"v_min {self.v_min_ms} must lie in [0, v_max={self.v_max_ms}]"
            )


@dataclass(frozen=True)
class StopSign:
    """A stop sign: the optimizer must plan v=0 at this position (Eq. 7c)."""

    position_m: float

    def __post_init__(self) -> None:
        if self.position_m < 0:
            raise ConfigurationError(f"position must be >= 0, got {self.position_m}")


@dataclass(frozen=True)
class SignalSite:
    """A signalized intersection on the corridor.

    Attributes:
        position_m: Stop-line position along the road.
        light: Signal timing (red/green cycle).
        turn_ratio: Fraction gamma of queued vehicles that go straight
            (Eq. 5); the rest turn off the corridor.
        queue_spacing_m: Average inter-vehicle spacing d inside a standing
            queue (front bumper to front bumper), assumed constant [14].
    """

    position_m: float
    light: TrafficLight
    turn_ratio: float = 1.0
    queue_spacing_m: float = 8.5

    def __post_init__(self) -> None:
        if self.position_m < 0:
            raise ConfigurationError(f"position must be >= 0, got {self.position_m}")
        if not 0.0 < self.turn_ratio <= 1.0:
            raise ConfigurationError(f"turn ratio must be in (0, 1], got {self.turn_ratio}")
        if self.queue_spacing_m <= 0:
            raise ConfigurationError(
                f"queue spacing must be positive, got {self.queue_spacing_m}"
            )


class GradeProfile:
    """Piecewise-linear road grade theta(s) in radians.

    Args:
        positions_m: Strictly increasing breakpoint positions.
        grades_rad: Grade at each breakpoint; linearly interpolated between
            breakpoints and held constant beyond the ends.
    """

    def __init__(self, positions_m: Sequence[float], grades_rad: Sequence[float]) -> None:
        pos = np.asarray(positions_m, dtype=float)
        grd = np.asarray(grades_rad, dtype=float)
        if pos.size == 0 or pos.shape != grd.shape:
            raise ConfigurationError("grade profile needs matching, non-empty arrays")
        if pos.size > 1 and np.any(np.diff(pos) <= 0):
            raise ConfigurationError("grade breakpoints must be strictly increasing")
        self._pos = pos
        self._grd = grd

    @classmethod
    def flat(cls) -> "GradeProfile":
        """A zero-grade profile."""
        return cls([0.0], [0.0])

    def at(self, position_m: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Grade (radians) at a position along the road.

        An array of positions gives the array of their grades.
        """
        grade = np.interp(position_m, self._pos, self._grd)
        return float(grade) if np.ndim(grade) == 0 else grade

    def breakpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(positions_m, grades_rad)`` breakpoint arrays (read-only copies).

        The engine layer folds these into the corridor-artifact digest;
        copies keep the profile immutable from the caller's side.
        """
        return self._pos.copy(), self._grd.copy()


@dataclass
class RoadSegment:
    """A one-dimensional corridor with limits, stop signs and signals.

    Attributes:
        name: Human-readable identifier.
        length_m: Corridor length; the destination sits at this position.
        zones: Speed-limit zones; must tile ``[0, length_m]`` without gaps.
        stop_signs: Stop signs sorted by position.
        signals: Signalized intersections sorted by position.
        grade: Road-grade profile (flat by default).
    """

    name: str
    length_m: float
    zones: List[SpeedLimitZone]
    stop_signs: List[StopSign] = field(default_factory=list)
    signals: List[SignalSite] = field(default_factory=list)
    grade: GradeProfile = field(default_factory=GradeProfile.flat)

    def __post_init__(self) -> None:
        if self.length_m <= 0:
            raise ConfigurationError(f"length must be positive, got {self.length_m}")
        if not self.zones:
            raise ConfigurationError("a road needs at least one speed-limit zone")
        self.zones = sorted(self.zones, key=lambda z: z.start_m)
        cursor = 0.0
        for zone in self.zones:
            if abs(zone.start_m - cursor) > 1e-9:
                raise ConfigurationError(
                    f"speed-limit zones must tile the road; gap/overlap at {zone.start_m} m"
                )
            cursor = zone.end_m
        if abs(cursor - self.length_m) > 1e-9:
            raise ConfigurationError(
                f"speed-limit zones end at {cursor} m but the road is {self.length_m} m"
            )
        self.stop_signs = sorted(self.stop_signs, key=lambda s: s.position_m)
        self.signals = sorted(self.signals, key=lambda s: s.position_m)
        for sign in self.stop_signs:
            if sign.position_m > self.length_m:
                raise ConfigurationError(f"stop sign at {sign.position_m} m is off the road")
        for site in self.signals:
            if site.position_m > self.length_m:
                raise ConfigurationError(f"signal at {site.position_m} m is off the road")
        self._zone_starts = [z.start_m for z in self.zones]

    # ------------------------------------------------------------------
    # Limit queries
    # ------------------------------------------------------------------
    def zone_at(self, position_m: float) -> SpeedLimitZone:
        """The speed-limit zone covering a position."""
        if not 0 <= position_m <= self.length_m:
            raise ValueError(f"position {position_m} m is outside [0, {self.length_m}]")
        index = bisect.bisect_right(self._zone_starts, position_m) - 1
        return self.zones[max(index, 0)]

    def v_max_at(self, position_m: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Maximum speed limit (m/s) at a position (Eq. 7a upper bound).

        An array of positions gives the array of their limits.
        """
        if isinstance(position_m, np.ndarray):
            return self._zone_limits(position_m, "v_max_ms")
        return self.zone_at(position_m).v_max_ms

    def v_min_at(self, position_m: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Minimum expected speed (m/s) at a position (Eq. 7a lower bound).

        An array of positions gives the array of their limits.
        """
        if isinstance(position_m, np.ndarray):
            return self._zone_limits(position_m, "v_min_ms")
        return self.zone_at(position_m).v_min_ms

    def _zone_limits(self, positions_m: np.ndarray, name: str) -> np.ndarray:
        """One zone limit at each of an array of positions, as :meth:`zone_at` finds it."""
        positions = np.asarray(positions_m, dtype=float)
        outside = ~((positions >= 0) & (positions <= self.length_m))
        if outside.any():
            raise ValueError(
                f"position {positions[outside][0]} m is outside [0, {self.length_m}]"
            )
        index = np.searchsorted(self._zone_starts, positions, side="right") - 1
        limits = np.asarray([getattr(zone, name) for zone in self.zones], dtype=float)
        return limits[np.maximum(index, 0)]

    def grade_at(self, position_m: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Road grade (radians) at a position, or at each of an array of them."""
        return self.grade.at(position_m)

    # ------------------------------------------------------------------
    # Mandatory-stop machinery (Eq. 7c/7d)
    # ------------------------------------------------------------------
    def mandatory_stop_positions(self) -> List[float]:
        """Positions where the planned velocity must be exactly zero.

        Includes the source, every stop sign and the destination (Eq. 7c
        and 7d).  Signals are *not* mandatory stops — the whole point of
        the paper is to glide through them on green.
        """
        positions = [0.0]
        positions.extend(sign.position_m for sign in self.stop_signs)
        positions.append(self.length_m)
        return sorted(set(positions))

    def signal_positions(self) -> List[float]:
        """Stop-line positions of all signals, in order."""
        return [site.position_m for site in self.signals]

    def grid(self, step_m: float) -> np.ndarray:
        """Equal-distance DP grid points s_i covering the corridor.

        Mandatory-stop and signal positions are snapped onto the grid by
        inserting them as extra points, so constraints apply at exact
        locations rather than at the nearest multiple of ``step_m``.
        """
        if step_m <= 0:
            raise ValueError(f"grid step must be positive, got {step_m}")
        base = np.arange(0.0, self.length_m + 0.5 * step_m, step_m)
        special = np.unique(
            np.asarray(
                self.mandatory_stop_positions() + self.signal_positions(), dtype=float
            )
        )
        # Drop base points crowding a special point: a sub-step segment
        # adjacent to a mandatory stop admits no feasible acceleration on
        # any reasonable velocity grid.
        distance_to_special = np.min(
            np.abs(base[:, None] - special[None, :]), axis=1
        )
        base = base[distance_to_special > 0.5 * step_m]
        points = np.union1d(base, special)
        keep = np.concatenate([[True], np.diff(points) > 1e-6])
        return points[keep]
