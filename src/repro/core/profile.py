"""Velocity profiles: the plan representation shared by all components.

A :class:`VelocityProfile` is distance-indexed — speeds at increasing route
positions, exactly the DP's decision variables (Eq. 7).  Between adjacent
grid points the vehicle holds constant acceleration, so timing follows the
paper's average-speed rule (Eq. 10):

    t(s_{i+1}) = t(s_i) + ds / ((v_i + v_{i+1}) / 2)

Profiles can carry per-point dwell times (e.g. the mandatory wait at a stop
sign) and convert to uniformly time-sampled :class:`TimedTrace` objects for
energy metering and simulator playback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.vehicle.energy_meter import EnergyMeter, TripEnergy
from repro.vehicle.params import VehicleParams


@dataclass(frozen=True)
class TimedTrace:
    """A uniformly time-sampled speed trace.

    Attributes:
        times_s: Sample times, strictly increasing (s).
        speeds_ms: Speed at each sample (m/s).
        positions_m: Travelled distance at each sample (m).
    """

    times_s: np.ndarray
    speeds_ms: np.ndarray
    positions_m: np.ndarray

    def __post_init__(self) -> None:
        if not (self.times_s.shape == self.speeds_ms.shape == self.positions_m.shape):
            raise ConfigurationError("trace arrays must share a shape")
        if self.times_s.size < 2:
            raise ConfigurationError("a trace needs at least two samples")
        if np.any(np.diff(self.times_s) <= 0):
            raise ConfigurationError("trace times must be strictly increasing")
        if np.any(self.speeds_ms < -1e-9):
            raise ConfigurationError("trace speeds must be non-negative")

    @property
    def duration_s(self) -> float:
        """Trace duration (s)."""
        return float(self.times_s[-1] - self.times_s[0])

    @property
    def distance_m(self) -> float:
        """Distance covered (m)."""
        return float(self.positions_m[-1] - self.positions_m[0])

    def energy(self, params: Optional[VehicleParams] = None) -> TripEnergy:
        """Meter the trace with the EV consumption model."""
        meter = EnergyMeter(params)
        return meter.measure(self.times_s, np.maximum(self.speeds_ms, 0.0))


class VelocityProfile:
    """A distance-indexed velocity plan with Eq. 10 timing.

    Args:
        positions_m: Strictly increasing route positions (m).
        speeds_ms: Planned speed at each position (m/s, >= 0).
        dwell_s: Optional stationary wait at each position (s); used for
            stop-sign dwells.  Defaults to zero everywhere.
        start_time_s: Absolute departure time at the first position.

    Raises:
        ConfigurationError: If arrays are inconsistent, or two adjacent
            speeds are both zero with no way to cover the gap.
    """

    def __init__(
        self,
        positions_m: Sequence[float],
        speeds_ms: Sequence[float],
        dwell_s: Optional[Sequence[float]] = None,
        start_time_s: float = 0.0,
    ) -> None:
        pos = np.asarray(positions_m, dtype=float)
        spd = np.asarray(speeds_ms, dtype=float)
        if pos.ndim != 1 or pos.size < 2:
            raise ConfigurationError("a profile needs at least two positions")
        if pos.shape != spd.shape:
            raise ConfigurationError(
                f"positions and speeds must match, got {pos.shape} vs {spd.shape}"
            )
        gaps = pos[1:] - pos[:-1]
        if (gaps <= 0).any():
            raise ConfigurationError("positions must be strictly increasing")
        if (spd < 0).any():
            raise ConfigurationError("speeds must be non-negative")
        dwell = np.zeros_like(pos) if dwell_s is None else np.asarray(dwell_s, dtype=float)
        if dwell.shape != pos.shape:
            raise ConfigurationError("dwell array must match positions")
        if (dwell < 0).any():
            raise ConfigurationError("dwell times must be non-negative")
        v_avg = 0.5 * (spd[:-1] + spd[1:])
        stalled = v_avg <= 0
        if stalled.any():
            bad = int(np.argmax(stalled))
            raise ConfigurationError(
                f"segment {bad} has zero average speed; the gap at "
                f"{pos[bad]:.1f}-{pos[bad + 1]:.1f} m can never be covered"
            )
        self.positions_m = pos
        self.speeds_ms = spd
        self.dwell_s = dwell
        # Text rendered from the arrays on first use (the wire codec's
        # JSON), shared with every shifted copy, as the arrays are.  Like
        # the segment times below, it relies on the arrays never being
        # changed after validation.
        self._renders: Dict[str, str] = {}
        self._seg_dt = gaps / v_avg
        # Arrival at point i happens before its dwell; departure after.
        self._offsets = np.cumsum(self._seg_dt + dwell[:-1])
        self._anchor(start_time_s)

    def _anchor(self, start_time_s: float) -> None:
        """Set the departure time and the absolute arrivals it implies."""
        self.start_time_s = float(start_time_s)
        arrivals = np.empty_like(self.positions_m)
        arrivals[0] = self.start_time_s
        arrivals[1:] = self.start_time_s + self._offsets
        self._arrivals = arrivals

    def shifted_to(self, start_time_s: float) -> VelocityProfile:
        """The same plan departing at ``start_time_s``.

        Bit-identical to constructing a new profile from this one's
        arrays with the new start time, but the already-validated arrays
        and the cumulative segment offsets are reused instead of being
        re-checked and re-summed.  The arrays are shared, not copied, and
        so is the text rendered from them.
        """
        profile = VelocityProfile.__new__(VelocityProfile)
        profile.positions_m = self.positions_m
        profile.speeds_ms = self.speeds_ms
        profile.dwell_s = self.dwell_s
        profile._renders = self._renders
        profile._seg_dt = self._seg_dt
        profile._offsets = self._offsets
        profile._anchor(start_time_s)
        return profile

    # ------------------------------------------------------------------
    # Timing (Eq. 10)
    # ------------------------------------------------------------------
    @property
    def arrival_times_s(self) -> np.ndarray:
        """Absolute arrival time at each grid point (before its dwell)."""
        return self._arrivals.copy()

    @property
    def total_time_s(self) -> float:
        """Trip duration including the final point's dwell is excluded."""
        return float(self._arrivals[-1] - self.start_time_s)

    @property
    def total_distance_m(self) -> float:
        """Route length covered by the profile (m)."""
        return float(self.positions_m[-1] - self.positions_m[0])

    def arrival_time_at(self, position_m: float) -> float:
        """Absolute arrival time at an arbitrary route position.

        Interpolates within the constant-acceleration segment containing
        the position.
        """
        pos = self.positions_m
        if not pos[0] <= position_m <= pos[-1]:
            raise ValueError(
                f"position {position_m} m is outside the profile [{pos[0]}, {pos[-1]}]"
            )
        i = int(np.searchsorted(pos, position_m, side="right")) - 1
        i = min(max(i, 0), pos.size - 2)
        if position_m == pos[i]:
            return float(self._arrivals[i])
        ds = position_m - pos[i]
        v0, v1 = self.speeds_ms[i], self.speeds_ms[i + 1]
        seg_len = pos[i + 1] - pos[i]
        accel = (v1 * v1 - v0 * v0) / (2.0 * seg_len)
        if abs(accel) < 1e-12:
            dt = ds / v0
        else:
            v_at = float(np.sqrt(max(v0 * v0 + 2.0 * accel * ds, 0.0)))
            dt = (v_at - v0) / accel
        return float(self._arrivals[i] + self.dwell_s[i] + dt)

    def speed_at(self, position_m: float) -> float:
        """Planned speed at an arbitrary route position (m/s).

        Uses the constant-acceleration relation ``v^2 = v0^2 + 2 a ds``
        within a segment, which is the profile's true kinematic shape.
        """
        pos = self.positions_m
        if not pos[0] <= position_m <= pos[-1]:
            raise ValueError(
                f"position {position_m} m is outside the profile [{pos[0]}, {pos[-1]}]"
            )
        i = int(np.searchsorted(pos, position_m, side="right")) - 1
        i = min(max(i, 0), pos.size - 2)
        ds = position_m - pos[i]
        v0, v1 = self.speeds_ms[i], self.speeds_ms[i + 1]
        seg_len = pos[i + 1] - pos[i]
        accel = (v1 * v1 - v0 * v0) / (2.0 * seg_len)
        return float(np.sqrt(max(v0 * v0 + 2.0 * accel * ds, 0.0)))

    def accelerations(self) -> np.ndarray:
        """Per-segment constant accelerations (m/s^2), length ``n - 1``."""
        dv2 = np.diff(np.square(self.speeds_ms))
        return dv2 / (2.0 * np.diff(self.positions_m))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_time_trace(self, dt_s: float = 0.5) -> TimedTrace:
        """Sample the profile uniformly in time, honouring dwells."""
        if dt_s <= 0:
            raise ValueError(f"dt must be positive, got {dt_s}")
        times = [self.start_time_s]
        speeds = [float(self.speeds_ms[0])]
        dists = [float(self.positions_m[0])]
        t = self.start_time_s
        for i in range(self.positions_m.size - 1):
            if self.dwell_s[i] > 0:
                t += float(self.dwell_s[i])
                times.append(t)
                speeds.append(0.0)
                dists.append(float(self.positions_m[i]))
            # Constant-acceleration segment: v linear in t.
            t += float(self._seg_dt[i])
            times.append(t)
            speeds.append(float(self.speeds_ms[i + 1]))
            dists.append(float(self.positions_m[i + 1]))
        knot_t = np.asarray(times)
        knot_v = np.asarray(speeds)
        knot_s = np.asarray(dists)
        n = max(int(np.ceil((knot_t[-1] - knot_t[0]) / dt_s)), 1)
        sample_t = knot_t[0] + np.arange(n + 1) * dt_s
        sample_t = np.minimum(sample_t, knot_t[-1])
        sample_t = np.unique(sample_t)
        if sample_t.size < 2:
            sample_t = np.asarray([knot_t[0], knot_t[-1]])
        # Speed is linear in time within a constant-acceleration segment,
        # so position is quadratic — plain linear interpolation of the
        # positions would contradict the sampled speeds near stops.
        seg = np.clip(np.searchsorted(knot_t, sample_t, side="right") - 1, 0, knot_t.size - 2)
        seg_dt = knot_t[seg + 1] - knot_t[seg]
        accel = (knot_v[seg + 1] - knot_v[seg]) / seg_dt
        local_t = sample_t - knot_t[seg]
        sample_v = knot_v[seg] + accel * local_t
        sample_s = knot_s[seg] + knot_v[seg] * local_t + 0.5 * accel * np.square(local_t)
        sample_v = np.maximum(sample_v, 0.0)
        return TimedTrace(times_s=sample_t, speeds_ms=sample_v, positions_m=sample_s)

    @classmethod
    def from_time_trace(cls, trace: TimedTrace, min_gap_m: float = 0.5) -> "VelocityProfile":
        """Build a distance-indexed profile from a time-sampled trace.

        Stationary stretches collapse into dwell times at the stop
        position; samples closer than ``min_gap_m`` in space are merged so
        the distance grid stays strictly increasing.
        """
        stop_threshold = 0.05  # m/s: below this the vehicle is "stopped"
        pos_list = [float(trace.positions_m[0])]
        spd_list = [float(trace.speeds_ms[0])]
        dwell_list = [0.0]
        for i in range(1, trace.times_s.size):
            gap = float(trace.positions_m[i]) - pos_list[-1]
            speed = float(trace.speeds_ms[i])
            if gap < min_gap_m:
                if speed <= stop_threshold:
                    # Standing still: fold the elapsed time into a dwell.
                    dwell_list[-1] += float(trace.times_s[i] - trace.times_s[i - 1])
                    spd_list[-1] = 0.0
                # Moving but dense sampling: thin the sample; the Eq. 10
                # average-speed rule recovers its travel time.
                continue
            pos_list.append(float(trace.positions_m[i]))
            spd_list.append(speed)
            dwell_list.append(0.0)
        # Always represent the final sample so terminal stops survive.
        final_pos = float(trace.positions_m[-1])
        final_speed = float(trace.speeds_ms[-1])
        if final_pos - pos_list[-1] >= min_gap_m:
            pos_list.append(final_pos)
            spd_list.append(final_speed)
            dwell_list.append(0.0)
        elif final_speed <= stop_threshold:
            spd_list[-1] = 0.0
        if len(pos_list) < 2:
            raise ConfigurationError("trace never moves; cannot build a distance profile")
        # Guard against two adjacent standstills (a gap that can never be
        # covered): give the later endpoint a crawl speed.
        for i in range(len(spd_list) - 1):
            if spd_list[i] == 0.0 and spd_list[i + 1] == 0.0:
                spd_list[i + 1] = 0.1
        return cls(
            positions_m=pos_list,
            speeds_ms=spd_list,
            dwell_s=dwell_list,
            start_time_s=float(trace.times_s[0]),
        )

    def energy(self, params: Optional[VehicleParams] = None, dt_s: float = 0.25) -> TripEnergy:
        """Total trip energy by metering a time-sampled rendering."""
        return self.to_time_trace(dt_s).energy(params)

    def __len__(self) -> int:
        return int(self.positions_m.size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"VelocityProfile({self.positions_m.size} pts, "
            f"{self.total_distance_m:.0f} m, {self.total_time_s:.1f} s)"
        )
