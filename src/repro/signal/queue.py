"""Queue-length (QL) model: Eq. 6 and the queue-empty window ``T_q``.

The queue in front of a signal grows with the arrival rate ``V_in`` while
the light is red and shrinks with the leaving rate ``V_out`` (from the VM
model) once it turns green.  The paper's Eq. 6 gives the queue trajectory
over one cycle; its zero-crossing ``t_star`` defines the window
``T_q = [t_star, cycle_end)`` during which an arriving EV meets no queue —
the window the DP optimizer targets (Eq. 11).

Two discharge behaviours are supported:

* :class:`~repro.signal.vm.VehicleMovementModel` — the paper's VM model
  with the acceleration transient (proposed).
* :class:`~repro.signal.vm.InstantDischargeModel` — the prior-art model [9]
  where the queue moves at ``v_min`` from the first green instant
  (baseline, Fig. 5).

Both an exact closed-form single-cycle solution (constant arrivals, empty
queue at red onset — the paper's setting) and a discrete-time multi-cycle
integrator with residual-queue carry-over and time-varying arrivals are
provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.signal.light import TrafficLight
from repro.signal.vm import InstantDischargeModel, VehicleMovementModel

DischargeModel = Union[VehicleMovementModel, InstantDischargeModel]
ArrivalRate = Union[float, Callable[[float], float]]


@dataclass(frozen=True)
class QueueWindow:
    """An absolute-time interval during which the queue is empty and green.

    Attributes:
        start_s: Window start (absolute seconds).
        end_s: Window end (absolute seconds, exclusive).
    """

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ConfigurationError(
                f"window end {self.end_s} must exceed start {self.start_s}"
            )

    @property
    def duration_s(self) -> float:
        """Window length (s)."""
        return self.end_s - self.start_s

    def contains(self, t: float) -> bool:
        """Whether an absolute time falls inside the window."""
        return self.start_s <= t < self.end_s


class QueueLengthModel:
    """The paper's QL model (Eq. 6) over one signal.

    Args:
        discharge: Queue-discharge model (VM for the proposed system,
            instant discharge for the [9] baseline).
    """

    def __init__(self, discharge: DischargeModel) -> None:
        self.discharge = discharge
        self.light: TrafficLight = discharge.light

    # ------------------------------------------------------------------
    # Single-cycle closed form (the paper's Eq. 6 setting)
    # ------------------------------------------------------------------
    def queue_vehicles(self, cycle_time_s: float, arrival_rate_vps: float) -> float:
        """Queue size (vehicles) at a time within one cycle (Eq. 6).

        Assumes the queue is empty at the red onset and arrivals are a
        constant ``V_in`` (vehicles/s).  After the zero-crossing the queue
        stays empty for the rest of the green: arrivals roll through.
        """
        if arrival_rate_vps < 0:
            raise ValueError(f"arrival rate must be >= 0, got {arrival_rate_vps}")
        if cycle_time_s < 0:
            raise ValueError(f"cycle time must be >= 0, got {cycle_time_s}")
        t_star = self.clear_time(arrival_rate_vps)
        if t_star is not None and cycle_time_s >= t_star:
            return 0.0
        arrived = arrival_rate_vps * cycle_time_s
        discharged = self.discharge.discharged_vehicles(cycle_time_s)
        return max(arrived - discharged, 0.0)

    def queue_length_m(self, cycle_time_s: float, arrival_rate_vps: float) -> float:
        """Queue length in metres: spacing ``d`` times the vehicle count."""
        return self.discharge.spacing_m * self.queue_vehicles(cycle_time_s, arrival_rate_vps)

    def clear_time(self, arrival_rate_vps: float) -> Optional[float]:
        """Cycle time ``t_star`` at which the queue first empties on green.

        Returns ``None`` when the green phase cannot absorb the red-phase
        accumulation plus in-green arrivals (oversaturation), in which case
        there is no queue-free window this cycle.
        """
        if arrival_rate_vps < 0:
            raise ValueError(f"arrival rate must be >= 0, got {arrival_rate_vps}")
        light = self.light
        lam = arrival_rate_vps
        k = 1.0 / (self.discharge.spacing_m * self.discharge.turn_ratio)
        v_min = self.discharge.v_min_ms
        if lam == 0.0:
            return light.red_s

        if isinstance(self.discharge, VehicleMovementModel):
            a = self.discharge.a_max_ms2
            ramp_s = v_min / a
            # Ramp phase: lam * t = k * a * (t - red)^2 / 2, u = t - red.
            disc = lam * lam + 2.0 * k * a * lam * light.red_s
            u = (lam + math.sqrt(disc)) / (k * a)
            if u <= ramp_s:
                t_star = light.red_s + u
                return t_star if t_star <= light.cycle_s else None
            ramp_vehicles = k * 0.5 * v_min * ramp_s
            t1 = light.red_s + ramp_s
        else:
            ramp_vehicles = 0.0
            t1 = light.red_s

        # Constant-speed phase: lam * t = ramp_vehicles + k*v_min*(t - t1).
        service = k * v_min
        if service <= lam:
            return None
        t_star = (service * t1 - ramp_vehicles) / (service - lam)
        t_star = max(t_star, t1)
        return t_star if t_star <= light.cycle_s else None

    def empty_window(self, arrival_rate_vps: float) -> Optional[Tuple[float, float]]:
        """The in-cycle queue-free window ``[t_star, cycle_end)`` or ``None``."""
        t_star = self.clear_time(arrival_rate_vps)
        if t_star is None or t_star >= self.light.cycle_s:
            return None
        return (t_star, self.light.cycle_s)

    def empty_windows(
        self, start_s: float, horizon_s: float, arrival_rate: ArrivalRate
    ) -> List[QueueWindow]:
        """Absolute queue-free windows over ``[start_s, start_s + horizon_s]``.

        Each cycle is treated independently with the queue empty at its red
        onset — the paper's periodic steady-state assumption.  A callable
        ``arrival_rate`` is sampled at each cycle start, which lets the
        SAE-predicted hourly volumes drive the window placement; a
        constant rate has one in-cycle window, evaluated once per call.
        """
        if horizon_s <= 0:
            raise ValueError(f"horizon must be positive, got {horizon_s}")
        end_s = start_s + horizon_s
        cycle_s = self.light.cycle_s
        varying = callable(arrival_rate)
        in_cycle = None if varying else self.empty_window(arrival_rate)
        windows: List[QueueWindow] = []
        cycle_start = self.light.cycle_start(start_s)
        while cycle_start < end_s:
            if varying:
                in_cycle = self.empty_window(arrival_rate(cycle_start))
            if in_cycle is not None:
                lo = max(cycle_start + in_cycle[0], start_s)
                hi = min(cycle_start + in_cycle[1], end_s)
                if hi > lo:
                    windows.append(QueueWindow(lo, hi))
            cycle_start += cycle_s
        return windows

    # ------------------------------------------------------------------
    # Multi-cycle discrete-time integration (residual queues, varying V_in)
    # ------------------------------------------------------------------
    def simulate(
        self,
        duration_s: float,
        arrival_rate: ArrivalRate,
        dt_s: float = 0.1,
        initial_queue: float = 0.0,
    ) -> "QueueTrace":
        """Integrate the queue forward in time with residual carry-over.

        Unlike the closed form, this handles queues that survive a green
        phase and time-varying arrival rates.  Arrivals during green with
        an empty queue pass through without joining.

        Args:
            duration_s: Simulated horizon (s), starting at absolute t=0.
            arrival_rate: Constant rate (vehicles/s) or callable of time.
            dt_s: Integration step (s).
            initial_queue: Vehicles queued at t=0.

        Returns:
            A :class:`QueueTrace` of sampled times and queue sizes.
        """
        if duration_s <= 0 or dt_s <= 0:
            raise ValueError("duration and dt must be positive")
        if initial_queue < 0:
            raise ValueError(f"initial queue must be >= 0, got {initial_queue}")
        steps = int(round(duration_s / dt_s))
        times = np.arange(steps + 1) * dt_s
        queue = np.empty(steps + 1)
        queue[0] = initial_queue
        q = initial_queue
        for i in range(steps):
            t = times[i]
            rate = arrival_rate(t) if callable(arrival_rate) else arrival_rate
            if rate < 0:
                raise ValueError(f"arrival rate must be >= 0, got {rate} at t={t}")
            green = self.light.is_green(t)
            if green:
                out = self.discharge.leaving_rate(self.light.time_in_cycle(t)) * dt_s
                if q <= 0.0:
                    q = 0.0  # free flow: arrivals roll through
                else:
                    q = max(q + rate * dt_s - out, 0.0)
            else:
                q += rate * dt_s
            queue[i + 1] = q
        return QueueTrace(times=times, vehicles=queue, spacing_m=self.discharge.spacing_m)


@dataclass(frozen=True)
class QueueTrace:
    """A sampled queue trajectory from :meth:`QueueLengthModel.simulate`.

    Attributes:
        times: Sample times (s).
        vehicles: Queue size at each sample (vehicles, fractional).
        spacing_m: Intra-queue spacing used to convert to metres.
    """

    times: np.ndarray
    vehicles: np.ndarray
    spacing_m: float

    @property
    def length_m(self) -> np.ndarray:
        """Queue length in metres at each sample."""
        return self.vehicles * self.spacing_m

    def empty_windows(self, min_duration_s: float = 0.0) -> List[QueueWindow]:
        """Maximal intervals with a zero queue, at the trace resolution."""
        is_empty = self.vehicles <= 1e-9
        windows: List[QueueWindow] = []
        start: Optional[float] = None
        for t, empty in zip(self.times, is_empty):
            if empty and start is None:
                start = float(t)
            elif not empty and start is not None:
                if t - start >= min_duration_s and t > start:
                    windows.append(QueueWindow(start, float(t)))
                start = None
        if start is not None and self.times[-1] > start:
            if self.times[-1] - start >= min_duration_s:
                windows.append(QueueWindow(start, float(self.times[-1])))
        return windows


class BaselineQueueModel(QueueLengthModel):
    """The prior-art QL model [9]: instant queue discharge at ``v_min``.

    Assumes a pre-known arrival rate and no acceleration transient; used as
    the comparison curve in Fig. 5b.
    """

    def __init__(
        self,
        light: TrafficLight,
        v_min_ms: float,
        spacing_m: float = 8.5,
        turn_ratio: float = 1.0,
    ) -> None:
        super().__init__(
            InstantDischargeModel(
                light=light, v_min_ms=v_min_ms, spacing_m=spacing_m, turn_ratio=turn_ratio
            )
        )
