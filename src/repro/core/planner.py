"""High-level planners: the paper's proposed system and its baselines.

Three planners share one DP engine and differ only in the arrival-time
windows they impose at signalized intersections:

* :class:`UnconstrainedDpPlanner` — ignores signals altogether (the
  single-intersection prior art [1][3] applied naively to a corridor);
  the plan respects stop signs and limits only.
* :class:`BaselineDpPlanner` — the existing DP [2]: arrivals must fall in
  *green* windows, assuming a green light can be crossed instantly even if
  a queue is discharging (the assumption the paper attacks).
* :class:`QueueAwareDpPlanner` — the proposed system: arrivals must fall
  in the QL model's queue-free windows ``T_q`` (Eq. 11), built from the
  predicted arrival rate (SAE) and the VM discharge model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.cost import WindowSet
from repro.core.dp import BatchProblem, DpSolution, DpSolver, TimeWindowConstraint
from repro.core.engine import ArtifactStore
from repro.core.profile import VelocityProfile
from repro.errors import ConfigurationError, InfeasibleProblemError
from repro.route.road import RoadSegment, SignalSite
from repro.signal.queue import QueueLengthModel, QueueWindow
from repro.signal.vm import VehicleMovementModel
from repro.vehicle.params import VehicleParams

ArrivalRate = Union[float, Callable[[float], float]]
ArrivalRates = Union[ArrivalRate, Mapping[float, ArrivalRate]]


@dataclass(frozen=True)
class PlannerConfig:
    """Shared discretization and constraint settings for all planners.

    Attributes:
        v_step_ms: Velocity grid resolution (m/s).
        s_step_m: Distance grid resolution (m).
        t_bin_s: DP time-bin width (s).
        horizon_s: Clock horizon / default trip-time cap (s).
        stop_dwell_s: Mandatory dwell at stop signs (s).
        window_margin_s: Safety margin subtracted from each end of every
            arrival window to absorb time quantization drift.
        constraint_mode: ``"hard"`` or ``"penalty"`` (Eq. 12 behaviour).
        penalty_j: Additive penalty in ``"penalty"`` mode (J).
        enforce_min_speed: Apply the Eq. 7a lower bound away from stops.
    """

    v_step_ms: float = 0.5
    s_step_m: float = 10.0
    t_bin_s: float = 1.0
    horizon_s: float = 600.0
    stop_dwell_s: float = 2.0
    window_margin_s: float = 2.0
    constraint_mode: str = "hard"
    penalty_j: float = 1.0e9
    enforce_min_speed: bool = True

    def __post_init__(self) -> None:
        if self.window_margin_s < 0:
            raise ConfigurationError(
                f"window margin must be >= 0, got {self.window_margin_s}"
            )
        if self.constraint_mode not in ("hard", "penalty"):
            raise ConfigurationError(f"unknown constraint mode {self.constraint_mode!r}")


class DpPlannerBase:
    """Common solver plumbing shared by the planners.

    Subclasses implement :meth:`_signal_windows`, one signal's arrival
    windows; everything else — constraints, revalidation, planning,
    replanning, trip-time floors — lives here.  Service layers
    (the cloud planner, the closed-loop driver) accept any instance.
    """

    def __init__(
        self,
        road: RoadSegment,
        vehicle: Optional[VehicleParams] = None,
        config: Optional[PlannerConfig] = None,
        store: Optional[ArtifactStore] = None,
        environment=None,
    ) -> None:
        self.road = road
        self.vehicle = vehicle if vehicle is not None else VehicleParams()
        self.config = config if config is not None else PlannerConfig()
        self.store = store
        self.environment = environment
        self.solver = DpSolver(
            road=road,
            vehicle=self.vehicle,
            v_step_ms=self.config.v_step_ms,
            s_step_m=self.config.s_step_m,
            t_bin_s=self.config.t_bin_s,
            horizon_s=self.config.horizon_s,
            stop_dwell_s=self.config.stop_dwell_s,
            enforce_min_speed=self.config.enforce_min_speed,
            store=store,
            environment=environment,
        )

    def _signal_windows(
        self, site: SignalSite, start_time_s: float, horizon_s: float
    ) -> WindowSet:
        """One signal's raw (unshrunk) arrival windows over a horizon."""
        raise NotImplementedError

    def _window_margin_s(self) -> float:
        """The shrink applied to every arrival window (s)."""
        return self.config.window_margin_s

    def _signal_constraints(
        self, start_time_s: float
    ) -> Sequence[TimeWindowConstraint]:
        return [
            self._constraint_from_windows(
                site,
                self._signal_windows(site, start_time_s, self.config.horizon_s),
            )
            for site in self.road.signals
        ]

    def signal_constraints(
        self, start_time_s: float
    ) -> Sequence[TimeWindowConstraint]:
        """The arrival-window constraints a plan from ``start_time_s`` obeys.

        Exposed so service layers can audit a plan against the windows
        it was solved against without running the DP.
        """
        return self._signal_constraints(start_time_s)

    def arrivals_in_windows(
        self, profile: VelocityProfile, start_time_s: float
    ) -> bool:
        """Whether each signal arrival of ``profile`` lies in its window.

        Decides exactly what testing every arrival against
        :meth:`signal_constraints` at ``start_time_s`` decides, but builds
        each signal's windows only up to a cut horizon
        ``min(horizon_s, arrival - start_time_s + margin + 2 * cycle_s)``.
        The cloud cache uses it to revalidate a phase-shifted hit.

        Why the cut cannot change the answer: the windows come from the
        same constructor as the full build, with the same float operations
        in the same order.  Cycle starts advance by repeated
        ``+= cycle_s`` from the same first cycle, each window is clamped
        to ``[start, start + horizon]`` and touching windows merge left to
        right.  So every raw window that ends by the cut end ``E`` is
        bit-identical to the full build's, and only the last one can
        differ: it may be clamped at ``E`` where the full build runs on,
        or merge with later windows.  That changes the last merged window
        only past ``E - margin`` after the shrink, and windows of later
        cycles start at or after ``E``.  The cut puts ``E - margin`` about
        two cycles past the arrival, far beyond rounding.  So the arrival
        falls in the same shrunk window, or in none, with the same
        ``1e-9`` collapse test, in both builds.  Where the full horizon
        ends before that point, ``min`` keeps the full horizon and the
        two builds are the same call.
        """
        horizon_s = self.config.horizon_s
        margin_s = self._window_margin_s()
        for site in self.road.signals:
            arrival = profile.arrival_time_at(site.position_m)
            cut_s = min(
                horizon_s,
                arrival - start_time_s + margin_s + 2.0 * site.light.cycle_s,
            )
            windows = self._signal_windows(site, start_time_s, cut_s)
            if arrival not in windows.shrunk(margin_s):
                return False
        return True

    def plan(
        self,
        start_time_s: float = 0.0,
        max_trip_time_s: Optional[float] = None,
        minimize: str = "energy",
    ) -> DpSolution:
        """Compute the optimal profile departing at ``start_time_s``."""
        return self.solver.solve(
            constraints=self._signal_constraints(start_time_s),
            start_time_s=start_time_s,
            max_trip_time_s=max_trip_time_s,
            minimize=minimize,
        )

    def replan(
        self,
        position_m: float,
        speed_ms: float,
        time_s: float,
        max_trip_time_s: Optional[float] = None,
        minimize: str = "energy",
    ) -> DpSolution:
        """Re-optimize the rest of the trip from a mid-route state.

        This is the online (TraCI-style) loop: after traffic interference
        knocks the EV off its plan, a fresh profile from the current
        ``(position, speed, time)`` restores window targeting for the
        signals still ahead.
        """
        return self.solver.solve(
            constraints=self._signal_constraints(time_s),
            start_time_s=time_s,
            max_trip_time_s=max_trip_time_s,
            minimize=minimize,
            start_state=(position_m, speed_ms),
        )

    def plan_batch(
        self,
        specs: Sequence[Tuple[float, Optional[float]]],
        minimize: str = "energy",
    ) -> List[Union[DpSolution, InfeasibleProblemError]]:
        """Solve many full-trip plans, one serial DP solve each.

        Args:
            specs: ``(start_time_s, max_trip_time_s)`` per plan;
                ``max_trip_time_s`` may be ``None`` (horizon default).
            minimize: Shared objective for the whole batch.

        Returns:
            One entry per spec, in order: the :class:`DpSolution` a
            :meth:`plan` with the same arguments returns, or the
            :class:`InfeasibleProblemError` it would have raised.
        """
        problems = [
            BatchProblem(
                constraints=self._signal_constraints(start_time_s),
                start_time_s=start_time_s,
                max_trip_time_s=max_trip_time_s,
            )
            for start_time_s, max_trip_time_s in specs
        ]
        return self.solver.solve_batch(problems, minimize=minimize)

    #: Slack over the unconstrained lower bound when capping a min-time
    #: (budget-calibration) solve: one worst-case signal wait (the longest
    #: common cycle in the corridor catalog is 60 s) plus margin for
    #: queue-shrunk windows and time quantization.  The cap only narrows
    #: the DP's search to trips at most that far above the physical
    #: floor — any fastest trip inside the cap is found as usual, and an
    #: infeasible capped solve falls back to the full horizon, so the
    #: result never silently degrades.
    MIN_TIME_CAP_SLACK_S = 90.0

    def _min_time_cap(self) -> float:
        return self.solver.unconstrained_min_time_s + self.MIN_TIME_CAP_SLACK_S

    def min_trip_time(self, start_time_s: float = 0.0) -> float:
        """The fastest constraint-feasible trip duration from a departure.

        Experiments use this to pick an achievable trip-time budget when a
        reference human drive threaded the signals faster than the plan's
        windows allow (e.g. the queue-free windows start a few seconds
        into each green).

        The solve is capped at the unconstrained traversal bound plus
        :attr:`MIN_TIME_CAP_SLACK_S` — a far smaller label lattice than
        the full horizon — and falls back to an uncapped solve when no
        trip fits under the cap.  That is not rare: a departure whose
        windows hold its fastest trip above the cap pays both solves.
        In one cold_fleet round of the serving benchmark (seed 1, 1 m/s
        and 25 m grid), 2 of the 15 departures, both on elm-street (cap
        279.2 s; fastest trips 287.6 and 299.9 s), failed the capped
        solve after 83 of its 104 stages (17-21 ms each) and then paid
        the uncapped one (45-52 ms each): about 137 ms of a 0.9-1.2 s
        round.
        """
        cap = self._min_time_cap()
        try:
            return self.plan(
                start_time_s=start_time_s, max_trip_time_s=cap, minimize="time"
            ).trip_time_s
        except InfeasibleProblemError:
            return self.plan(start_time_s=start_time_s, minimize="time").trip_time_s

    def min_trip_time_batch(
        self, departures: Sequence[float]
    ) -> List[Union[float, InfeasibleProblemError]]:
        """:meth:`min_trip_time` per departure, failures kept in their slots.

        A departure that is infeasible even at the full horizon yields
        the :class:`InfeasibleProblemError` :meth:`min_trip_time` would
        have raised, without poisoning the rest of the batch.
        """
        outcomes: List[Union[float, InfeasibleProblemError]] = []
        for depart in departures:
            try:
                outcomes.append(self.min_trip_time(depart))
            except InfeasibleProblemError as exc:
                outcomes.append(exc)
        return outcomes

    def _constraint_from_windows(
        self, site: SignalSite, windows: WindowSet
    ) -> TimeWindowConstraint:
        return TimeWindowConstraint(
            position_m=site.position_m,
            windows=windows.shrunk(self._window_margin_s()),
            mode=self.config.constraint_mode,
            penalty_j=self.config.penalty_j,
        )


class UnconstrainedDpPlanner(DpPlannerBase):
    """Energy-optimal DP that ignores signal timing entirely."""

    def _signal_constraints(self, start_time_s: float) -> Sequence[TimeWindowConstraint]:
        return ()

    def arrivals_in_windows(
        self, profile: VelocityProfile, start_time_s: float
    ) -> bool:
        return True


class BaselineDpPlanner(DpPlannerBase):
    """The existing DP [2]: hit green windows, ignore queues.

    This planner reproduces the comparison system of Section III-B-3: it
    schedules signal arrivals into green phases but assumes vehicles
    waiting at the light vanish instantly, so its plans routinely arrive
    while a queue is still discharging (Fig. 6a).
    """

    def _signal_windows(
        self, site: SignalSite, start_time_s: float, horizon_s: float
    ) -> WindowSet:
        green = site.light.green_windows(horizon_s, start_time_s)
        return WindowSet([QueueWindow(a, b) for a, b in green])


class QueueAwareDpPlanner(DpPlannerBase):
    """The proposed system: hit the queue-free windows ``T_q`` (Eq. 11).

    Args:
        road: Corridor; each signal site carries spacing/turn-ratio data.
        arrival_rates: Predicted arrival rate(s) in vehicles/second — a
            single value or callable for every signal, or a mapping from
            signal position to a per-signal value/callable.  Callables are
            evaluated at cycle starts, which is how the SAE hourly volume
            forecast plugs in.
        vehicle: EV parameters (paper defaults when ``None``).
        config: Discretization settings.
        store: Optional shared :class:`~repro.core.engine.ArtifactStore`;
            when given, the corridor precomputation is served from (and
            kept in) the store instead of rebuilt per planner.
        environment: Ambient conditions the energy model prices under
            (``None`` is nominal, bit-identical to the historical path).
    """

    def __init__(
        self,
        road: RoadSegment,
        arrival_rates: ArrivalRates,
        vehicle: Optional[VehicleParams] = None,
        config: Optional[PlannerConfig] = None,
        store: Optional[ArtifactStore] = None,
        environment=None,
    ) -> None:
        super().__init__(road, vehicle, config, store=store, environment=environment)
        self.arrival_rates = arrival_rates
        self._queue_models: Dict[float, QueueLengthModel] = {}
        for site in road.signals:
            v_min = road.v_min_at(site.position_m)
            if v_min <= 0:
                raise ConfigurationError(
                    f"signal at {site.position_m} m needs a positive zone v_min for the VM model"
                )
            vm = VehicleMovementModel(
                light=site.light,
                v_min_ms=v_min,
                a_max_ms2=self.vehicle.max_accel_ms2,
                spacing_m=site.queue_spacing_m,
                turn_ratio=site.turn_ratio,
            )
            self._queue_models[site.position_m] = QueueLengthModel(vm)

    def queue_model(self, position_m: float) -> QueueLengthModel:
        """The QL model attached to a signal position (for inspection)."""
        return self._queue_models[position_m]

    def _rate_for(self, site: SignalSite) -> ArrivalRate:
        if isinstance(self.arrival_rates, Mapping):
            try:
                return self.arrival_rates[site.position_m]
            except KeyError as exc:
                raise ConfigurationError(
                    f"no arrival rate supplied for signal at {site.position_m} m"
                ) from exc
        return self.arrival_rates

    def _signal_windows(
        self, site: SignalSite, start_time_s: float, horizon_s: float
    ) -> WindowSet:
        queue_free = self._queue_models[site.position_m].empty_windows(
            start_s=start_time_s,
            horizon_s=horizon_s,
            arrival_rate=self._rate_for(site),
        )
        return WindowSet(queue_free)
