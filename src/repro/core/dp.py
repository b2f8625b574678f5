"""Time-expanded dynamic-programming velocity optimizer (Eq. 7-12).

The paper's DP discretizes the route into equal-distance points ``s_i`` and
searches velocity assignments ``v(s_i)`` minimizing total energy (Eq. 8)
subject to the feasible set (Eq. 7).  Arrival-time constraints at signals
(Eq. 11) make the problem non-Markovian in ``(position, velocity)`` alone —
the time of arrival depends on the whole path prefix (Eq. 10).  We make the
recursion exact by expanding the state to ``(position, velocity, time)``.

Time handling: every state stores its *exact* continuous arrival time; the
time axis is only *binned* to merge near-simultaneous states (one surviving
state per ``(position, velocity, bin)``, the cheapest).  Transition times
are never rounded, so there is no systematic clock drift along a path, and
window membership (Eq. 11) is evaluated against exact times.

Cost model:

* Transition energy follows Eq. 9: the consumption ``zeta`` integrated
  over a constant-acceleration segment, ``+inf`` outside the Eq. 7 set.
* Arrival-time windows apply Eq. 11/12.  ``hard`` mode prunes arrivals
  outside ``T_q`` (the limit of the paper's large-``M`` penalty); ``penalty``
  mode adds a finite penalty instead.  We use an *additive* penalty rather
  than the paper's multiplicative ``M * zeta`` because regenerative braking
  makes some transition energies negative, where a multiplicative penalty
  would perversely reward window violations.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.cost import WindowSet
from repro.core.engine.artifacts import CorridorArtifacts, corridor_digest
from repro.core.engine.stage_kernel import expand_stage, select_labels
from repro.core.engine.store import ArtifactStore
from repro.core.profile import VelocityProfile
from repro.errors import ConfigurationError, InfeasibleProblemError
from repro.route.road import RoadSegment
from repro.signal.queue import QueueWindow
from repro.units import joules_to_mah
from repro.vehicle.dynamics import LongitudinalModel
from repro.vehicle.params import VehicleParams

# servebench/tracing.py wraps these names here; both alias the one kernel pair.
expand_stage_batch = expand_stage
select_labels_batch = select_labels


def _default_pack_voltage_v() -> float:
    """The canonical default pack voltage, derived from the vehicle model.

    :class:`DpSolution` needs a default for solutions constructed without
    an explicit voltage (tests, synthetic fixtures); deriving it from
    :class:`~repro.vehicle.params.VehicleParams` keeps it in lockstep
    with the paper's pack instead of duplicating a hardcoded 399.0 that
    could silently drift from the vehicle defaults.
    """
    return VehicleParams().battery.voltage_v


@dataclass(frozen=True)
class TimeWindowConstraint:
    """Restrict the arrival time at a route position to a set of windows.

    Attributes:
        position_m: Constrained route position (a signal stop line).
        windows: Admissible absolute arrival windows (``T_q`` or green).
        mode: ``"hard"`` prunes out-of-window arrivals; ``"penalty"`` adds
            ``penalty_j`` joules to their cost instead.
        penalty_j: Additive penalty for ``"penalty"`` mode.
    """

    position_m: float
    windows: WindowSet
    mode: str = "hard"
    penalty_j: float = 1.0e9

    def __post_init__(self) -> None:
        if self.mode not in ("hard", "penalty"):
            raise ConfigurationError(f"unknown constraint mode {self.mode!r}")
        if self.penalty_j <= 0:
            raise ConfigurationError(f"penalty must be positive, got {self.penalty_j}")


@dataclass(frozen=True)
class BatchProblem:
    """One full-trip DP problem inside a :meth:`DpSolver.solve_batch` call.

    Attributes:
        constraints: Arrival-window constraints for this problem's
            departure (one per signal, from the planner).
        start_time_s: Absolute departure time at the route source.
        max_trip_time_s: Optional trip-duration cap; ``None`` falls back
            to the solver horizon, exactly like :meth:`DpSolver.solve`.
    """

    constraints: Sequence[TimeWindowConstraint] = ()
    start_time_s: float = 0.0
    max_trip_time_s: Optional[float] = None


@dataclass
class DpSolution:
    """Result of one DP solve.

    Attributes:
        profile: The optimal velocity profile (with stop-sign dwells).
        energy_j: Objective value (J); equals the metered plan energy up to
            discretization, plus penalties in ``"penalty"`` mode.
        trip_time_s: Planned trip duration (s), exact along the DP path.
        signal_arrivals: Arrival instants at each constrained position,
            from the reconstructed profile.
        windows_hit: Whether each arrival falls inside its windows.
        solve_time_s: Wall-clock solver runtime.
        expanded_transitions: Number of (segment, v, v') pairs relaxed.
        pack_voltage_v: Nominal voltage of the pack the solve priced
            energy for; :attr:`energy_mah` converts at this voltage.
    """

    profile: VelocityProfile
    energy_j: float
    trip_time_s: float
    signal_arrivals: Dict[float, float] = field(default_factory=dict)
    windows_hit: Dict[float, bool] = field(default_factory=dict)
    solve_time_s: float = 0.0
    expanded_transitions: int = 0
    pack_voltage_v: float = field(default_factory=_default_pack_voltage_v)

    @property
    def energy_mah(self) -> float:
        """Objective in mAh at the solve's pack voltage (Fig. 7 unit)."""
        return joules_to_mah(self.energy_j, self.pack_voltage_v)

    @property
    def all_windows_hit(self) -> bool:
        """True when every constrained arrival lands inside its window."""
        return all(self.windows_hit.values())


class DpSolver:
    """Forward DP over the ``(position, velocity, time)`` lattice.

    Args:
        road: Corridor with limits, stop signs and boundaries.
        vehicle: EV parameters (paper defaults when ``None``).
        v_step_ms: Velocity grid resolution (m/s).
        s_step_m: Distance grid resolution (m); stop signs and signals are
            snapped in exactly.
        t_bin_s: Time-bin width used to merge near-simultaneous states (s).
        horizon_s: Clock horizon; arrivals beyond it are pruned.  Also the
            default trip-time bound.
        stop_dwell_s: Mandatory stationary dwell at each stop sign (s).
        enforce_min_speed: Apply the Eq. 7a lower bound away from stops.
        velocity_bounds: Optional map from route position (m) to an extra
            ``(v_lo, v_hi)`` admissible band, intersected with the road
            limits.  The coarse-to-fine accelerator uses this to restrict
            the fine search to a corridor around a coarse solution.
        artifacts: Prebuilt :class:`~repro.core.engine.CorridorArtifacts`
            to solve on.  Must match this solver's corridor inputs (the
            content digest is checked); the solver then skips its own
            precomputation entirely.
        store: An :class:`~repro.core.engine.ArtifactStore` to obtain the
            artifacts from (warm hit or one shared build).  Ignored when
            ``artifacts`` is given.  With neither, the solver builds
            privately — the pre-engine behaviour.
        environment: Ambient conditions the energy model prices under
            (:mod:`repro.vehicle.environment`); part of the artifact
            digest.  ``None`` is nominal and bit-identical to the
            historical environment-free solver.
    """

    def __init__(
        self,
        road: RoadSegment,
        vehicle: Optional[VehicleParams] = None,
        v_step_ms: float = 0.5,
        s_step_m: float = 10.0,
        t_bin_s: float = 1.0,
        horizon_s: float = 600.0,
        stop_dwell_s: float = 2.0,
        enforce_min_speed: bool = True,
        velocity_bounds=None,
        artifacts: Optional[CorridorArtifacts] = None,
        store: Optional[ArtifactStore] = None,
        environment=None,
    ) -> None:
        if v_step_ms <= 0 or s_step_m <= 0 or t_bin_s <= 0 or horizon_s <= 0:
            raise ConfigurationError("grid resolutions and horizon must be positive")
        if stop_dwell_s < 0:
            raise ConfigurationError(f"stop dwell must be >= 0, got {stop_dwell_s}")
        self.road = road
        self.vehicle = vehicle if vehicle is not None else VehicleParams()
        self.environment = environment
        self.model = LongitudinalModel(self.vehicle, environment)
        self.v_step_ms = float(v_step_ms)
        self.s_step_m = float(s_step_m)
        self.t_bin_s = float(t_bin_s)
        self.horizon_s = float(horizon_s)
        self.stop_dwell_s = float(stop_dwell_s)
        self.enforce_min_speed = bool(enforce_min_speed)
        self.velocity_bounds = velocity_bounds
        self.store = store

        with obs.get_registry().span("dp.table_build") as span:
            reused = artifacts is not None or store is not None
            if artifacts is not None:
                expected = corridor_digest(
                    road,
                    self.vehicle,
                    v_step_ms=self.v_step_ms,
                    s_step_m=self.s_step_m,
                    stop_dwell_s=self.stop_dwell_s,
                    enforce_min_speed=self.enforce_min_speed,
                    environment=environment,
                )
                if artifacts.digest != expected:
                    raise ConfigurationError(
                        "corridor artifacts were built for different inputs "
                        f"(digest {artifacts.digest} != expected {expected})"
                    )
            elif store is not None:
                artifacts = store.get_or_build(
                    road,
                    self.vehicle,
                    v_step_ms=self.v_step_ms,
                    s_step_m=self.s_step_m,
                    stop_dwell_s=self.stop_dwell_s,
                    enforce_min_speed=self.enforce_min_speed,
                    environment=environment,
                )
            else:
                artifacts = CorridorArtifacts.build(
                    road,
                    self.vehicle,
                    v_step_ms=self.v_step_ms,
                    s_step_m=self.s_step_m,
                    stop_dwell_s=self.stop_dwell_s,
                    enforce_min_speed=self.enforce_min_speed,
                    environment=environment,
                )
            self.artifacts = artifacts
            self.positions = artifacts.positions
            self.v_grid = artifacts.v_grid
            self._dwell_at = artifacts.dwell_at
            self._min_time_to_go = artifacts.min_time_to_go
            if velocity_bounds is None:
                self._allowed = artifacts.allowed
                self._pairs = artifacts.pairs
            else:
                # A solver-local band cannot live in shared artifacts; the
                # base masks are intersected here and the shared pairs
                # filtered down to the band.
                self._allowed = artifacts.restrict_allowed(velocity_bounds)
                self._pairs = artifacts.pairs_for(self._allowed)
            span.add(
                segments=artifacts.n_segments,
                velocity_levels=int(self.v_grid.size),
                artifacts_reused=int(reused),
            )

    @property
    def unconstrained_min_time_s(self) -> float:
        """Lower bound on any trip: the fastest feasible traversal of the
        whole corridor ignoring signal windows (stop-sign dwells included).
        """
        return float(self._min_time_to_go[0])

    # ------------------------------------------------------------------
    # Solve
    # ------------------------------------------------------------------
    def solve(
        self,
        constraints: Sequence[TimeWindowConstraint] = (),
        start_time_s: float = 0.0,
        max_trip_time_s: Optional[float] = None,
        minimize: str = "energy",
        start_state: Optional[Tuple[float, float]] = None,
    ) -> DpSolution:
        """Run the forward DP and reconstruct the optimal profile.

        Args:
            constraints: Arrival-time window constraints (one per signal).
            start_time_s: Absolute departure time at the source (or at the
                ``start_state`` position when replanning mid-route).
            max_trip_time_s: Optional trip-duration cap; defaults to the
                solver horizon.
            minimize: ``"energy"`` (Eq. 8, the default) or ``"time"`` —
                the latter finds the fastest constraint-feasible trip,
                useful for calibrating achievable trip-time budgets.
            start_state: Optional mid-route initial state ``(position_m,
                speed_ms)`` for online replanning: the DP starts at the
                first grid point at/after the position, seeded with the
                nearest admissible grid velocity, and the returned profile
                covers only the remaining route.  ``None`` plans the whole
                trip from rest at the source (Eq. 7d).

        Raises:
            InfeasibleProblemError: No path satisfies all constraints
                within the horizon.
        """
        if minimize not in ("energy", "time"):
            raise ConfigurationError(f"unknown objective {minimize!r}")
        return self._solve_in_span(
            constraints, start_time_s, max_trip_time_s, minimize, start_state
        )

    def solve_batch(
        self,
        problems: Sequence[BatchProblem],
        minimize: str = "energy",
    ) -> List[Union[DpSolution, InfeasibleProblemError]]:
        """Solve independent full-trip problems, one :meth:`solve` each.

        Each slot holds what a :meth:`solve` with the same arguments
        returns.  An infeasible problem does not poison its batch: its
        slot holds the :class:`InfeasibleProblemError` that solve would
        have raised (message included), while the other problems
        complete.  Configuration errors (bad caps, off-grid constraint
        positions) still raise for the whole call — they are caller
        bugs, not data outcomes.
        """
        if minimize not in ("energy", "time"):
            raise ConfigurationError(f"unknown objective {minimize!r}")
        outcomes: List[Union[DpSolution, InfeasibleProblemError]] = []
        for problem in problems:
            try:
                outcomes.append(
                    self._solve_in_span(
                        problem.constraints,
                        problem.start_time_s,
                        problem.max_trip_time_s,
                        minimize,
                        None,
                    )
                )
            except InfeasibleProblemError as exc:
                outcomes.append(exc)
        return outcomes

    def _solve_in_span(
        self,
        constraints: Sequence[TimeWindowConstraint],
        start_time_s: float,
        max_trip_time_s: Optional[float],
        minimize: str,
        start_state: Optional[Tuple[float, float]],
    ) -> DpSolution:
        """One DP solve inside its ``dp.solve`` span."""
        registry = obs.get_registry()
        with registry.span("dp.solve", objective=minimize) as span:
            try:
                solution = self._solve(
                    registry,
                    constraints,
                    start_time_s,
                    max_trip_time_s,
                    minimize,
                    start_state,
                )
            except InfeasibleProblemError:
                span.add(infeasible=1)
                raise
            span.add(expanded_transitions=solution.expanded_transitions)
            return solution

    def _solve(
        self,
        registry: obs.MetricsRegistry,
        constraints: Sequence[TimeWindowConstraint],
        start_time_s: float,
        max_trip_time_s: Optional[float],
        minimize: str,
        start_state: Optional[Tuple[float, float]],
    ) -> DpSolution:
        """The DP proper; ``_solve_in_span`` wraps it in the ``dp.solve`` span."""
        t0 = _time.perf_counter()
        with registry.span("setup"):
            trip_cap = max_trip_time_s if max_trip_time_s is not None else self.horizon_s
            if trip_cap <= 0:
                raise ConfigurationError(f"trip-time cap must be positive, got {trip_cap}")
            trip_cap = min(trip_cap, self.horizon_s)
            n_pts = self.positions.size
            i0, j0, seed_time = self._seed_state(start_state, start_time_s)

            constraint_at: Dict[int, TimeWindowConstraint] = {}
            for constraint in constraints:
                idx = int(np.argmin(np.abs(self.positions - constraint.position_m)))
                if abs(self.positions[idx] - constraint.position_m) > self.s_step_m:
                    raise ConfigurationError(
                        f"constraint position {constraint.position_m} m is not on the grid"
                    )
                constraint_at[idx] = constraint

        # Flat label lists per route point.  A label is (velocity index,
        # exact arrival time, exact cost-to-come, back-pointer into the
        # previous point's label list).
        lab_v = np.asarray([j0], dtype=np.int16)
        lab_t = np.asarray([seed_time])
        lab_c = np.asarray([0.0])
        prev_of: List[np.ndarray] = []
        v_of: List[np.ndarray] = [lab_v]
        expanded = 0
        pairs = self._pairs
        cap_slack = trip_cap + 1e-9

        for i in range(i0, n_pts - 1):
            with registry.span("expand") as expand_span:
                # Expand every (source label, feasible successor)
                # combination through the pure stage kernel.
                offsets = pairs.offsets[i]
                src, cj2, cc, ct = expand_stage(
                    lab_v, lab_t, lab_c, offsets, pairs.j2, pairs.energy_j, pairs.dt_s
                )
                if src.size == 0:
                    segment = (
                        f"segment {i} "
                        f"({self.positions[i]:.0f}-{self.positions[i + 1]:.0f} m)"
                    )
                    if offsets[0] == offsets[-1]:
                        raise InfeasibleProblemError(f"no feasible transition over {segment}")
                    raise InfeasibleProblemError(f"all labels stranded entering {segment}")
                expanded += src.size
                expand_span.add(transitions=int(src.size))

                # Time is monotone along a path, so prune any label that could
                # not reach the destination inside the cap even at the fastest
                # feasible continuation (admissible suffix bound).  The bound
                # is monotone in the arrival time, so when the latest
                # candidate passes, they all do.
                to_go = self._min_time_to_go[i + 1]
                target = constraint_at.get(i + 1)
                keep = None  # every candidate survives
                if target is not None or ct.max() - start_time_s + to_go > cap_slack:
                    keep = ct - start_time_s + to_go <= cap_slack
                    if target is not None:
                        ok = target.windows.contains(ct)
                        if target.mode == "hard":
                            keep &= ok
                        else:
                            cc = np.where(ok, cc, cc + target.penalty_j)
                    if keep.all():
                        keep = None
                if keep is not None:
                    kept = keep.nonzero()[0]
                    if kept.size == 0:
                        raise InfeasibleProblemError(
                            f"no label survives into {self.positions[i + 1]:.0f} m; "
                            "windows or horizon are too tight"
                        )
                    src, cj2, cc, ct = src[kept], cj2[kept], cc[kept], ct[kept]

            with registry.span("select") as select_span:
                # Label selection per (v', time bin): keep BOTH the cheapest
                # candidate and the earliest candidate (see select_labels).
                sel = select_labels(cj2, cc, ct, start_time_s, self.t_bin_s)

                prev_of.append(src[sel].astype(np.int32))
                lab_v = cj2[sel].astype(np.int16)
                lab_t = ct[sel]
                lab_c = cc[sel]
                v_of.append(lab_v)
                select_span.add(labels=int(sel.size))

        # Destination: mandatory v = 0 (Eq. 7d), trip time within the cap.
        at_rest = lab_v == 0
        in_cap = lab_t - start_time_s <= trip_cap + 1e-9
        ok_final = at_rest & in_cap
        if not ok_final.any():
            raise InfeasibleProblemError(
                "no feasible profile: horizon, windows or limits are too tight"
            )
        candidates = np.flatnonzero(ok_final)
        objective = lab_c if minimize == "energy" else lab_t
        best = candidates[int(np.argmin(objective[candidates]))]
        best_cost = float(lab_c[best])
        trip_time = float(lab_t[best] - start_time_s)

        with registry.span("backtrack"):
            speeds = self._backtrack(prev_of, v_of, int(best))
            profile = VelocityProfile(
                positions_m=self.positions[i0:],
                speeds_ms=speeds,
                dwell_s=self._dwell_at[i0:],
                start_time_s=seed_time,
            )
            arrivals: Dict[float, float] = {}
            hits: Dict[float, bool] = {}
            for idx, constraint in constraint_at.items():
                if idx < i0:
                    continue  # already passed this signal before replanning
                t_arr = float(profile.arrival_times_s[idx - i0])
                arrivals[constraint.position_m] = t_arr
                hits[constraint.position_m] = t_arr in constraint.windows
        return DpSolution(
            profile=profile,
            energy_j=best_cost,
            trip_time_s=trip_time,
            signal_arrivals=arrivals,
            windows_hit=hits,
            solve_time_s=_time.perf_counter() - t0,
            expanded_transitions=expanded,
            pack_voltage_v=self.vehicle.battery.voltage_v,
        )

    def _seed_state(
        self, start_state: Optional[Tuple[float, float]], start_time_s: float
    ) -> Tuple[int, int, float]:
        """Resolve the initial DP label: (grid index, velocity index, time).

        A whole-trip solve seeds (source, v=0, departure time).  A
        replanning solve snaps the physical state onto the grid: the first
        grid point at or after the position, the nearest admissible grid
        velocity there, and the time adjusted by the short hop from the
        physical position to that grid point at the current speed.

        A position strictly inside the final segment snaps *backwards* to
        that segment's start instead — snapping forward would land on the
        destination with zero segments left to expand, and a profile needs
        at least two points.  The backward hop is free, which is
        conservative: the plan re-covers the few already-driven metres.
        """
        if start_state is None:
            return 0, 0, start_time_s
        position_m, speed_ms = start_state
        if speed_ms < 0:
            raise ConfigurationError(f"speed must be >= 0, got {speed_ms}")
        if not 0.0 <= position_m < self.positions[-1]:
            raise ConfigurationError(
                f"replanning position {position_m} m is outside the route"
            )
        i0 = int(np.searchsorted(self.positions, position_m - 1e-9))
        i0 = min(i0, self.positions.size - 2)
        allowed = np.flatnonzero(self._allowed[i0])
        j0 = int(allowed[np.argmin(np.abs(self.v_grid[allowed] - speed_ms))])
        hop_m = float(self.positions[i0] - position_m)
        if hop_m <= 1e-9:
            return i0, j0, start_time_s
        # Reference speed for the hop: the mean of the endpoint speeds,
        # floored by what a launch at a_max would average over the hop —
        # a stopped vehicle snapping onto a stop-point seed must not be
        # charged a near-infinite crawl.
        launch_avg = 0.5 * np.sqrt(self.vehicle.max_accel_ms2 * hop_m)
        hop_speed = max(0.5 * (speed_ms + self.v_grid[j0]), launch_avg, 0.1)
        return i0, j0, start_time_s + hop_m / hop_speed

    def _backtrack(
        self, prev_of: List[np.ndarray], v_of: List[np.ndarray], final_label: int
    ) -> np.ndarray:
        """Recover the velocity sequence by walking label back-pointers."""
        speeds = np.empty(len(v_of))
        label = final_label
        speeds[-1] = self.v_grid[int(v_of[-1][label])]
        for i in range(len(prev_of) - 1, -1, -1):
            label = int(prev_of[i][label])
            speeds[i] = self.v_grid[int(v_of[i][label])]
        if label != 0:
            raise InfeasibleProblemError("backtrack did not terminate at the seed state")
        return speeds


def green_windows_for_signal(light, start_s: float, horizon_s: float) -> List[QueueWindow]:
    """All green windows of a light over a horizon, as queue windows.

    This is the arrival set used by the *baseline* DP [2], which assumes a
    green signal can be crossed instantly regardless of any queue.
    """
    return [QueueWindow(a, b) for a, b in light.green_windows(horizon_s, start_s)]
