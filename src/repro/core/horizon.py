"""Receding-horizon (MPC-style) replanning over warm corridor artifacts.

The full-horizon DP plans the whole corridor once and the closed-loop
driver replans only when the drive diverges.  Under forecast uncertainty
that is brittle: a drifted signal or a stale volume forecast is only
discovered at the stop bar.  The MPC discipline replans *every cycle*
from the current state, so each plan only has to be right about the near
future — the far windows are re-forecast before the EV reaches them.

:class:`RecedingHorizonPlanner` wraps any
:class:`~repro.core.planner.DpPlannerBase` (typically the
chance-constrained planner from :mod:`repro.core.uncertainty`) and adds
two things:

* **Optional constraint truncation.**  With ``lookahead_s`` set, a
  replan only carries the signal constraints optimistically reachable
  within the lookahead, measured by the corridor artifacts'
  ``min_time_to_go`` bound — an admissible estimate, so a constraint is
  only dropped when the EV *cannot* reach it inside the lookahead even
  driving flat out.  Far windows are re-imposed by later cycles, which
  is exactly when their forecasts are fresh.  With the default
  ``lookahead_s=None`` nothing is truncated and every plan is
  bit-identical to the inner planner's.
* **Typed cycle failure.**  A replan that comes back infeasible retries
  as a minimum-time solve (dropping the energy budget, keeping the
  windows); if that also fails, the cycle raises
  :class:`~repro.errors.PlanningFailedError` so the caller's policy
  applies — the degradation ladder falls through its tiers and the
  closed-loop driver keeps the previous (still roughly right) command.
* **Opt-in penalty fallback** (``soften_infeasible=True``).  On roads
  with a minimum flow speed a hard cycle can be *phase-infeasible*: the
  clock phase puts the next queue-free window just past the latest
  reachable arrival (the EV cannot dawdle below ``v_min``), so the hard
  program has no solution at any budget.  The fallback re-solves with
  the windows softened into penalties, targeting every window it can
  make and eating the penalty on the one it cannot.  This is for
  *unsupervised, direct* serving where the alternative is an error to
  the vehicle.  It stays off by default because in the supervised
  ladder stack it is counterproductive twice over: the safety
  supervisor rejects out-of-window plans anyway, and a typed failure
  there lets the driver keep its previous command — measured across
  the drift sweep, strictly fewer missed windows than following
  penalty or queue-blind fallback plans.

The wrapper delegates the full planner surface the serving stack uses
(``road``/``vehicle``/``config``/``store``/``solver``,
``signal_constraints``, ``arrivals_in_windows``, ``plan_batch``,
``min_trip_time``, ``min_trip_time_batch``), so it can be dropped into
:class:`~repro.cloud.service.CloudPlannerService` unchanged — mid-route
MPC cycles then ride the warm-artifact replan path end to end.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dp import DpSolution, TimeWindowConstraint
from repro.core.planner import DpPlannerBase
from repro.core.profile import VelocityProfile
from repro.errors import (
    ConfigurationError,
    InfeasibleProblemError,
    PlanningFailedError,
)

__all__ = ["RecedingHorizonPlanner"]


class RecedingHorizonPlanner:
    """MPC-style wrapper: replan every cycle, optionally truncated.

    Args:
        inner: The planner whose constraints and solver do the work.
        lookahead_s: Optimistic-reachability window for replan
            constraints (s); ``None`` keeps every constraint and makes
            the wrapper's plans bit-identical to ``inner``'s.
        cycle_s: The intended replanning period (s).  The wrapper does
            not schedule itself — the closed-loop driver owns the clock —
            but tiers and experiments read this to drive the MPC cadence.
        soften_infeasible: Retry a doubly-infeasible cycle with the
            windows softened into penalties instead of failing typed
            (see the module docstring for when this is and is not the
            right policy).  Off by default.
    """

    def __init__(
        self,
        inner: DpPlannerBase,
        lookahead_s: Optional[float] = None,
        cycle_s: float = 10.0,
        soften_infeasible: bool = False,
    ) -> None:
        if lookahead_s is not None and lookahead_s <= 0:
            raise ConfigurationError(f"lookahead must be > 0 s, got {lookahead_s}")
        if cycle_s <= 0:
            raise ConfigurationError(f"cycle must be > 0 s, got {cycle_s}")
        self.inner = inner
        self.lookahead_s = None if lookahead_s is None else float(lookahead_s)
        self.cycle_s = float(cycle_s)
        self.soften_infeasible = bool(soften_infeasible)

    # ------------------------------------------------------------------
    # Delegated surface (what CloudPlannerService touches)
    # ------------------------------------------------------------------
    @property
    def road(self):
        return self.inner.road

    @property
    def vehicle(self):
        return self.inner.vehicle

    @property
    def config(self):
        return self.inner.config

    @property
    def store(self):
        return self.inner.store

    @property
    def solver(self):
        return self.inner.solver

    def signal_constraints(
        self, start_time_s: float
    ) -> Sequence[TimeWindowConstraint]:
        """The inner planner's *full* constraint set (no truncation).

        Service-side plan audits must see every window a profile
        crosses, so truncation only applies to :meth:`replan`.
        """
        return self.inner.signal_constraints(start_time_s)

    def arrivals_in_windows(
        self, profile: VelocityProfile, start_time_s: float
    ) -> bool:
        """The inner planner's revalidation, over every signal."""
        return self.inner.arrivals_in_windows(profile, start_time_s)

    def plan(
        self,
        start_time_s: float = 0.0,
        max_trip_time_s: Optional[float] = None,
        minimize: str = "energy",
    ) -> DpSolution:
        """The departure plan: full horizon, identical to ``inner.plan``."""
        return self.inner.plan(
            start_time_s=start_time_s,
            max_trip_time_s=max_trip_time_s,
            minimize=minimize,
        )

    def plan_batch(
        self,
        specs: Sequence[Tuple[float, Optional[float]]],
        minimize: str = "energy",
    ) -> List[Union[DpSolution, InfeasibleProblemError]]:
        return self.inner.plan_batch(specs, minimize=minimize)

    def min_trip_time(self, start_time_s: float = 0.0) -> float:
        return self.inner.min_trip_time(start_time_s=start_time_s)

    def min_trip_time_batch(
        self, departures: Sequence[float]
    ) -> List[Union[float, InfeasibleProblemError]]:
        return self.inner.min_trip_time_batch(departures)

    # ------------------------------------------------------------------
    # The MPC cycle
    # ------------------------------------------------------------------
    def reachable_within_lookahead(
        self, position_m: float, constraint_position_m: float
    ) -> bool:
        """Whether a constraint is optimistically reachable this cycle.

        Uses the artifacts' ``min_time_to_go`` lower bound: the fastest
        possible travel time between the two route points is
        ``mtg[here] - mtg[there]``.  Admissible, so ``False`` means the
        EV physically cannot arrive inside the lookahead.
        """
        if self.lookahead_s is None:
            return True
        positions = self.inner.solver.positions
        mtg = self.inner.solver._min_time_to_go
        i0 = int(np.searchsorted(positions, position_m, side="right")) - 1
        i0 = max(i0, 0)
        idx = min(
            int(np.searchsorted(positions, constraint_position_m)),
            len(positions) - 1,
        )
        return float(mtg[i0] - mtg[idx]) <= self.lookahead_s

    def _truncated(
        self, constraints: Sequence[TimeWindowConstraint], position_m: float
    ) -> List[TimeWindowConstraint]:
        return [
            c
            for c in constraints
            if c.position_m <= position_m
            or self.reachable_within_lookahead(position_m, c.position_m)
        ]

    @staticmethod
    def _softened(
        constraints: Sequence[TimeWindowConstraint],
    ) -> List[TimeWindowConstraint]:
        """The same windows as penalties instead of hard feasibility."""
        return [
            TimeWindowConstraint(
                position_m=c.position_m,
                windows=c.windows,
                mode="penalty",
                penalty_j=c.penalty_j,
            )
            for c in constraints
        ]

    def replan(
        self,
        position_m: float,
        speed_ms: float,
        time_s: float,
        max_trip_time_s: Optional[float] = None,
        minimize: str = "energy",
    ) -> DpSolution:
        """One MPC cycle: re-solve from the current state.

        Constraints behind the EV or beyond the lookahead are dropped
        (see :meth:`reachable_within_lookahead`).  An infeasible solve
        retries minimum-time at the full horizon; with
        ``soften_infeasible`` it then retries with the windows softened
        into penalties (phase-infeasibility on a ``v_min`` road, see
        the module docstring) before the cycle is declared failed with
        a typed :class:`~repro.errors.PlanningFailedError`.
        """
        constraints = self._truncated(
            self.inner.signal_constraints(time_s), position_m
        )
        try:
            return self.inner.solver.solve(
                constraints=constraints,
                start_time_s=time_s,
                max_trip_time_s=max_trip_time_s,
                minimize=minimize,
                start_state=(position_m, speed_ms),
            )
        except InfeasibleProblemError:
            pass
        try:
            return self.inner.solver.solve(
                constraints=constraints,
                start_time_s=time_s,
                max_trip_time_s=None,
                minimize="time",
                start_state=(position_m, speed_ms),
            )
        except InfeasibleProblemError as exc:
            hard_failure = exc
        ahead = [c for c in constraints if c.position_m > position_m]
        dead = not any(len(c.windows) > 0 for c in ahead)
        if not self.soften_infeasible or dead:
            # A collapsed forecast (every window set ahead empty) fails
            # typed even with softening: a penalty solve would just pay
            # the penalty everywhere and degenerate to unconstrained.
            raise PlanningFailedError(
                f"receding-horizon cycle at {position_m:.0f} m, t={time_s:.1f} s "
                f"found no feasible profile (even minimum-time): {hard_failure}",
                depart_s=time_s,
            ) from hard_failure
        for cap, objective in ((max_trip_time_s, minimize), (None, "time")):
            try:
                return self.inner.solver.solve(
                    constraints=self._softened(constraints),
                    start_time_s=time_s,
                    max_trip_time_s=cap,
                    minimize=objective,
                    start_state=(position_m, speed_ms),
                )
            except InfeasibleProblemError as exc:
                soft_failure = exc
        raise PlanningFailedError(
            f"receding-horizon cycle at {position_m:.0f} m, t={time_s:.1f} s "
            f"found no feasible profile even with softened windows: "
            f"{soft_failure}",
            depart_s=time_s,
        ) from soft_failure
