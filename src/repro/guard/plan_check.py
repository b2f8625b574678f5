"""Runtime safety audit of velocity plans before they are commanded.

The DP guarantees its own grid output is feasible, but the closed loop
executes plans from many sources — the cloud (possibly a stale cache
entry), local fallback tiers, repaired profiles — and a single corrupted
plan (a NaN speed, an acceleration outside the comfort envelope, an
arrival scheduled into red) would flow straight into vehicle commands.
:class:`PlanValidator` is the runtime gate: it audits any profile for

* finiteness of every position/speed/dwell value,
* strictly increasing positions,
* speed-limit compliance at each grid point (Eq. 7a),
* accel/decel-envelope compliance per segment (Eq. 7b),
* arrival inside an admissible window at every signal the plan crosses
  (green windows by default; the caller passes the planner's
  margin-shrunk ``T_q`` constraints for queue-aware plans).

The verdict carries a machine-readable violation list; each violation is
tagged *repairable* (small kinematic excess that clamping can fix) or
not (non-finite data, gross breaches, window misses).  :meth:`repair_plan`
applies the clamps — cap speeds at the limit, then a forward/backward
pass that restores the acceleration envelope — re-audits the result and
refuses (raises :class:`~repro.errors.PlanRejectedError`) anything still
invalid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.dp import DpSolution, TimeWindowConstraint
from repro.core.profile import VelocityProfile
from repro.errors import PlanRejectedError
from repro.guard.contracts import RepairReport
from repro.route.road import RoadSegment
from repro.vehicle.params import VehicleParams

#: Violation codes, roughly ordered by severity.
CODE_NONFINITE = "nonfinite"
CODE_ORDER = "position_order"
CODE_SPEED_LIMIT = "speed_limit"
CODE_ACCEL = "accel"
CODE_DECEL = "decel"
CODE_ARRIVAL_WINDOW = "arrival_window"


@dataclass(frozen=True)
class Violation:
    """One safety-invariant breach found in a plan.

    Attributes:
        code: Violation class (one of the ``CODE_*`` constants).
        position_m: Route position of the breach (NaN when global).
        value: The offending value (speed, acceleration or arrival time).
        limit: The violated bound (window edge for arrival misses).
        repairable: Whether :meth:`PlanValidator.repair_plan` can fix it.
        detail: Human-readable context.
    """

    code: str
    position_m: float
    value: float
    limit: float
    repairable: bool
    detail: str = ""

    def __str__(self) -> str:
        fix = "repairable" if self.repairable else "fatal"
        return (
            f"{self.code} at {self.position_m:.1f} m: value {self.value:.3f} "
            f"vs limit {self.limit:.3f} [{fix}] {self.detail}".rstrip()
        )


@dataclass(frozen=True)
class PlanVerdict:
    """Outcome of one plan audit.

    Attributes:
        ok: True when no invariant was violated.
        violations: Every breach found, in route order.
    """

    ok: bool
    violations: Tuple[Violation, ...] = ()

    @property
    def repairable(self) -> bool:
        """True when the plan is invalid but every breach is clampable."""
        return not self.ok and all(v.repairable for v in self.violations)

    @property
    def codes(self) -> Tuple[str, ...]:
        """The distinct violation codes present, in first-seen order."""
        seen: List[str] = []
        for v in self.violations:
            if v.code not in seen:
                seen.append(v.code)
        return tuple(seen)

    def summary(self) -> str:
        """One line per violation, for logs and CLI output."""
        if self.ok:
            return "plan valid: all safety invariants hold"
        return "\n".join(str(v) for v in self.violations)


class PlanValidator:
    """Audits (and repairs) velocity plans against the road's invariants.

    Args:
        road: The corridor the plan drives; source of limits and signal
            timing.
        vehicle: Acceleration-envelope source (paper defaults if ``None``).
        speed_tol_ms: Numerical slack on speed-limit checks.
        accel_tol_ms2: Numerical slack on acceleration checks.
        max_speed_repair_ms: Largest over-limit excess the repair mode
            will clamp; beyond it the breach is fatal (unit error, not
            noise).
        max_accel_repair_ms2: Largest envelope excess the repair mode
            will smooth away.
    """

    def __init__(
        self,
        road: RoadSegment,
        vehicle: Optional[VehicleParams] = None,
        speed_tol_ms: float = 0.25,
        accel_tol_ms2: float = 0.15,
        max_speed_repair_ms: float = 3.0,
        max_accel_repair_ms2: float = 2.0,
    ) -> None:
        self.road = road
        self.vehicle = vehicle if vehicle is not None else VehicleParams()
        self.speed_tol_ms = float(speed_tol_ms)
        self.accel_tol_ms2 = float(accel_tol_ms2)
        self.max_speed_repair_ms = float(max_speed_repair_ms)
        self.max_accel_repair_ms2 = float(max_accel_repair_ms2)

    # ------------------------------------------------------------------
    # Audits
    # ------------------------------------------------------------------
    def check_profile(
        self,
        profile: VelocityProfile,
        constraints: Optional[Sequence[TimeWindowConstraint]] = None,
    ) -> PlanVerdict:
        """Audit one profile; see the module docstring for the invariants.

        Args:
            profile: The plan to audit (full-trip or mid-route).
            constraints: Arrival-window constraints to enforce.  ``None``
                derives plain green windows from the road's signals — the
                universal "never arrive on red" floor; queue-aware callers
                pass their planner's ``signal_constraints`` so arrivals
                are held to the tighter ``T_q`` windows instead.
        """
        registry = obs.get_registry()
        registry.inc("guard.plans_checked")
        violations: List[Violation] = []
        pos = profile.positions_m
        spd = profile.speeds_ms

        finite = True
        for name, arr in (("position", pos), ("speed", spd), ("dwell", profile.dwell_s)):
            bad = ~np.isfinite(arr)
            if bad.any():
                finite = False
                i = int(np.argmax(bad))
                anchor = float(pos[i]) if np.isfinite(pos[i]) else float("nan")
                violations.append(
                    Violation(
                        CODE_NONFINITE,
                        anchor,
                        float(arr[i]),
                        0.0,
                        repairable=False,
                        detail=f"non-finite {name} at index {i}",
                    )
                )
        if finite and np.any(np.diff(pos) <= 0):
            i = int(np.argmax(np.diff(pos) <= 0))
            violations.append(
                Violation(
                    CODE_ORDER,
                    float(pos[i]),
                    float(pos[i + 1]),
                    float(pos[i]),
                    repairable=False,
                    detail=f"positions not strictly increasing at index {i}",
                )
            )
        if not finite or violations:
            # Kinematic and timing checks are meaningless on broken grids.
            return self._verdict(violations)

        for s, v in zip(pos, spd):
            v_max = self.road.v_max_at(min(float(s), self.road.length_m))
            excess = float(v) - v_max
            if excess > self.speed_tol_ms:
                violations.append(
                    Violation(
                        CODE_SPEED_LIMIT,
                        float(s),
                        float(v),
                        v_max,
                        repairable=excess <= self.max_speed_repair_ms,
                    )
                )

        a_max = self.vehicle.max_accel_ms2
        a_min = self.vehicle.min_accel_ms2
        for s, a in zip(pos[:-1], profile.accelerations()):
            if a > a_max + self.accel_tol_ms2:
                violations.append(
                    Violation(
                        CODE_ACCEL,
                        float(s),
                        float(a),
                        a_max,
                        repairable=(a - a_max) <= self.max_accel_repair_ms2,
                    )
                )
            elif a < a_min - self.accel_tol_ms2:
                violations.append(
                    Violation(
                        CODE_DECEL,
                        float(s),
                        float(a),
                        a_min,
                        repairable=(a_min - a) <= self.max_accel_repair_ms2,
                    )
                )

        violations.extend(self._window_violations(profile, constraints))
        return self._verdict(violations)

    def check_solution(
        self,
        solution: DpSolution,
        constraints: Optional[Sequence[TimeWindowConstraint]] = None,
    ) -> PlanVerdict:
        """Audit a DP solution: its profile plus finite summary metrics."""
        verdict = self.check_profile(solution.profile, constraints)
        extras: List[Violation] = []
        for name, value in (("energy_j", solution.energy_j), ("trip_time_s", solution.trip_time_s)):
            if not np.isfinite(value):
                extras.append(
                    Violation(
                        CODE_NONFINITE,
                        float("nan"),
                        float(value),
                        0.0,
                        repairable=False,
                        detail=f"non-finite solution metric {name}",
                    )
                )
        if extras:
            return PlanVerdict(ok=False, violations=verdict.violations + tuple(extras))
        return verdict

    def _window_violations(
        self,
        profile: VelocityProfile,
        constraints: Optional[Sequence[TimeWindowConstraint]],
    ) -> List[Violation]:
        if constraints is None:
            constraints = self._green_constraints(profile)
        violations: List[Violation] = []
        lo = float(profile.positions_m[0])
        hi = float(profile.positions_m[-1])
        for constraint in constraints:
            s = constraint.position_m
            if not lo <= s <= hi or s == hi:
                continue  # signal behind the vehicle or at the route exit
            if self._stops_at(profile, s):
                continue  # the plan waits out the red here on purpose
            arrival = profile.arrival_time_at(s)
            if arrival not in constraint.windows:
                violations.append(
                    Violation(
                        CODE_ARRIVAL_WINDOW,
                        s,
                        float(arrival),
                        float("nan"),
                        repairable=False,
                        detail="arrival outside every admissible window",
                    )
                )
        return violations

    def _green_constraints(
        self, profile: VelocityProfile
    ) -> List[TimeWindowConstraint]:
        """The default audit windows: plain green phases, no margin."""
        from repro.core.cost import WindowSet
        from repro.signal.queue import QueueWindow

        start = profile.start_time_s
        horizon = max(profile.total_time_s * 2.0, 60.0)
        constraints = []
        for site in self.road.signals:
            green = site.light.green_windows(horizon, start)
            windows = WindowSet([QueueWindow(a, b) for a, b in green])
            constraints.append(
                TimeWindowConstraint(position_m=site.position_m, windows=windows)
            )
        return constraints

    @staticmethod
    def _stops_at(profile: VelocityProfile, position_m: float) -> bool:
        """Whether the plan parks (dwell > 0) at this position."""
        near = np.abs(profile.positions_m - position_m) <= 1.0
        return bool(np.any(near & (profile.dwell_s > 0.0)))

    @staticmethod
    def _verdict(violations: List[Violation]) -> PlanVerdict:
        registry = obs.get_registry()
        if violations:
            registry.inc("guard.plans_invalid")
            for code in {v.code for v in violations}:
                registry.inc(f"guard.violation.{code}")
        return PlanVerdict(ok=not violations, violations=tuple(violations))

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def repair_plan(
        self,
        profile: VelocityProfile,
        constraints: Optional[Sequence[TimeWindowConstraint]] = None,
    ) -> Tuple[VelocityProfile, RepairReport]:
        """Clamp small kinematic violations; refuse anything else.

        A valid plan is returned unchanged (same object, empty report) so
        screening a healthy loop is a no-op.  For a repairable plan the
        speeds are capped at the zone limit, then a forward pass bounds
        accelerations by ``v' <= sqrt(v^2 + 2 a_max ds)`` and a backward
        pass bounds decelerations symmetrically; the result is re-audited
        under the same constraints.

        Raises:
            PlanRejectedError: The plan carries a fatal violation, or the
                clamped plan still fails the audit (e.g. slowing down to
                respect a limit pushed a signal arrival out of its
                window).
        """
        verdict = self.check_profile(profile, constraints)
        report = RepairReport("plan")
        if verdict.ok:
            return profile, report
        if not verdict.repairable:
            raise PlanRejectedError(
                "plan rejected: " + "; ".join(str(v) for v in verdict.violations),
                violations=verdict.violations,
            )
        pos = profile.positions_m.copy()
        spd = profile.speeds_ms.copy()
        for i, s in enumerate(pos):
            v_max = self.road.v_max_at(min(float(s), self.road.length_m))
            if spd[i] > v_max:
                report.add(
                    "speed_ms", i, "clamped", f"{spd[i]:.3f} -> limit {v_max:.3f} at {s:.0f} m"
                )
                spd[i] = v_max
        a_max = self.vehicle.max_accel_ms2
        a_min = abs(self.vehicle.min_accel_ms2)
        ds = np.diff(pos)
        for i in range(spd.size - 1):  # forward: acceleration cap
            ceiling = float(np.sqrt(spd[i] * spd[i] + 2.0 * a_max * ds[i]))
            if spd[i + 1] > ceiling:
                report.add(
                    "speed_ms", i + 1, "clamped",
                    f"{spd[i + 1]:.3f} -> {ceiling:.3f} (accel envelope)",
                )
                spd[i + 1] = ceiling
        for i in range(spd.size - 2, -1, -1):  # backward: deceleration cap
            ceiling = float(np.sqrt(spd[i + 1] * spd[i + 1] + 2.0 * a_min * ds[i]))
            if spd[i] > ceiling:
                report.add(
                    "speed_ms", i, "clamped",
                    f"{spd[i]:.3f} -> {ceiling:.3f} (decel envelope)",
                )
                spd[i] = ceiling
        repaired = VelocityProfile(
            positions_m=pos,
            speeds_ms=spd,
            dwell_s=profile.dwell_s.copy(),
            start_time_s=profile.start_time_s,
        )
        recheck = self.check_profile(repaired, constraints)
        if not recheck.ok:
            raise PlanRejectedError(
                "plan irreparable: clamping left violations: "
                + "; ".join(str(v) for v in recheck.violations),
                violations=recheck.violations,
            )
        obs.get_registry().inc("guard.plans_repaired")
        return repaired, report
