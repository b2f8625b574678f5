"""Standalone PR 8 bench: writes the committed ``BENCH_pr8.json``.

Three gated claims back the uncertainty stack:

* ``mid_replan`` — the PR 4 mid-route replan (2000 m in) on a warm
  artifact store redoes no corridor work: over the warm-up and the
  timed warm replans, the store builds the corridor artifacts exactly
  once (one miss) and serves every other planner from the store (one
  hit each).  PR 4's regression was a warm planner rebuilding them.
  The cold/warm timing and its ratio are reported, not gated: once the
  artifact build became cheap the ratio stopped measuring that reuse.
* ``mpc_cycle`` — per-cycle cost of a warm receding-horizon replan
  through the chance-constrained planner (the ``queue_dp_mpc`` tier's
  unit of work).  Reported and gated loosely against the cold replan:
  a warm MPC cycle must beat a cold full rebuild.
* ``bit_identity`` — with faults disabled, the chance-constrained
  planner at p = 0.5 (margin 0) and its receding-horizon wrapper
  produce plans bit-identical to the point-forecast ``queue_dp``.
* ``robustness`` — the ``ext-uncertainty`` drift sweep: at the highest
  severity the stochastic arm misses *strictly fewer* queue-clearance
  windows than the point arm, at <= 10% energy overhead (p = 0.9).

Usage::

    PYTHONPATH=src python benchmarks/bench_pr8.py [--reduced] [--out F]

``--reduced`` shrinks the SAE residual fit and drops the middle
severity for CI; the gates are identical in both modes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from typing import List, Optional

import numpy as np

from repro.core.engine import ArtifactStore
from repro.core.horizon import RecedingHorizonPlanner
from repro.core.planner import PlannerConfig, QueueAwareDpPlanner
from repro.core.uncertainty import ChanceConstrainedPlanner, ResidualModel
from repro.experiments import ext_uncertainty
from repro.route.us25 import us25_greenville_segment
from repro.units import vehicles_per_hour_to_per_second

RATE = vehicles_per_hour_to_per_second(300.0)
CONFIG = PlannerConfig(v_step_ms=1.0, s_step_m=25.0, t_bin_s=2.0)
# Same mid-route replan state BENCH_pr4.json reports (solve-bound).
MID_REPLAN_STATE = dict(position_m=2000.0, speed_ms=8.0, time_s=170.0)
# Representative MPC cycles along the corridor: early (both signals
# ahead), mid (one signal ahead, the PR 4 state), and final approach
# (past the last signal, the other PR 4 state).
MPC_CYCLE_STATES = (
    dict(position_m=1000.0, speed_ms=8.0, time_s=100.0),
    dict(position_m=2000.0, speed_ms=8.0, time_s=170.0),
    dict(position_m=3800.0, speed_ms=10.0, time_s=310.0),
)
ROUNDS = 5


def _timed(fn, rounds: int = ROUNDS):
    samples = []
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return result, samples


def _mid_replan(road):
    """Cold vs warm mid-route replan, and the warm store's counters.

    Every replan stands up a fresh planner, as a new vehicle's would; the
    warm ones share one store, whose hits and misses are returned.
    """

    def replan(store):
        planner = QueueAwareDpPlanner(
            road, arrival_rates=RATE, config=CONFIG, store=store
        )
        return planner.replan(**MID_REPLAN_STATE)

    cold_solution, cold = _timed(lambda: replan(None))
    store = ArtifactStore()
    replan(store)  # warm-up build
    warm_solution, warm = _timed(lambda: replan(store))
    assert warm_solution.energy_j == cold_solution.energy_j, "store changed the answer"
    cold_s = statistics.median(cold)
    warm_s = statistics.median(warm)
    return cold_s, warm_s, cold_s / warm_s, store.stats()


def _mpc_cycle(road, cold_replan_s: float):
    """Per-cycle cost of warm receding-horizon replans (p = 0.9)."""
    store = ArtifactStore()
    residuals = ResidualModel([0.0]).with_timing_noise(6.0)
    inner = ChanceConstrainedPlanner(
        road,
        arrival_rates=RATE,
        residuals=residuals,
        chance_level=0.9,
        config=CONFIG,
        store=store,
    )
    mpc = RecedingHorizonPlanner(inner)
    mpc.replan(**MPC_CYCLE_STATES[0])  # warm-up build
    per_state = []
    for state in MPC_CYCLE_STATES:
        _, samples = _timed(lambda s=state: mpc.replan(**s))
        per_state.append(statistics.median(samples))
    cycle_s = statistics.median(per_state)
    return cycle_s, per_state, cycle_s < cold_replan_s


def _bit_identity(road):
    """Faults off, p = 0.5: the stochastic stack is the point planner."""
    store = ArtifactStore()
    point = QueueAwareDpPlanner(road, arrival_rates=RATE, config=CONFIG, store=store)
    residuals = ResidualModel([0.0]).with_timing_noise(6.0)
    chance = ChanceConstrainedPlanner(
        road,
        arrival_rates=RATE,
        residuals=residuals,
        chance_level=0.5,
        config=CONFIG,
        store=store,
    )
    mpc = RecedingHorizonPlanner(chance)
    a = point.plan(max_trip_time_s=320.0)
    b = chance.plan(max_trip_time_s=320.0)
    c = mpc.plan(max_trip_time_s=320.0)
    plan_identical = (
        a.energy_j == b.energy_j == c.energy_j
        and np.array_equal(a.profile.speeds_ms, b.profile.speeds_ms)
        and np.array_equal(a.profile.speeds_ms, c.profile.speeds_ms)
    )
    ra = point.replan(**MID_REPLAN_STATE)
    rb = mpc.replan(**MID_REPLAN_STATE)
    replan_identical = ra.energy_j == rb.energy_j and np.array_equal(
        ra.profile.speeds_ms, rb.profile.speeds_ms
    )
    return plan_identical, replan_identical, chance.chance_margin_s


def _robustness(reduced: bool):
    """The ext-uncertainty sweep and its headline row."""
    if reduced:
        config = ext_uncertainty.UncertaintyConfig(severities=(0.0, 12.0))
    else:
        config = ext_uncertainty.UncertaintyConfig()
    result = ext_uncertainty.run(config)
    worst = max(result.rows, key=lambda r: r.severity_s)
    rows = [
        {
            "severity_s": row.severity_s,
            "chance_margin_s": round(row.chance_margin_s, 3),
            "point_stops": row.point_stops,
            "stoch_stops": row.stoch_stops,
            "energy_ratio": round(row.stoch_energy_mah / row.point_energy_mah, 4),
            "stoch_tiers": row.stoch_tiers,
            "completed": list(row.completed),
        }
        for row in result.rows
    ]
    return result, worst, rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reduced",
        action="store_true",
        help="shrink the SAE fit and severity sweep for CI",
    )
    parser.add_argument("--out", default="BENCH_pr8.json", help="output JSON path")
    args = parser.parse_args(argv)

    road = us25_greenville_segment()

    mid_cold, mid_warm, mid_speedup, mid_store = _mid_replan(road)
    mpc_cycle_s, mpc_per_state, mpc_beats_cold = _mpc_cycle(road, mid_cold)
    plan_identical, replan_identical, half_margin = _bit_identity(road)
    result, worst, rows = _robustness(args.reduced)

    energy_ratio = worst.stoch_energy_mah / worst.point_energy_mah
    report = {
        "bench": "pr8-uncertainty",
        "reduced": bool(args.reduced),
        "grid": {"v_step_ms": 1.0, "s_step_m": 25.0, "t_bin_s": 2.0},
        "mid_replan": {
            "state": MID_REPLAN_STATE,
            "cold_s": round(mid_cold, 4),
            "warm_s": round(mid_warm, 4),
            "speedup": round(mid_speedup, 2),
            "store": {"hits": mid_store.hits, "misses": mid_store.misses},
        },
        "mpc_cycle": {
            "warm_cycle_s": round(mpc_cycle_s, 4),
            "per_state_s": [round(s, 4) for s in mpc_per_state],
            "beats_cold_rebuild": mpc_beats_cold,
        },
        "bit_identity": {
            "half_level_margin_s": half_margin,
            "plan_identical": plan_identical,
            "replan_identical": replan_identical,
        },
        "robustness": {
            "chance_level": 0.9,
            "drift_seed": 27,
            "residual_std_s": round(result.residual_std_s, 3),
            "rows": rows,
            "worst_severity_s": worst.severity_s,
            "worst_point_stops": worst.point_stops,
            "worst_stoch_stops": worst.stoch_stops,
            "worst_energy_ratio": round(energy_ratio, 4),
        },
        "rounds": {"timing": ROUNDS},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))

    assert (mid_store.misses, mid_store.hits) == (1, ROUNDS), (
        f"warm mid-route replans built the corridor artifacts {mid_store.misses} "
        f"time(s) and reused them {mid_store.hits} time(s) (need 1 build, "
        f"{ROUNDS} reuses)"
    )
    assert mpc_beats_cold, (
        f"warm MPC cycle {mpc_cycle_s:.3f} s is no faster than a cold "
        f"rebuild {mid_cold:.3f} s"
    )
    assert half_margin == 0.0, f"p = 0.5 margin is {half_margin}, not exactly 0"
    assert plan_identical and replan_identical, (
        "chance-constrained stack at p = 0.5 diverged from the point planner"
    )
    assert worst.stoch_stops < worst.point_stops, (
        f"at severity {worst.severity_s:g} s the stochastic arm missed "
        f"{worst.stoch_stops} windows vs the point arm's {worst.point_stops} "
        "(need strictly fewer)"
    )
    assert energy_ratio <= 1.10, (
        f"stochastic energy overhead {energy_ratio:.3f}x exceeds the 10% budget"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
