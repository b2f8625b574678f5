"""Standalone PR 4 bench: writes the committed ``BENCH_pr4.json``.

Measures the engine split's headline numbers on the US-25 corridor at
the fast grid (v_step 1.0 m/s, s_step 25 m, t_bin 2 s):

* ``replan_late_*`` — stand up a planner and answer a final-approach
  replan (400 m before the corridor end, past the last signal), cold
  (every planner builds its own artifacts) and warm (every planner
  after a warm-up build is served them by one store).
* ``replan_mid_*`` — the same comparison for a mid-route replan
  (2000 m in).
* ``fleet8_*`` — eight vehicles' plan requests through one
  :class:`CloudPlannerService` sharing a store.

Usage::

    PYTHONPATH=src python benchmarks/bench_pr4.py [output.json]

The gate is the reuse the store exists for: over the warm-up and the
``ROUNDS`` timed warm replans of each pair, the store builds the
corridor artifacts exactly once (one miss) and serves every other
planner from the store (one hit each): a warm planner that rebuilds
them is the regression this bench guards against.  This is the one
reuse check: ``benchmarks/test_bench_engine.py::test_bench_replan_warm_store``
times the same final-approach workload and only reports the store's
counters.  The cold/warm timings and their ratio are reported,
not gated: a build priced once per distinct segment class is a small
share of a cold replan, so the ratio no longer measures reuse.  The
gate is asserted after the report is written, so CI fails loudly if
the reuse breaks.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from repro.cloud.messages import PlanRequest
from repro.cloud.service import CloudPlannerService
from repro.core.engine import ArtifactStore
from repro.core.planner import PlannerConfig, QueueAwareDpPlanner
from repro.route.us25 import us25_greenville_segment
from repro.units import vehicles_per_hour_to_per_second

RATE = vehicles_per_hour_to_per_second(300.0)
CONFIG = PlannerConfig(v_step_ms=1.0, s_step_m=25.0, t_bin_s=2.0)
# Final-approach replan: 400 m from the end of the 4200 m corridor,
# past the last signal (3460 m).  The solve covers only the remaining
# segments while a cold planner still builds artifacts for the whole
# corridor.
LATE_REPLAN_STATE = dict(position_m=3800.0, speed_ms=10.0, time_s=310.0)
# Mid-route replan (solve-dominated).
MID_REPLAN_STATE = dict(position_m=2000.0, speed_ms=8.0, time_s=170.0)
ROUNDS = 5


def _timed(fn, rounds: int = ROUNDS):
    samples = []
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return result, samples


def _replan(road, store, state):
    planner = QueueAwareDpPlanner(road, arrival_rates=RATE, config=CONFIG, store=store)
    return planner.replan(**state)


def _cold_vs_warm(road, state):
    """Cold vs warm replan timings, and the warm store's counters."""
    cold_solution, cold = _timed(lambda: _replan(road, None, state))
    store = ArtifactStore()
    _replan(road, store, state)  # warm-up build
    warm_solution, warm = _timed(lambda: _replan(road, store, state))
    assert warm_solution.energy_j == cold_solution.energy_j, "store changed the answer"
    cold_s = statistics.median(cold)
    warm_s = statistics.median(warm)
    return cold_s, warm_s, cold_s / warm_s, store.stats()


def main(destination: str = "BENCH_pr4.json") -> int:
    road = us25_greenville_segment()

    late_cold, late_warm, late_speedup, late_store = _cold_vs_warm(road, LATE_REPLAN_STATE)
    mid_cold, mid_warm, mid_speedup, mid_store = _cold_vs_warm(road, MID_REPLAN_STATE)

    def serve_fleet():
        fleet_store = ArtifactStore()
        planner = QueueAwareDpPlanner(
            road, arrival_rates=RATE, config=CONFIG, store=fleet_store
        )
        service = CloudPlannerService(planner)
        for i, depart in enumerate(np.linspace(0.0, 180.0, 8)):
            service.request(
                PlanRequest(
                    vehicle_id=f"ev{i}", depart_s=float(depart), max_trip_time_s=290.0
                )
            )
        return service, fleet_store

    (service, fleet_store), fleet = _timed(serve_fleet, rounds=3)

    report = {
        "bench": "pr4-engine-split",
        "grid": {"v_step_ms": 1.0, "s_step_m": 25.0, "t_bin_s": 2.0},
        "replan_late_state": LATE_REPLAN_STATE,
        "replan_late_cold_s": round(late_cold, 4),
        "replan_late_warm_s": round(late_warm, 4),
        "warm_speedup": round(late_speedup, 2),
        "replan_late_store": {"hits": late_store.hits, "misses": late_store.misses},
        "replan_mid_state": MID_REPLAN_STATE,
        "replan_mid_cold_s": round(mid_cold, 4),
        "replan_mid_warm_s": round(mid_warm, 4),
        "replan_mid_speedup": round(mid_speedup, 2),
        "replan_mid_store": {"hits": mid_store.hits, "misses": mid_store.misses},
        "fleet8_wall_s": round(statistics.median(fleet), 4),
        "fleet8_plan_cache_hit_rate": round(service.stats.hit_rate, 3),
        "fleet8_store": {
            "hits": fleet_store.stats().hits,
            "misses": fleet_store.stats().misses,
        },
        "rounds": {"replan": ROUNDS, "fleet": 3},
    }
    with open(destination, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    for label, stats in (("late", late_store), ("mid-route", mid_store)):
        assert (stats.misses, stats.hits) == (1, ROUNDS), (
            f"warm {label} replans built the corridor artifacts {stats.misses} "
            f"time(s) and reused them {stats.hits} time(s) (need 1 build, "
            f"{ROUNDS} reuses)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:2]))
