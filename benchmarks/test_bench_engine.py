"""Engine-layer benches: artifact reuse vs rebuild on the replan path.

The PR 4 split moves the corridor precomputation out of the solver; these
benches time "stand up a planner and answer a replan", which is what a
vehicle pays when its planning context is constructed per request:

* cold: no store — every round builds the corridor artifacts,
* warm: a shared store — every round after the first is served the
  prebuilt artifacts and pays only the solve, and the store counts the
  one build.

The pair uses a *final-approach* replan (400 m before the corridor end,
past the last signal), where the remaining-corridor solve is small.
Since the build prices each distinct segment class once, it is a small
share of the cold round, so the pair shows reuse by the store's
counters, not by the ratio.  ``benchmarks/bench_pr4.py`` runs the same
workload standalone, gates the reuse (one build, one hit per warm
round) and writes the ``BENCH_pr4.json`` report, including a
solve-dominated mid-route replan for comparison; the warm bench here
only reports the counters, so that gate is the one reuse check.
"""

import numpy as np

from repro.cloud.messages import PlanRequest
from repro.cloud.service import CloudPlannerService
from repro.core.engine import ArtifactStore
from repro.core.planner import PlannerConfig, QueueAwareDpPlanner
from repro.route.us25 import us25_greenville_segment
from repro.units import vehicles_per_hour_to_per_second

RATE = vehicles_per_hour_to_per_second(300.0)
CONFIG = PlannerConfig(v_step_ms=1.0, s_step_m=25.0, t_bin_s=2.0)
REPLAN_STATE = dict(position_m=3800.0, speed_ms=10.0, time_s=310.0)


def _replan(road, store):
    planner = QueueAwareDpPlanner(
        road, arrival_rates=RATE, config=CONFIG, store=store
    )
    return planner.replan(**REPLAN_STATE)


def test_bench_replan_cold(benchmark):
    """Planner construction + final-approach replan, rebuilding artifacts."""
    road = us25_greenville_segment()
    solution = benchmark.pedantic(lambda: _replan(road, None), rounds=3, iterations=1)
    assert solution.trip_time_s > 0


def test_bench_replan_warm_store(benchmark):
    """Planner construction + final-approach replan against a warm store."""
    road = us25_greenville_segment()
    store = ArtifactStore()
    _replan(road, store)  # populate outside the timed region

    solution = benchmark.pedantic(lambda: _replan(road, store), rounds=3, iterations=1)
    assert solution.trip_time_s > 0
    stats = store.stats()
    benchmark.extra_info["store_misses"] = stats.misses
    benchmark.extra_info["store_hits"] = stats.hits


def test_bench_fleet_8_vehicles_shared_store(benchmark):
    """Eight plan requests through the cloud service over one store."""
    road = us25_greenville_segment()
    departures = np.linspace(0.0, 180.0, 8)

    def serve_fleet():
        store = ArtifactStore()
        planner = QueueAwareDpPlanner(
            road, arrival_rates=RATE, config=CONFIG, store=store
        )
        service = CloudPlannerService(planner)
        responses = [
            service.request(
                PlanRequest(vehicle_id=f"ev{i}", depart_s=float(d), max_trip_time_s=290.0)
            )
            for i, d in enumerate(departures)
        ]
        return service, responses

    service, responses = benchmark.pedantic(serve_fleet, rounds=3, iterations=1)
    assert len(responses) == 8
    benchmark.extra_info["plan_cache_hit_rate"] = service.stats.hit_rate
