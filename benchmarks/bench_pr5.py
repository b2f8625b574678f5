"""Standalone PR 5 bench: writes the committed ``BENCH_pr5.json``.

Measures the serving stack's headline behavior on the US-25 corridor at
the fast grid (v_step 1.0 m/s, s_step 25 m, t_bin 2 s): one Poisson
fleet served three ways —

* ``serial_*`` — the plain in-thread loop (``workers=0``);
* ``dispatched_*`` — the same stream through the coalescing dispatcher
  with 4 workers;
* ``wire_*`` — the same stream over loopback TCP: a plan server with a
  4-worker dispatcher, reached through a ``NetworkPlanTransport``, so
  every request and response crosses the wire codec, the framing and a
  socket.

The acceptance gate is **identity, not speed**: all three modes must
produce bit-identical fleet energy/time aggregates and identical
service cache economics (same solves, same hits).  Warm-cache serving
is cheap and GIL-bound, so a wall-clock speedup is *reported* for
transparency but not gated — what the dispatcher buys on one process is
coalescing (N same-phase requests, 1 solve), which the coalesced/leader
counters prove.

Usage::

    PYTHONPATH=src python benchmarks/bench_pr5.py [output.json]
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from repro.cloud.fleet import FleetStudy
from repro.cloud.netclient import NetworkPlanTransport
from repro.cloud.server import serve_in_background
from repro.cloud.service import CloudPlannerService
from repro.core.engine import ArtifactStore
from repro.core.planner import PlannerConfig, QueueAwareDpPlanner
from repro.route.us25 import us25_greenville_segment
from repro.units import vehicles_per_hour_to_per_second

RATE = vehicles_per_hour_to_per_second(300.0)
CONFIG = PlannerConfig(v_step_ms=1.0, s_step_m=25.0, t_bin_s=2.0)
FLEET_RATE_VPH = 120.0
DURATION_S = 1800.0
SEED = 5
WORKERS = 4
ROUNDS = 3


def _build_service(road) -> CloudPlannerService:
    store = ArtifactStore()
    planner = QueueAwareDpPlanner(road, arrival_rates=RATE, config=CONFIG, store=store)
    return CloudPlannerService(planner)


def _run_fleet(road, workers: int):
    study = FleetStudy(
        _build_service(road),
        road,
        fleet_rate_vph=FLEET_RATE_VPH,
        seed=SEED,
        workers=workers,
    )
    return study.run(duration_s=DURATION_S)


def _run_wire_fleet(road):
    """The same fleet, served over loopback TCP by a plan server."""
    service = _build_service(road)
    with serve_in_background(service, workers=WORKERS) as handle:
        with NetworkPlanTransport(*handle.address, timeout_s=60.0) as transport:
            study = FleetStudy(
                service,
                road,
                fleet_rate_vph=FLEET_RATE_VPH,
                seed=SEED,
                via=transport,
            )
            return study.run(duration_s=DURATION_S)


def _timed(fn, rounds: int = ROUNDS):
    samples = []
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return result, statistics.median(samples)


def main(destination: str = "BENCH_pr5.json") -> int:
    road = us25_greenville_segment()

    serial, serial_s = _timed(lambda: _run_fleet(road, workers=0))
    dispatched, dispatched_s = _timed(lambda: _run_fleet(road, workers=WORKERS))
    wired, wired_s = _timed(lambda: _run_wire_fleet(road))

    # The gate: three serving modes, one set of numbers.
    for name, other in (("dispatched", dispatched), ("wire", wired)):
        assert other.planned_energy_mah == serial.planned_energy_mah, (
            f"{name} fleet energy diverged from serial"
        )
        assert other.mean_trip_time_s == serial.mean_trip_time_s, (
            f"{name} fleet trip time diverged from serial"
        )
        assert other.n_vehicles == serial.n_vehicles
        assert other.service.cache_misses == serial.service.cache_misses, (
            f"{name} ran a different number of solves than serial"
        )
    assert dispatched.dispatch is not None
    assert dispatched.dispatch.coalesced > 0, "dispatcher never coalesced"
    assert dispatched.dispatch.in_flight == 0

    report = {
        "bench": "pr5-serving-stack",
        "grid": {"v_step_ms": 1.0, "s_step_m": 25.0, "t_bin_s": 2.0},
        "fleet": {
            "rate_vph": FLEET_RATE_VPH,
            "duration_s": DURATION_S,
            "seed": SEED,
            "vehicles": serial.n_vehicles,
        },
        "serial_wall_s": round(serial_s, 4),
        "dispatched_wall_s": round(dispatched_s, 4),
        "wire_wall_s": round(wired_s, 4),
        "dispatched_vs_serial": round(serial_s / dispatched_s, 2),
        "workers": WORKERS,
        "identical_to_serial": True,
        "planned_energy_mah": round(serial.planned_energy_mah, 3),
        "savings_pct": round(serial.savings_pct, 2),
        "service": {
            "requests": serial.service.requests,
            "cache_hits": serial.service.cache_hits,
            "cache_misses": serial.service.cache_misses,
            "hit_rate": round(serial.service.hit_rate, 3),
        },
        "plan_cache": {
            "hits": serial.cache.hits,
            "misses": serial.cache.misses,
            "evictions": serial.cache.evictions,
            "size": serial.cache.size,
            "capacity": serial.cache.capacity,
        },
        "dispatcher": {
            "submitted": dispatched.dispatch.submitted,
            "leaders": dispatched.dispatch.leaders,
            "coalesced": dispatched.dispatch.coalesced,
            "errors": dispatched.dispatch.errors,
        },
        "rounds": ROUNDS,
    }
    with open(destination, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:2]))
