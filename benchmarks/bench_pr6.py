"""Standalone PR 6 bench: writes the committed ``BENCH_pr6.json``.

PR 5's bench exposed a performance bug: the 4-worker threaded dispatcher
was *slower* than serial serving (``dispatched_vs_serial: 0.94``) because
the numpy stage kernels hold the GIL for most of a solve.  This bench
measures the dispatcher backends against serial serving on the same
Poisson fleet (US-25, fast grid):

* ``serial_*`` — the plain in-thread request loop (the baseline);
* ``threaded_*`` — the thread-pool dispatcher, 4 workers;
* ``process_*`` — the key-sharded process backend: worker processes
  mapping the corridor artifacts from shared memory.

The committed ``BENCH_pr6.json`` also holds a ``batched_*`` mode, the
dispatcher's former micro-batching window; that mode no longer exists.

Unlike ``bench_pr5.py``, the timer brackets *serving only* — requests
are built up front and the human-reference synthesis of the full fleet
study is out of scope — so the ratios measure the dispatcher, not the
simulator.  Two gates:

* **identity** — every mode must return bit-identical responses to
  serial serving (profile arrays, energies, trip times, and the
  cache-hit flag per vehicle);
* **throughput** — the best parallel mode must beat serial by the
  ``--gate`` factor (2.0 for the full run, 1.0 for the reduced one: the
  bug was being *slower* than serial).  The report is written first, so
  a failed gate still leaves its numbers behind.

Record ``os.cpu_count()`` with any result: both backends need more than
one core to win.

Usage::

    PYTHONPATH=src python benchmarks/bench_pr6.py [--out BENCH_pr6.json]
    PYTHONPATH=src python benchmarks/bench_pr6.py --reduced --gate 1.0
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from typing import List, Optional

import numpy as np

from repro.cloud.dispatcher import PlanDispatcher
from repro.cloud.messages import PlanRequest, PlanResponse
from repro.cloud.service import CloudPlannerService
from repro.core.engine import ArtifactStore
from repro.core.planner import PlannerConfig, QueueAwareDpPlanner
from repro.route.us25 import us25_greenville_segment
from repro.units import vehicles_per_hour_to_per_second

RATE = vehicles_per_hour_to_per_second(300.0)
CONFIG = PlannerConfig(v_step_ms=1.0, s_step_m=25.0, t_bin_s=2.0)
FLEET_RATE_VPH = 120.0
DURATION_S = 1800.0
START_S = 300.0
SEED = 5
WORKERS = 4


def _build_service() -> CloudPlannerService:
    road = us25_greenville_segment()
    planner = QueueAwareDpPlanner(
        road, arrival_rates=RATE, config=CONFIG, store=ArtifactStore()
    )
    return CloudPlannerService(planner)


def _requests(duration_s: float) -> List[PlanRequest]:
    """The same Poisson departures a ``FleetStudy(seed=SEED)`` would draw."""
    rng = np.random.default_rng(SEED)
    n = rng.poisson(FLEET_RATE_VPH * duration_s / 3600.0)
    departures = np.sort(rng.uniform(START_S, START_S + duration_s, size=n))
    return [
        PlanRequest(vehicle_id=f"ev{i}", depart_s=float(d))
        for i, d in enumerate(departures)
    ]


def _serve(requests: List[PlanRequest], workers: int, backend: str = "thread"):
    """Serve one cold-cache pass; returns ``(outcomes, wall_s, dispatch)``."""
    service = _build_service()
    if workers == 0:
        t0 = time.perf_counter()
        outcomes = []
        for req in requests:
            try:
                outcomes.append(service.request(req))
            except Exception as exc:  # noqa: BLE001 - outcome, not a crash
                outcomes.append(exc)
        return outcomes, time.perf_counter() - t0, None
    dispatcher = PlanDispatcher(service, workers=workers, backend=backend)
    try:
        t0 = time.perf_counter()
        outcomes = dispatcher.submit_many(requests, return_exceptions=True)
        wall = time.perf_counter() - t0
    finally:
        dispatcher.shutdown()
    return outcomes, wall, dispatcher.stats()


def _timed(rounds: int, **kwargs):
    """Median serving wall over ``rounds`` cold passes (same outcomes)."""
    samples = []
    outcomes = dispatch = None
    for _ in range(rounds):
        outcomes, wall, dispatch = _serve(**kwargs)
        samples.append(wall)
    return outcomes, statistics.median(samples), dispatch


def _assert_identical(name: str, outcomes, reference) -> None:
    assert len(outcomes) == len(reference), f"{name}: fleet size diverged"
    for got, want in zip(outcomes, reference):
        if isinstance(want, Exception):
            assert isinstance(got, Exception), f"{name}: {want} became a plan"
            assert str(got) == str(want), f"{name}: error text diverged"
            continue
        assert isinstance(got, PlanResponse), f"{name}: {got!r} for {want.vehicle_id}"
        assert got.vehicle_id == want.vehicle_id
        assert got.energy_mah == want.energy_mah, f"{name}: energy diverged"
        assert got.trip_time_s == want.trip_time_s, f"{name}: trip time diverged"
        assert got.cache_hit == want.cache_hit, f"{name}: cache economics diverged"
        assert np.array_equal(got.profile.positions_m, want.profile.positions_m)
        assert np.array_equal(got.profile.speeds_ms, want.profile.speeds_ms)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="PR 6 serving-throughput bench (thread and process backends)."
    )
    parser.add_argument("--out", default="BENCH_pr6.json", help="report destination")
    parser.add_argument(
        "--reduced",
        action="store_true",
        help="shorter fleet, one round, serial vs threaded only",
    )
    parser.add_argument("--workers", type=int, default=WORKERS)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        help="fail unless best-mode throughput >= gate x serial "
        "(default: 2.0 full, 1.0 reduced)",
    )
    args = parser.parse_args(argv)
    duration_s = 900.0 if args.reduced else DURATION_S
    rounds = 1 if args.reduced else args.rounds
    gate = args.gate if args.gate is not None else (1.0 if args.reduced else 2.0)

    requests = _requests(duration_s)
    print(f"fleet: {len(requests)} departures over {duration_s:.0f} s")

    serial, serial_s, _ = _timed(rounds, requests=requests, workers=0)
    threaded, threaded_s, threaded_stats = _timed(
        rounds, requests=requests, workers=args.workers
    )
    _assert_identical("threaded", threaded, serial)

    modes = {"threaded": threaded_s}
    report = {
        "bench": "pr6-parallel-serving",
        "grid": {"v_step_ms": 1.0, "s_step_m": 25.0, "t_bin_s": 2.0},
        "fleet": {
            "rate_vph": FLEET_RATE_VPH,
            "duration_s": duration_s,
            "seed": SEED,
            "vehicles": len(requests),
        },
        "cpu_count": os.cpu_count(),
        "workers": args.workers,
        "rounds": rounds,
        "reduced": bool(args.reduced),
        "serial_wall_s": round(serial_s, 4),
        "threaded_wall_s": round(threaded_s, 4),
        "threaded_vs_serial": round(serial_s / threaded_s, 2),
        "dispatcher": {
            "leaders": threaded_stats.leaders,
            "coalesced": threaded_stats.coalesced,
        },
        "identical_to_serial": True,
    }

    if not args.reduced:
        process, process_s, _ = _timed(
            rounds, requests=requests, workers=args.workers, backend="process"
        )
        _assert_identical("process", process, serial)
        modes["process"] = process_s
        report["process_wall_s"] = round(process_s, 4)
        report["process_vs_serial"] = round(serial_s / process_s, 2)

    best = min(modes, key=modes.get)
    speedup = serial_s / modes[best]
    report["best_mode"] = best
    report["dispatched_vs_serial"] = round(speedup, 2)
    report["gate"] = gate

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    assert speedup >= gate, (
        f"best parallel mode ({best}) is only {speedup:.2f}x serial, "
        f"gate is {gate:.1f}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
