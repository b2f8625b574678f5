"""Standalone PR 9 bench: writes the committed ``BENCH_pr9.json``.

Two gated claims back the multi-corridor serving stack:

* ``bit_identity`` — a single-corridor request stream served through
  :class:`~repro.cloud.router.PlanRouter` (catalog + corridor service)
  is bit-identical to the PR 8 direct :class:`CloudPlannerService` path:
  same plans (energies and profile arrays), same counters, and the
  serving invariant ``requests == cache_hits + cache_misses + errors``
  holds on the routed corridor's service exactly as it does on the
  direct service.
* ``isolation`` — a three-corridor interleaved stream (identical
  departure phases and budgets on every corridor, the worst case for
  key collisions) shows **zero cross-corridor cache hits**: each
  corridor's hit/miss counters and served energies match its own
  single-corridor baseline exactly, every corridor's warm hit rate
  equals the single-corridor warm hit rate, and no request is rejected
  by the guard layer.  Warm multi-corridor throughput through the
  router is reported and floor-gated.

Usage::

    PYTHONPATH=src python benchmarks/bench_pr9.py [--reduced] [--out F]

``--reduced`` shortens the streams for CI; the gates are identical in
both modes.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import List, Optional

import numpy as np

from repro.cloud.messages import PlanRequest
from repro.cloud.registry import builtin_catalog
from repro.cloud.router import PlanRouter
from repro.core.planner import PlannerConfig

CONFIG = PlannerConfig(
    v_step_ms=1.0, s_step_m=50.0, t_bin_s=2.0, horizon_s=500.0, window_margin_s=2.0
)
#: Departure phases every corridor is probed at (exact repeats across
#: rounds, so the phase cache warms deterministically).
PHASES = (30.0, 44.0, 58.0)


def _requests(corridor_id: str, rounds: int) -> List[PlanRequest]:
    return [
        PlanRequest(
            vehicle_id=f"{corridor_id}-r{r}-p{p}",
            depart_s=depart,
            corridor_id=corridor_id,
        )
        for r in range(rounds)
        for p, depart in enumerate(PHASES)
    ]


def _fingerprint(response) -> tuple:
    return (
        response.energy_mah,
        response.trip_time_s,
        tuple(np.asarray(response.profile.positions_m).tolist()),
        tuple(np.asarray(response.profile.speeds_ms).tolist()),
    )


def _bit_identity(rounds: int):
    """Routed single-corridor serving vs the PR 8 direct service."""
    direct = builtin_catalog(config=CONFIG).service("us25")
    router = PlanRouter(builtin_catalog(config=CONFIG))
    stream = _requests("us25", rounds)
    mismatches = 0
    for req in stream:
        a = direct.request(req)
        b = router.request(req)
        if _fingerprint(a) != _fingerprint(b) or a.cache_hit != b.cache_hit:
            mismatches += 1
    direct_stats = direct.stats_snapshot()
    routed_stats = router.per_corridor_services()["us25"].stats_snapshot()
    counters_match = all(
        getattr(direct_stats, name) == getattr(routed_stats, name)
        for name in ("requests", "cache_hits", "cache_misses", "errors")
    )
    invariant = (
        routed_stats.requests
        == routed_stats.cache_hits + routed_stats.cache_misses + routed_stats.errors
    )
    return {
        "stream_len": len(stream),
        "mismatches": mismatches,
        "counters_match": counters_match,
        "corridor_invariant": invariant,
        "requests": routed_stats.requests,
        "cache_hits": routed_stats.cache_hits,
        "cache_misses": routed_stats.cache_misses,
        "errors": routed_stats.errors,
    }


def _isolation(rounds: int):
    """Interleaved three-corridor stream vs per-corridor baselines."""
    corridor_ids = builtin_catalog(config=CONFIG).ids()

    # Single-corridor baselines: each corridor serves its own stream on
    # a fresh stack.
    baseline = {}
    for cid in corridor_ids:
        service = builtin_catalog(config=CONFIG).service(cid)
        energies = [service.request(req).energy_mah for req in _requests(cid, rounds)]
        baseline[cid] = (service.stats_snapshot(), energies)

    # Routed: the same streams interleaved round-robin through one
    # router — identical phases and budgets on every corridor, so any
    # cross-corridor key collision would surface as a wrong hit here.
    router = PlanRouter(builtin_catalog(config=CONFIG))
    streams = {cid: _requests(cid, rounds) for cid in corridor_ids}
    interleaved = [
        streams[cid][k]
        for k in range(rounds * len(PHASES))
        for cid in corridor_ids
    ]
    routed_energy: dict = {cid: [] for cid in corridor_ids}
    for req in interleaved:
        routed_energy[req.corridor_id].append(router.request(req).energy_mah)

    per_corridor = {}
    cross_corridor_hits = 0
    guard_rejections = 0
    warm_rates_match = True
    for cid in corridor_ids:
        base_stats, base_energy = baseline[cid]
        routed_stats = router.per_corridor_services()[cid].stats_snapshot()
        cross_corridor_hits += routed_stats.cache_hits - base_stats.cache_hits
        guard_rejections += routed_stats.errors
        if routed_stats.hit_rate != base_stats.hit_rate:
            warm_rates_match = False
        per_corridor[cid] = {
            "requests": routed_stats.requests,
            "cache_hits": routed_stats.cache_hits,
            "cache_misses": routed_stats.cache_misses,
            "errors": routed_stats.errors,
            "hit_rate": round(routed_stats.hit_rate, 4),
            "baseline_hit_rate": round(base_stats.hit_rate, 4),
            "energies_match_baseline": routed_energy[cid] == base_energy,
            "invariant": (
                routed_stats.requests
                == routed_stats.cache_hits
                + routed_stats.cache_misses
                + routed_stats.errors
            ),
        }

    # Warm throughput: the whole interleaved stream again, now fully
    # cached — the steady-state serving cost of the routed front.
    t0 = time.perf_counter()
    for req in interleaved:
        router.request(req)
    warm_s = time.perf_counter() - t0
    throughput = len(interleaved) / warm_s if warm_s > 0 else float("inf")

    stats = router.router_stats()
    return {
        "corridors": list(corridor_ids),
        "interleaved_requests": len(interleaved),
        "per_corridor": per_corridor,
        "cross_corridor_cache_hits": cross_corridor_hits,
        "guard_rejections": guard_rejections,
        "warm_hit_rates_match_baseline": warm_rates_match,
        "router_routed": stats.routed,
        "router_rejected": stats.rejected,
        "warm_throughput_rps": round(throughput, 1),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reduced", action="store_true", help="shorten the streams for CI"
    )
    parser.add_argument("--out", default="BENCH_pr9.json", help="output JSON path")
    args = parser.parse_args(argv)

    rounds = 4 if args.reduced else 8
    identity = _bit_identity(rounds)
    isolation = _isolation(rounds)

    report = {
        "bench": "pr9-corridor-sharding",
        "reduced": bool(args.reduced),
        "grid": {
            "v_step_ms": CONFIG.v_step_ms,
            "s_step_m": CONFIG.s_step_m,
            "t_bin_s": CONFIG.t_bin_s,
        },
        "phases_s": list(PHASES),
        "rounds": rounds,
        "bit_identity": identity,
        "isolation": isolation,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))

    assert identity["mismatches"] == 0, (
        f"{identity['mismatches']} routed responses diverged from the "
        "direct service (need bit-identity)"
    )
    assert identity["counters_match"], "routed corridor counters diverged from direct"
    assert identity["corridor_invariant"], (
        "the routed us25 service broke requests == hits + misses + errors"
    )
    assert isolation["cross_corridor_cache_hits"] == 0, (
        f"{isolation['cross_corridor_cache_hits']} cache hits crossed a "
        "corridor boundary"
    )
    assert isolation["guard_rejections"] == 0, (
        f"{isolation['guard_rejections']} requests rejected during the "
        "interleaved fleet"
    )
    assert isolation["warm_hit_rates_match_baseline"], (
        "per-corridor warm hit rates diverged from single-corridor baselines"
    )
    for cid, row in isolation["per_corridor"].items():
        assert row["energies_match_baseline"], (
            f"corridor {cid} served different plans when interleaved"
        )
        assert row["invariant"], f"corridor {cid} broke the serving invariant"
    assert isolation["router_rejected"] == 0
    assert isolation["warm_throughput_rps"] >= 20.0, (
        f"warm routed throughput {isolation['warm_throughput_rps']} req/s "
        "under the 20 req/s floor"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
