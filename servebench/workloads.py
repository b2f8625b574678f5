"""The three workloads: ``warm_wire``, ``cold_fleet`` and ``replan_stream``.

Why each exists, its traffic properties and the layer each one loads are
written down in ``servebench/WORKLOADS.md``.  Every workload makes its
inputs from the seed, measures for the given seconds, checks its outputs
and returns an :class:`Outcome`.  An untraced run returns every figure
the workload measures; a traced run measures the first half of its time
untraced and the second half traced, and returns the per-layer metrics.
The change in the workload's headline figure between the two halves is
the tracing overhead.

The seed moves departures by whole common signal periods and draws the
traffic (which key, which vehicle, when, in what order); the signal
phases the planner solves for are fixed.  So every seed poses the same
amount of planning work, and the spread between seeds is timing noise.

The in-process workloads repeat identical work, and a request's latency
is its fastest repeat (as ``timeit`` reports).  Interference from other
tenants of the host slows identical DP work by up to 1.7x for tens of
seconds at a time; the fastest repeat is the figure that does not move
with it.  ``warm_wire``'s closed loop likewise reports its best window's
rate.  Its open loop times distinct requests from their due time and
keeps the plain median: those round trips barely move with the host.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.messages import PlanRequest
from repro.cloud.netclient import NetworkPlanTransport
from repro.cloud.router import PlanRouter
from repro.errors import CloudUnavailableError, ServerOverloadError

from servebench import server_proc
from servebench.common import (
    best_window_rate,
    build_stack,
    common_period_s,
    due_latencies,
    highest_supported_percentile,
    median,
    min_samples_for,
    peak_rss_mb,
    percentile,
    phase_departures,
    plan_digest,
    same_plan,
    usable_cpus,
)
from servebench.layers import per_layer_metrics
from servebench.tracing import Span, Tracer

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does besides its measured seconds."""

    setups: int = 5                  # stack builds per run; setup_s is their median
    primed_per_corridor: int = 8     # warm_wire: phase-cache keys per corridor, primed in set-up
    period_multiples: int = 60       # warm_wire: departures are primed + m * period, m <= this
    offered_rps: float = 200.0       # warm_wire: open-loop Poisson rate
    open_share: float = 0.6          # warm_wire: share of the time spent in the open loop
    connections: int = 2             # warm_wire: generator threads, each one connection
    capacity_window_s: float = 2.0   # warm_wire: capacity is the best closed-loop window's rate
    fleet_per_corridor: int = 5      # cold_fleet: vehicles per corridor per round
    fleet_periods: int = 10          # cold_fleet: departures fall within this many periods
    min_rounds: int = 20             # cold_fleet: rounds at least, however short the time
    replan_sources_per_corridor: int = 4   # replan_stream: planned trips states come from
    replan_states: int = 100         # replan_stream: distinct feasible states; the p90 needs 100
    replan_delay_s: float = 4.0      # replan_stream: delays spread over [0, this)


@dataclass
class Outcome:
    """What one run reports: figure (or per-layer metric) name → value."""

    values: Dict[str, float]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    meta: Dict[str, object] = field(default_factory=dict)


def _tail(latencies_s: Sequence[float]) -> Dict[str, object]:
    """The highest percentile the sample supports, with the sample count."""
    q = highest_supported_percentile(len(latencies_s))
    return {
        "samples": len(latencies_s),
        "highest_percentile": q,
        "highest_percentile_ms": None if q is None else percentile(latencies_s, q) * 1e3,
    }


def _setups(tracer: Optional[Tracer], sizes: Sizes) -> Tuple[PlanRouter, List[float]]:
    """Build the stack ``sizes.setups`` times; keep the last one."""
    if tracer is not None:
        tracer.install_setup()
    times = []
    router = None
    for _ in range(sizes.setups):
        router = None
        t0 = time.perf_counter()
        router = build_stack()
        times.append(time.perf_counter() - t0)
    return router, times


def _delta(before, after):
    return {k: after[k] - before[k] for k in after}


def _errors(failed: int) -> Dict[str, int]:
    return {"failed": failed, "refused": 0, "timed_out": 0}


# ----------------------------------------------------------------------
# Golden plans: fixed inputs whose digests were recorded at this commit
# ----------------------------------------------------------------------
GOLDEN_DEPARTURES = (7.5, 31.5, 250.5)
GOLDEN_REPLAN_FRACTIONS = (1 / 3, 2 / 3)
GOLDEN_REPLAN_DELAY_S = 6.0


def golden_outcomes(router: PlanRouter) -> Dict[str, Dict[str, object]]:
    """Digest and failure count of the fixed fleet and its fixed replans.

    Serves on cold plan caches and leaves them cold.
    """
    router.clear_cache()
    fleet = [
        PlanRequest(vehicle_id=f"golden-{cid}-{i}", depart_s=d, corridor_id=cid)
        for cid in router.catalog.ids()
        for i, d in enumerate(GOLDEN_DEPARTURES)
    ]
    outs = router.request_batch(fleet)
    plans = [o for o in outs if not isinstance(o, Exception)]
    replans, replan_failures = [], 0
    for k, plan in enumerate(plans):
        profile = plan.profile
        arrivals = profile.arrival_times_s
        for frac in GOLDEN_REPLAN_FRACTIONS:
            idx = int(frac * (profile.positions_m.size - 1))
            req = PlanRequest(
                vehicle_id=f"golden-replan-{k}-{idx}",
                depart_s=float(arrivals[idx]) + GOLDEN_REPLAN_DELAY_S,
                position_m=float(profile.positions_m[idx]),
                speed_ms=float(profile.speeds_ms[idx]),
                corridor_id=plan.corridor_id,
            )
            try:
                replans.append(router.request(req))
            except Exception:  # noqa: BLE001 - infeasibility is what is counted
                replan_failures += 1
    router.clear_cache()
    return {
        "cold_fleet": {"digest": plan_digest(plans), "failures": len(outs) - len(plans)},
        "replan_stream": {"digest": plan_digest(replans), "failures": replan_failures},
    }


def _golden_checks(router: PlanRouter, names: Sequence[str]) -> Dict[str, bool]:
    recorded = json.loads(GOLDEN_PATH.read_text())
    got = golden_outcomes(router)
    checks = {}
    for name in names:
        checks[f"{name}.golden_digest"] = got[name]["digest"] == recorded[name]["digest"]
        checks[f"{name}.golden_failures"] = got[name]["failures"] == recorded[name]["failures"]
    return checks


# ----------------------------------------------------------------------
# warm_wire
# ----------------------------------------------------------------------
@dataclass
class _WirePhase:
    """One measured phase of ``warm_wire`` (open loop, then closed loop)."""

    latencies: np.ndarray
    lags: np.ndarray
    closed_count: int
    capacity_rps: float
    sent: List[Tuple[PlanRequest, object]]
    errors: Dict[str, int]

    @property
    def attempted(self) -> int:
        return len(self.sent) + sum(self.errors.values())


def _classify(exc: Exception) -> str:
    if isinstance(exc, ServerOverloadError):
        return "refused"
    if isinstance(exc, CloudUnavailableError) and exc.reason == "timeout":
        return "timed_out"
    return "failed"


def _run_threads(target, args_list, timeout_s: float) -> None:
    threads = [threading.Thread(target=target, args=args, daemon=True) for args in args_list]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout_s)
        if t.is_alive():
            raise RuntimeError("generator thread did not finish")


def _wire_phase(transports, primed, periods, seconds, sizes, seed_key, tracer=None) -> _WirePhase:
    """Open loop at the offered rate, then the same connections closed loop."""
    rng = np.random.default_rng(seed_key)
    open_s = seconds * sizes.open_share
    gaps = rng.exponential(1.0 / sizes.offered_rps, size=int(sizes.offered_rps * open_s * 2) + 64)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < open_s]
    n = offsets.size
    picks = rng.integers(len(primed), size=n)
    multiples = rng.integers(1, sizes.period_multiples + 1, size=n)
    prefix = f"ww{seed_key[1]}-{seed_key[2]}"

    def make(tag: str, i: int, pick: int, m: int) -> PlanRequest:
        cid, depart = primed[pick]
        return PlanRequest(vehicle_id=f"{prefix}-{tag}{i}",
                           depart_s=depart + m * periods[cid], corridor_id=cid)

    reqs = [make("o", i, picks[i], multiples[i]) for i in range(n)]
    sent_at = np.zeros(n)
    done_at = np.zeros(n)
    sent: List[List[Tuple[PlanRequest, object]]] = [[] for _ in transports]
    errors: Dict[str, int] = _errors(0)
    lock = threading.Lock()
    counter = itertools.count()

    def call(transport, req):
        if tracer is None:
            return transport.request(req)
        with tracer.root("client.request", req.vehicle_id):
            return transport.request(req)

    def send(k: int, transport, req) -> bool:
        try:
            sent[k].append((req, call(transport, req)))
            return True
        except Exception as exc:  # noqa: BLE001 - counted, then the run fails its checks
            with lock:
                errors[_classify(exc)] += 1
            return False

    t_start = time.perf_counter()
    due = t_start + offsets

    def open_worker(k: int, transport) -> None:
        while True:
            i = next(counter)
            if i >= n:
                return
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent_at[i] = time.perf_counter()
            send(k, transport, reqs[i])
            done_at[i] = time.perf_counter()

    _run_threads(open_worker, list(enumerate(transports)), timeout_s=open_s + 120.0)

    closed_done: List[List[float]] = [[] for _ in transports]
    closed_start = time.perf_counter()
    closed_end = closed_start + seconds - open_s

    def closed_worker(k: int, transport) -> None:
        local = np.random.default_rng(seed_key + (k,))
        i = 0
        while time.perf_counter() < closed_end:
            req = make(f"c{k}-", i, int(local.integers(len(primed))),
                       int(local.integers(1, sizes.period_multiples + 1)))
            i += 1
            if send(k, transport, req):
                closed_done[k].append(time.perf_counter())

    _run_threads(closed_worker, list(enumerate(transports)), timeout_s=seconds + 120.0)
    done = np.concatenate([np.asarray(d) for d in closed_done])
    return _WirePhase(
        latencies=due_latencies(due, done_at),
        lags=sent_at - due,
        closed_count=int(done.size),
        capacity_rps=best_window_rate(done, closed_start, time.perf_counter(),
                                      sizes.capacity_window_s),
        sent=[pair for chunk in sent for pair in chunk],
        errors=errors,
    )


def _recv(conn, timeout_s: float, what: str):
    if not conn.poll(timeout_s):
        raise RuntimeError(f"plan server process sent no {what} within {timeout_s:.0f} s")
    return conn.recv()


def _primed_keys(sizes: Sizes):
    """The primed departures: the same phase bins on every run, spread over the period."""
    probe = build_stack()
    primed, periods = [], {}
    for cid in probe.catalog.ids():
        periods[cid] = common_period_s(probe, cid)
        primed.extend((cid, d) for d in phase_departures(periods[cid], sizes.primed_per_corridor))
    return primed, periods


def warm_wire(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Outcome:
    primed, periods = _primed_keys(sizes)
    proc, conn = server_proc.start(primed, sizes.setups, trace)
    transports: List[NetworkPlanTransport] = []
    try:
        _, port, setup_times = _recv(conn, 300.0, "ready message")
        n_conn = max(1, min(sizes.connections, usable_cpus()))
        transports = [NetworkPlanTransport("127.0.0.1", port, timeout_s=60.0)
                      for _ in range(n_conn)]
        for k, transport in enumerate(transports):  # connect outside the timed phases
            cid, depart = primed[k % len(primed)]
            transport.request(PlanRequest(vehicle_id=f"warmup-{k}", depart_s=depart,
                                          corridor_id=cid))
        half = seconds / 2.0 if trace else seconds
        phases = [_wire_phase(transports, primed, periods, half, sizes, (seed, 0, 0))]
        tracer = None
        if trace:
            conn.send(("trace",))
            tracer = Tracer()
            tracer.install_client()
            try:
                phases.append(_wire_phase(transports, primed, periods, half, sizes,
                                          (seed, 0, 1), tracer))
            finally:
                tracer.uninstall()
        for transport in transports:
            transport.close()
        conn.send(("stop",))
        _, reply = _recv(conn, 120.0, "final stats")
        proc.wait(timeout=60.0)
    finally:
        for transport in transports:
            transport.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30.0)
        conn.close()

    checks, energy = _wire_checks(phases, primed, reply["document"], n_conn)
    errors = {k: sum(p.errors[k] for p in phases) for k in phases[0].errors}
    attempted = sum(p.attempted for p in phases)
    failed = sum(errors.values())
    first = phases[0]
    meta = {
        "offered_rps": sizes.offered_rps,
        "generator": {
            "threads": n_conn,
            "connections": n_conn,
            "open_loop_requests": int(first.latencies.size),
            "closed_loop_requests": first.closed_count,
            "generator_lag_p99_ms": _lag_p99_ms(first.lags),
        },
        "open_loop_tail": _tail(first.latencies),
        "errors": errors,
        "primed_keys": len(primed),
        "setup_times_s": setup_times,
    }
    if not trace:
        values = {
            "setup_s": median(setup_times),
            "peak_rss_mb": reply["peak_rss_mb"],
            "error_rate": failed / attempted,
            "latency_p50_ms": percentile(first.latencies, 50.0) * 1e3,
            "latency_p99_ms": percentile(first.latencies, 99.0) * 1e3,
            "capacity_rps": first.capacity_rps,
            "plan_energy_mah": energy,
        }
        return Outcome(values, attempted, failed, checks, meta)

    traced = phases[1]
    untraced_p50 = percentile(first.latencies, 50.0)
    spans = tracer.spans + [Span.from_tuple(t) for t in reply["spans"]]
    counts = dict(reply["counts"])
    for k, v in tracer.counts.items():
        counts[k] = counts.get(k, 0) + v
    values, shares = per_layer_metrics(
        spans, counts, reply["sums"], len(traced.sent), reply["delta"], reply["store"],
        reply["setups"], percentile(traced.latencies, 50.0) / untraced_p50 - 1.0,
        server=reply["document"]["server"],
        coalesced=reply["document"]["dispatcher"]["coalesced"],
    )
    meta["layer_share_of_round_trip"] = shares
    return Outcome(values, attempted, failed, checks, meta)


def _lag_p99_ms(lags: np.ndarray) -> Optional[float]:
    if lags.size < min_samples_for(99.0):
        return None
    return float(np.percentile(lags, 99.0)) * 1e3


def _wire_checks(phases, primed, document, n_conn) -> Tuple[Dict[str, bool], float]:
    """Bit-identity against the in-process router, hits, corridor accounting.

    Also returns the summed energy of the primed plans, as the in-process
    reference solved them.
    """
    reference = build_stack()
    energy = float(sum(p.energy_mah for p in server_proc.prime(reference, primed)))
    answers: Dict[Tuple[str, float], object] = {}
    identical = all_hits = same_corridor = True
    sent_per_corridor: Dict[str, int] = {}
    for phase in phases:
        for req, resp in phase.sent:
            key = (req.corridor_id, req.depart_s)
            if key not in answers:
                answers[key] = reference.request(replace(req, vehicle_id="reference"))
            want = replace(answers[key], vehicle_id=req.vehicle_id)
            identical &= same_plan(resp, want)
            all_hits &= bool(resp.cache_hit)
            same_corridor &= resp.corridor_id == req.corridor_id
            sent_per_corridor[req.corridor_id] = sent_per_corridor.get(req.corridor_id, 0) + 1
    for k in range(n_conn):  # the connection warm-up requests
        cid = primed[k % len(primed)][0]
        sent_per_corridor[cid] = sent_per_corridor.get(cid, 0) + 1
    corridors = document["corridors"]
    invariant = hits_match = no_revalidation_miss = True
    primed_per_corridor: Dict[str, int] = {}
    for cid, _ in primed:
        primed_per_corridor[cid] = primed_per_corridor.get(cid, 0) + 1
    for cid, entry in corridors.items():
        s = entry["service"]
        invariant &= s["requests"] == s["cache_hits"] + s["cache_misses"] + s["errors"]
        hits_match &= s["cache_hits"] == sent_per_corridor.get(cid, 0)
        hits_match &= s["cache_misses"] == primed_per_corridor.get(cid, 0)
        no_revalidation_miss &= s["revalidation_misses"] == 0
    return {
        "warm_wire.bit_identical_to_in_process": identical,
        "warm_wire.every_request_a_revalidated_hit": all_hits and no_revalidation_miss,
        "warm_wire.no_cross_corridor_hit": same_corridor and hits_match,
        "warm_wire.requests_eq_hits_misses_errors": invariant,
    }, energy


# ----------------------------------------------------------------------
# cold_fleet
# ----------------------------------------------------------------------
def _fleet(router: PlanRouter, seed: int, stream: int, per_corridor: int,
           periods: int, shuffle: bool = True) -> List[Tuple[str, float]]:
    """``per_corridor`` departures on each corridor.

    Each corridor's departures sit on fixed phases spread over its common
    signal period; the seed moves each by a whole number of periods, up
    to ``periods - 1``, and (with ``shuffle``) interleaves the corridors
    in a seeded order.  Unshuffled, the fleet is in corridor and phase
    order.
    """
    rng = np.random.default_rng([seed, stream])
    fleet = []
    for cid in router.catalog.ids():
        period = common_period_s(router, cid)
        for phase in phase_departures(period, per_corridor):
            fleet.append((cid, phase + period * int(rng.integers(periods))))
    if not shuffle:
        return fleet
    order = rng.permutation(len(fleet))
    return [fleet[i] for i in order]


def _fleet_round(router, fleet, tag: str, tracer=None):
    reqs = [PlanRequest(vehicle_id=f"cf-{tag}-{i}", depart_s=d, corridor_id=cid)
            for i, (cid, d) in enumerate(fleet)]
    router.clear_cache()
    t0 = time.perf_counter()
    if tracer is None:
        outs = router.request_batch(reqs)
    else:
        with tracer.root("bench.request_batch"):
            outs = router.request_batch(reqs)
    return time.perf_counter() - t0, outs


def _fleet_rounds(router, fleet, seconds, min_rounds, tag, tracer=None):
    times, digests, failures, energy = [], set(), 0, None
    end = time.perf_counter() + seconds
    while len(times) < min_rounds or time.perf_counter() < end:
        dt, outs = _fleet_round(router, fleet, f"{tag}{len(times)}", tracer)
        plans = [o for o in outs if not isinstance(o, Exception)]
        failures += len(outs) - len(plans)
        digests.add(plan_digest(plans))
        if energy is None:
            energy = float(sum(p.energy_mah for p in plans))
        times.append(dt)
    return {
        "times": times,
        "best_s": min(times),
        "requests": len(times) * len(fleet),
        "plans_per_s": len(fleet) / min(times),
        "failures": failures,
        "digests": digests,
        "energy": energy,
    }


def cold_fleet(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Outcome:
    tracer = Tracer() if trace else None
    router, setup_times = _setups(tracer, sizes)
    store = router.artifact_store.stats()
    checks = _golden_checks(router, ["cold_fleet"])
    fleet = _fleet(router, seed, 2, sizes.fleet_per_corridor, sizes.fleet_periods)
    half = seconds / 2.0 if trace else seconds
    min_rounds = 3 if trace else sizes.min_rounds
    first = _fleet_rounds(router, fleet, half, min_rounds, "u")
    phases = [first]
    if trace:
        before = server_proc.counters(router)
        tracer.install_core()
        try:
            phases.append(_fleet_rounds(router, fleet, half, min_rounds, "t", tracer))
        finally:
            tracer.uninstall()
        delta = _delta(before, server_proc.counters(router))
    digests = set().union(*(p["digests"] for p in phases))
    failures = sum(p["failures"] for p in phases)
    checks["cold_fleet.rounds_identical"] = len(digests) == 1
    checks["cold_fleet.no_failures"] = failures == 0
    attempted = sum(p["requests"] for p in phases)
    meta = {
        "fleet": len(fleet),
        "rounds": [len(p["times"]) for p in phases],
        "round_times_s": [round(t, 4) for p in phases for t in p["times"]],
        "round_tail": _tail(first["times"]),
        "errors": _errors(failures),
        "setup_times_s": setup_times,
        "plan_digest": sorted(digests)[0],
    }
    if not trace:
        values = {
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "error_rate": failures / attempted,
            # Every vehicle of a round waits for the whole batch, and every
            # round serves the same fleet: each vehicle's latency is the
            # fastest round, so their p50 is that round's time.
            "latency_p50_ms": first["best_s"] * 1e3,
            "plans_per_s": first["plans_per_s"],
            "capacity_rps": first["plans_per_s"],
            "plan_energy_mah": first["energy"],
        }
        return Outcome(values, attempted, failures, checks, meta)
    traced = phases[1]
    values, shares = per_layer_metrics(
        tracer.spans, tracer.counts, tracer.sums, traced["requests"], delta,
        {"hits": store.hits, "misses": store.misses}, sizes.setups,
        first["plans_per_s"] / traced["plans_per_s"] - 1.0,
    )
    meta["layer_share_of_serving"] = shares
    return Outcome(values, attempted, failures, checks, meta)


# ----------------------------------------------------------------------
# replan_stream
# ----------------------------------------------------------------------
#: Spreads the replan delays over their range independently of the position.
_GOLDEN_FRACTION = (5 ** 0.5 - 1) / 2


def _replan_states(router, seed: int, sizes: Sizes):
    """Feasible mid-route states, taken from planned trips and then delayed.

    A state is a point of a planned trajectory (position, speed, arrival
    time) pushed later by a delay, as if traffic had held the vehicle
    back.  The k-th candidate comes from trip ``k`` round robin, at
    ``(k + 1/2) / replan_states`` of its length, delayed by a fixed
    low-discrepancy share of ``replan_delay_s``; the trips' departures
    carry the seed's whole-period shifts, and the seed orders the states.
    Each candidate is solved once; an infeasible one (the vehicle can no
    longer reach a window it must hit) is dropped and the next candidate
    taken, so the measured stream holds no failing operation.
    """
    rng = np.random.default_rng([seed, 3])
    sources = _fleet(router, seed, 4, sizes.replan_sources_per_corridor, sizes.fleet_periods,
                     shuffle=False)
    router.clear_cache()
    outs = router.request_batch([
        PlanRequest(vehicle_id=f"src-{i}", depart_s=d, corridor_id=cid)
        for i, (cid, d) in enumerate(sources)
    ])
    router.clear_cache()
    plans = [o for o in outs if not isinstance(o, Exception)]
    n = sizes.replan_states
    states, answers, screened_out = [], [], 0
    for k in range(n * 4):
        if len(states) == n:
            break
        profile = plans[k % len(plans)].profile
        idx = 1 + int(((k % n) + 0.5) / n * (profile.positions_m.size - 2))
        delay = sizes.replan_delay_s * ((k * _GOLDEN_FRACTION) % 1.0)
        state = (plans[k % len(plans)].corridor_id,
                 float(profile.arrival_times_s[idx]) + delay,
                 float(profile.positions_m[idx]), float(profile.speeds_ms[idx]))
        try:
            answers.append(router.request(_replan_request(state, f"screen-{k}")))
        except Exception:  # noqa: BLE001 - an infeasible state is not replayed
            screened_out += 1
            continue
        states.append(state)
    order = rng.permutation(len(states))
    return [states[i] for i in order], [answers[i] for i in order], screened_out


def _replan_request(state, vehicle_id: str) -> PlanRequest:
    cid, t, pos, speed = state
    return PlanRequest(vehicle_id=vehicle_id, depart_s=t, position_m=pos,
                       speed_ms=speed, corridor_id=cid)


def _replan_loop(router, states, seconds, tag, tracer=None):
    """Replay the states round robin, each at least once; each one's fastest replan."""
    latencies, served, failures = [], [], 0
    best = np.full(len(states), np.inf)
    end = time.perf_counter() + seconds
    i = 0
    while i < len(states) or time.perf_counter() < end:
        k = i % len(states)
        req = _replan_request(states[k], f"rs-{tag}{i}")
        i += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                resp = router.request(req)
            else:
                with tracer.root("bench.request", req.vehicle_id):
                    resp = router.request(req)
        except Exception:  # noqa: BLE001 - counted and fails the run's checks
            failures += 1
            continue
        latencies.append(time.perf_counter() - t0)
        best[k] = min(best[k], latencies[-1])
        served.append((k, plan_digest([resp])))
    return {"latencies": latencies, "best": best[np.isfinite(best)], "served": served,
            "failures": failures}


def replan_stream(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Outcome:
    tracer = Tracer() if trace else None
    router, setup_times = _setups(tracer, sizes)
    store = router.artifact_store.stats()
    checks = _golden_checks(router, ["cold_fleet", "replan_stream"])
    states, answers, screened_out = _replan_states(router, seed, sizes)
    half = seconds / 2.0 if trace else seconds
    first = _replan_loop(router, states, half, "u")
    phases = [first]
    if trace:
        before = server_proc.counters(router)
        tracer.install_core()
        try:
            phases.append(_replan_loop(router, states, half, "t", tracer))
        finally:
            tracer.uninstall()
        delta = _delta(before, server_proc.counters(router))
    expected = [plan_digest([a]) for a in answers]
    checks["replan_stream.replans_repeat_their_plan"] = all(
        digest == expected[k] for p in phases for k, digest in p["served"]
    )
    failures = sum(p["failures"] for p in phases)
    checks["replan_stream.no_failures"] = failures == 0
    checks["replan_stream.enough_states"] = len(states) == sizes.replan_states
    attempted = sum(len(p["latencies"]) + p["failures"] for p in phases)
    meta = {
        "states": len(states),
        "screened_out": screened_out,
        "replans": [len(p["latencies"]) for p in phases],
        "fastest_replan_tail": _tail(first["best"]),
        "errors": _errors(failures),
        "setup_times_s": setup_times,
    }
    if not trace:
        values = {
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "error_rate": failures / attempted,
            "latency_p50_ms": percentile(first["best"], 50.0) * 1e3,
            "latency_p90_ms": percentile(first["best"], 90.0) * 1e3,
            "capacity_rps": len(first["best"]) / float(np.sum(first["best"])),
            "plan_energy_mah": float(sum(a.energy_mah for a in answers)),
        }
        return Outcome(values, attempted, failures, checks, meta)
    traced = phases[1]
    values, shares = per_layer_metrics(
        tracer.spans, tracer.counts, tracer.sums, len(traced["latencies"]), delta,
        {"hits": store.hits, "misses": store.misses}, sizes.setups,
        percentile(traced["best"], 50.0) / percentile(first["best"], 50.0) - 1.0,
    )
    meta["layer_share_of_serving"] = shares
    return Outcome(values, attempted, failures, checks, meta)


WORKLOADS = {
    "warm_wire": warm_wire,
    "cold_fleet": cold_fleet,
    "replan_stream": replan_stream,
}
