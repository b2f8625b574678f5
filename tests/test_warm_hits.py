"""Warm hits answered on the plan server's event loop.

A revalidated plan-cache hit is answered by
``PlanDispatcher.request_cached`` in the caller's thread — the plan
server's event loop — instead of a pool thread.  These tests pin that
path to the pooled one: the same answers and the same counters, nothing
counted when it declines, no DP solve on the loop thread, and per-key
order and the accounting invariants against a second submitter thread.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.cloud import wire
from repro.cloud.dispatcher import PlanDispatcher
from repro.cloud.messages import PlanRequest
from repro.cloud.netclient import NetworkPlanTransport
from repro.cloud.server import serve_in_background
from repro.cloud.service import CloudPlannerService
from repro.core.dp import DpSolver
from repro.core.engine import ArtifactStore
from repro.core.planner import QueueAwareDpPlanner
from repro.units import vehicles_per_hour_to_per_second

RATE = vehicles_per_hour_to_per_second(300.0)
BUDGET = 320.0
PRIMED = (100.0, 117.0)  # two phase bins, each primed with and without a budget


@pytest.fixture(scope="module")
def planner(us25, coarse_config):
    return QueueAwareDpPlanner(us25, RATE, config=coarse_config, store=ArtifactStore())


class GatedService(CloudPlannerService):
    """Holds a request whose vehicle id starts ``held`` until released."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.entered = threading.Event()

    def request(self, req):
        if req.vehicle_id.startswith("held"):
            self.entered.set()
            assert self.gate.wait(30.0), "test forgot to release the gate"
        return super().request(req)


def _primed(planner, cls=CloudPlannerService, **kwargs):
    service = cls(planner, **kwargs)
    for i, depart in enumerate(PRIMED):
        service.request(PlanRequest(f"prime-{i}", depart_s=depart, max_trip_time_s=BUDGET))
        service.request(PlanRequest(f"prime-free-{i}", depart_s=depart))
    return service


def _hits(service, n, tag="hit"):
    """Whole-period shifts of the primed departures, with and without a budget."""
    period = service._period_s
    return [
        PlanRequest(
            f"{tag}-{i}",
            depart_s=PRIMED[i % 2] + period * (1 + i % 7),
            max_trip_time_s=BUDGET if i % 3 else None,
        )
        for i in range(n)
    ]


def _failing_shift(service, depart, budget=BUDGET):
    """A departure in ``depart``'s phase bin whose shifted hit fails revalidation."""
    phase_bin = service._phase_bin(depart)
    key = (phase_bin, int(budget / service.budget_quantum_s))
    profile = service.plan_cache.peek(key)[0]
    for jitter in np.linspace(0.0, service.phase_quantum_s, 41)[1:-1]:
        candidate = depart + 3 * service._period_s + float(jitter)
        if service._phase_bin(candidate) != phase_bin:
            continue
        if not service._revalidate(profile.shifted_to(candidate), candidate):
            return candidate
    raise AssertionError("no shift in the phase bin fails revalidation")


def _books(service, registry):
    """Every counter a served request moves, wall times left out."""
    snapshot = registry.snapshot()
    return (
        replace(service.stats_snapshot(), total_compute_s=0.0),
        service.cache_stats(),
        snapshot["counters"],
        {name: h["count"] for name, h in snapshot["histograms"].items()},
    )


def _same_answer(a, b) -> bool:
    """Equal wire bytes but for the solve's wall time."""
    return wire.encode_response(replace(a, compute_time_s=0.0)) == wire.encode_response(
        replace(b, compute_time_s=0.0)
    )


class TestServiceProbe:
    def test_answers_and_counts_as_request_does(self, planner):
        pooled, probed = _primed(planner), _primed(planner)
        reqs = _hits(pooled, 12)
        with obs.use_registry(obs.MetricsRegistry()) as pooled_registry:
            want = [pooled.request(req) for req in reqs]
        with obs.use_registry(obs.MetricsRegistry()) as probed_registry:
            got = [probed.request_cached(req) for req in reqs]
        assert all(w.cache_hit for w in want)
        assert all(_same_answer(w, g) for w, g in zip(want, got))
        assert _books(probed, probed_registry) == _books(pooled, pooled_registry)
        # A budget-less hit also counted its min-time memo hit.
        assert probed.cache_stats()[1].hits == sum(r.max_trip_time_s is None for r in reqs)

    @pytest.mark.parametrize(
        "case",
        ["cold key", "failed revalidation", "replan", "time objective",
         "cold min-time memo", "other corridor"],
    )
    def test_declines_without_counting(self, planner, case):
        service = _primed(planner, phase_quantum_s=10.0)
        req = {
            "cold key": PlanRequest("ev", depart_s=140.0, max_trip_time_s=BUDGET),
            "failed revalidation": PlanRequest(
                "ev", depart_s=_failing_shift(service, 100.0), max_trip_time_s=BUDGET
            ),
            "replan": PlanRequest("ev", depart_s=300.0, position_m=1500.0, speed_ms=8.0),
            "time objective": PlanRequest("ev", depart_s=100.0, minimize="time"),
            "cold min-time memo": PlanRequest("ev", depart_s=140.0),
            "other corridor": PlanRequest(
                "ev", depart_s=100.0, max_trip_time_s=BUDGET, corridor_id="elm-street"
            ),
        }[case]
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            before = _books(service, registry)
            assert service.request_cached(req) is None
            assert _books(service, registry) == before

    def test_uncacheable_planner_declines(self, us25, coarse_config):
        planner = QueueAwareDpPlanner(us25, lambda t: RATE, config=coarse_config)
        service = CloudPlannerService(planner)
        assert not service.cache_enabled
        assert service.request_cached(PlanRequest("ev", depart_s=100.0)) is None
        assert service.stats_snapshot().requests == 0


class TestDispatcherProbe:
    def test_counts_as_a_first_in_flight_request(self, planner):
        service = _primed(planner)
        reqs = _hits(service, 8)
        with PlanDispatcher(service, workers=2) as dispatcher:
            answers = [dispatcher.request_cached(req) for req in reqs]
            stats = dispatcher.stats()
        assert all(a is not None and a.cache_hit for a in answers)
        assert stats.submitted == stats.completed == stats.leaders == len(reqs)
        assert stats.errors == stats.coalesced == stats.in_flight == 0

    def test_open_flight_leaves_its_key_to_the_pool(self, planner):
        service = _primed(planner, cls=GatedService)
        period = service._period_s
        held = PlanRequest("held", depart_s=100.0 + period, max_trip_time_s=BUDGET)
        same_key = PlanRequest("same", depart_s=100.0 + 2 * period, max_trip_time_s=BUDGET)
        other_key = PlanRequest("other", depart_s=117.0 + period, max_trip_time_s=BUDGET)
        with PlanDispatcher(service, workers=2) as dispatcher:
            future = dispatcher.submit(held)
            assert service.entered.wait(10.0)
            requests_before = service.stats_snapshot().requests
            assert dispatcher.request_cached(same_key) is None
            assert service.stats_snapshot().requests == requests_before
            assert dispatcher.request_cached(other_key).cache_hit
            service.gate.set()
            assert future.result(timeout=30.0).cache_hit
            assert dispatcher.request_cached(same_key).cache_hit
            stats = dispatcher.stats()
        assert stats.submitted == stats.completed == stats.leaders == 3

    def test_service_without_a_probe_is_always_pooled(self):
        class Keyed:
            def coalesce_key(self, req):
                return "k"

        with PlanDispatcher(Keyed(), workers=1) as dispatcher:
            assert dispatcher.request_cached(PlanRequest("ev", depart_s=1.0)) is None
            assert dispatcher.stats().submitted == 0


class TestLoopServing:
    def test_no_dp_solve_runs_on_the_loop_thread(self, planner, monkeypatch):
        solves = []
        pooled = []
        solve, submit = DpSolver.solve, PlanDispatcher.submit

        def spy_solve(self, *args, **kwargs):
            solves.append(threading.current_thread().name)
            return solve(self, *args, **kwargs)

        def spy_submit(self, req, deadline_s=None):
            pooled.append(req.vehicle_id)
            return submit(self, req, deadline_s=deadline_s)

        monkeypatch.setattr(DpSolver, "solve", spy_solve)
        monkeypatch.setattr(PlanDispatcher, "submit", spy_submit)
        service = CloudPlannerService(planner, phase_quantum_s=10.0)
        period = service._period_s
        with serve_in_background(service) as handle:
            transport = NetworkPlanTransport(*handle.address, timeout_s=60.0)

            def serve(req):
                before = len(solves)
                response = transport.request(req)
                return response, solves[before:]

            miss, miss_solves = serve(
                PlanRequest("miss", depart_s=100.0, max_trip_time_s=BUDGET))
            hit, hit_solves = serve(
                PlanRequest("hit", depart_s=100.0 + period, max_trip_time_s=BUDGET))
            failing = _failing_shift(service, 100.0)
            stale, stale_solves = serve(
                PlanRequest("stale", depart_s=failing, max_trip_time_s=BUDGET))
            replan, replan_solves = serve(
                PlanRequest("replan", depart_s=170.0, position_m=2000.0, speed_ms=8.0))
            memo, memo_solves = serve(PlanRequest("cold-memo", depart_s=140.0))
            transport.close()
        assert hit.cache_hit and not hit_solves and "hit" not in pooled
        assert pooled == ["miss", "stale", "replan", "cold-memo"]
        assert not (miss.cache_hit or stale.cache_hit or replan.cache_hit or memo.cache_hit)
        for off_loop in (miss_solves, stale_solves, replan_solves, memo_solves):
            assert off_loop and "plan-server" not in off_loop
        assert len(memo_solves) >= 2  # the min-time probe, then the plan
        assert service.stats_snapshot().revalidation_misses == 1

    def test_wire_hits_match_in_process_serving(self, planner):
        reference = _primed(planner)
        served = _primed(planner)
        reqs = _hits(reference, 10, tag="ev")
        want = [reference.request(req) for req in reqs]
        with serve_in_background(served) as handle:
            transport = NetworkPlanTransport(*handle.address, timeout_s=60.0)
            got = [transport.request(req) for req in reqs]
            transport.close()
            dispatcher = handle.server.dispatcher.stats()
        assert all(_same_answer(w, g) for w, g in zip(want, got))
        assert replace(served.stats_snapshot(), total_compute_s=0.0) == replace(
            reference.stats_snapshot(), total_compute_s=0.0)
        assert served.cache_stats() == reference.cache_stats()
        assert dispatcher.submitted == dispatcher.completed == dispatcher.leaders == len(reqs)
        assert handle.final_stats["server"]["served"] == len(reqs)

    def test_second_submitter_keeps_per_key_order(self, planner):
        """A wire request never overtakes a same-key request already in the pool.

        The held request re-solves its key (its shift fails revalidation)
        and replaces the cached plan; the wire request of that key must
        wait for it and be answered from the new plan, as serial serving
        in submission order answers it.
        """
        reference = _primed(planner, phase_quantum_s=10.0)
        period = reference._period_s
        held = PlanRequest(
            "held", depart_s=_failing_shift(reference, 100.0), max_trip_time_s=BUDGET)
        follower = PlanRequest("wire", depart_s=100.0 + 5 * period, max_trip_time_s=BUDGET)
        stale_answer = reference.request_cached(follower)
        want = [reference.request(held), reference.request(follower)]
        assert not _same_answer(stale_answer, want[1])

        service = _primed(planner, cls=GatedService, phase_quantum_s=10.0)
        with serve_in_background(service, workers=2) as handle:
            dispatcher = handle.server.dispatcher
            held_future = dispatcher.submit(held)
            assert service.entered.wait(10.0)
            transport = NetworkPlanTransport(*handle.address, timeout_s=60.0)
            answer = {}
            client = threading.Thread(
                target=lambda: answer.update(got=transport.request(follower)))
            client.start()
            deadline = time.monotonic() + 10.0
            while dispatcher.stats().submitted < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert dispatcher.stats().submitted == 2  # chained behind the held one
            service.gate.set()
            got = [held_future.result(timeout=30.0)]
            client.join(timeout=30.0)
            assert not client.is_alive()
            got.append(answer["got"])
            transport.close()
            stats = dispatcher.stats()
        assert all(_same_answer(w, g) for w, g in zip(want, got))
        assert (stats.leaders, stats.completed) == (1, 2)
        assert stats.coalesced == int(want[1].cache_hit)
        books = service.stats_snapshot()
        assert books.requests == books.cache_hits + books.cache_misses + books.errors

    def test_concurrent_submitter_keeps_the_accounting(self, planner):
        """Wire hits and a second thread's pooled hits on the same keys."""
        reference = _primed(planner)
        wire_reqs = _hits(reference, 30, tag="wire")
        pool_reqs = _hits(reference, 30, tag="pool")
        want = {r.vehicle_id: reference.request(r) for r in wire_reqs + pool_reqs}

        service = _primed(planner)
        got = {}
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with serve_in_background(service, workers=2) as handle:
                dispatcher = handle.server.dispatcher
                transport = NetworkPlanTransport(*handle.address, timeout_s=60.0)

                def over_the_wire():
                    for req in wire_reqs:
                        got[req.vehicle_id] = transport.request(req)

                def through_the_pool():
                    for req in pool_reqs:
                        got[req.vehicle_id] = dispatcher.submit(req).result(timeout=60.0)

                threads = [threading.Thread(target=over_the_wire),
                           threading.Thread(target=through_the_pool)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                assert not any(thread.is_alive() for thread in threads)
                transport.close()
                stats = dispatcher.stats()
        finally:
            sys.setswitchinterval(switch_interval)
        assert set(got) == set(want)
        assert all(_same_answer(want[k], got[k]) for k in want)
        books = service.stats_snapshot()
        assert books.requests == books.cache_hits + books.cache_misses + books.errors
        assert replace(books, total_compute_s=0.0) == replace(
            reference.stats_snapshot(), total_compute_s=0.0)
        assert stats.submitted == stats.completed + stats.errors + stats.in_flight
        assert stats.submitted == len(wire_reqs) + len(pool_reqs)
