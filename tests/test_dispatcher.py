"""Dispatch layer: single-flight coalescing, deadlines, fleet bit-identity."""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.cloud import (
    CloudPlannerService,
    FleetStudy,
    PlanDispatcher,
    PlanRequest,
    PlanResponse,
)
from repro.core.planner import QueueAwareDpPlanner
from repro.errors import (
    ConfigurationError,
    DispatchDeadlineError,
    PlanningFailedError,
)
from repro.units import vehicles_per_hour_to_per_second

RATE = vehicles_per_hour_to_per_second(300.0)


@pytest.fixture
def fresh_service(us25, coarse_config):
    planner = QueueAwareDpPlanner(us25, arrival_rates=RATE, config=coarse_config)
    return CloudPlannerService(planner)


def _response(vehicle_id: str) -> PlanResponse:
    return PlanResponse(
        vehicle_id=vehicle_id,
        profile=None,
        energy_mah=1.0,
        trip_time_s=1.0,
        cache_hit=False,
        compute_time_s=0.0,
    )


class StubService:
    """Duck-typed service with controllable keys, blocking and failures."""

    def __init__(self, key=None, block=None, fail_first=False):
        self.key = key
        self.block = block  # threading.Event the request waits on
        self.fail_first = fail_first
        self.calls = 0
        self._lock = threading.Lock()

    def coalesce_key(self, req):
        return self.key

    def request(self, req):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        if self.block is not None:
            assert self.block.wait(timeout=10.0), "stub never unblocked"
        if self.fail_first and first:
            raise PlanningFailedError("leader solve failed")
        return _response(req.vehicle_id)


class TestSingleFlight:
    def test_n_identical_concurrent_requests_run_one_solve(self, fresh_service):
        """The coalescing guarantee: N same-phase requests, exactly 1 DP."""
        service = fresh_service
        n = 6
        requests = [
            PlanRequest(f"ev{i}", depart_s=100.0 + 60.0 * i, max_trip_time_s=320.0)
            for i in range(n)  # same phase (60 s period), same budget
        ]
        with PlanDispatcher(service, workers=4) as dispatcher:
            responses = dispatcher.submit_many(requests)
        assert len(responses) == n
        # Exactly one solve: one miss, the rest warm-cache hits.
        assert service.stats.cache_misses == 1
        assert service.stats.cache_hits == n - 1
        assert sum(1 for r in responses if not r.cache_hit) == 1
        # The invariant survives the dispatcher.
        stats = service.stats
        assert stats.requests == stats.cache_hits + stats.cache_misses + stats.errors
        dstats = dispatcher.stats()
        assert dstats.leaders == 1
        assert dstats.coalesced == n - 1
        assert dstats.completed == n
        assert dstats.in_flight == 0

    def test_first_submitted_request_is_the_leader(self, fresh_service):
        """Leadership is claimed at submission, so ev0 solves — like serial."""
        with PlanDispatcher(fresh_service, workers=4) as dispatcher:
            responses = dispatcher.submit_many(
                [
                    PlanRequest(f"ev{i}", depart_s=100.0, max_trip_time_s=320.0)
                    for i in range(4)
                ]
            )
        assert not responses[0].cache_hit
        assert all(r.cache_hit for r in responses[1:])
        # Responses keep per-request identity.
        assert [r.vehicle_id for r in responses] == [f"ev{i}" for i in range(4)]

    def test_distinct_keys_do_not_coalesce(self, fresh_service):
        with PlanDispatcher(fresh_service, workers=2) as dispatcher:
            dispatcher.submit_many(
                [
                    PlanRequest("a", depart_s=100.0, max_trip_time_s=320.0),
                    PlanRequest("b", depart_s=130.0, max_trip_time_s=320.0),
                ]
            )
        stats = dispatcher.stats()
        assert stats.leaders == 2
        assert stats.coalesced == 0

    def test_leader_failure_does_not_fail_followers(self):
        stub = StubService(key="k", fail_first=True)
        with PlanDispatcher(stub, workers=2) as dispatcher:
            requests = [PlanRequest(f"v{i}", depart_s=10.0) for i in range(3)]
            outcomes = dispatcher.submit_many(requests, return_exceptions=True)
        failures = [o for o in outcomes if isinstance(o, PlanningFailedError)]
        served = [o for o in outcomes if isinstance(o, PlanResponse)]
        # Only the leader failed; each follower fell back to its own call.
        assert len(failures) == 1
        assert len(served) == 2

    def test_submit_many_reraises_first_error_by_default(self):
        stub = StubService(key=None, fail_first=True)
        with PlanDispatcher(stub, workers=1) as dispatcher:
            with pytest.raises(PlanningFailedError):
                dispatcher.submit_many(
                    [PlanRequest(f"v{i}", depart_s=10.0) for i in range(3)]
                )

    def test_followers_of_a_failed_leader_are_not_counted_coalesced(self):
        """Regression: ``coalesced`` used to be claimed before serving.

        When the leader's solve failed, each follower fell back to a full
        solve of its own — yet the books still said the solves were saved.
        The counter now reflects what actually happened: a follower is
        coalesced only when its response came from the leader's warm cache.
        """
        gate = threading.Event()
        stub = StubService(key="k", block=gate, fail_first=True)
        with PlanDispatcher(stub, workers=1) as dispatcher:
            futures = [
                dispatcher.submit(PlanRequest(f"v{i}", depart_s=10.0))
                for i in range(3)
            ]
            gate.set()  # every submission coalesced before the leader fails
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=10.0))
                except PlanningFailedError as exc:
                    outcomes.append(exc)
        assert isinstance(outcomes[0], PlanningFailedError)
        assert all(isinstance(o, PlanResponse) for o in outcomes[1:])
        stats = dispatcher.stats()
        assert stats.leaders == 1
        assert stats.coalesced == 0  # both followers full-solved
        assert stats.errors == 1
        assert stats.completed == 2
        assert stats.in_flight == 0


class TestSameKeyChaining:
    def test_followers_of_one_key_never_overlap(self, monkeypatch):
        """Regression: every follower of a key used to wake on the leader's
        completion and call the service at once, so a follower whose hit
        failed revalidation could replace the cache entry after a sibling
        had already read it — an order no serial loop produces.

        Followers are now chained: each waits for its predecessor's call
        to finish.  The stub holds the first follower's call open until
        either the second follower's call overlaps it (the race) or the
        second follower is seen waiting on the first (the chain); no
        sleep decides the outcome.
        """
        from repro.cloud import dispatcher as dispatcher_module

        cond = threading.Condition()
        inside, overlaps, waited_on = set(), [], []
        submitted, release = threading.Event(), threading.Event()

        class WatchedEvent(threading.Event):
            def wait(self, timeout=None):
                with cond:
                    waited_on.append(self)
                    cond.notify_all()
                return super().wait(timeout)

        class WatchedFlight:
            def __init__(self):
                self.done = WatchedEvent()

        class OverlapRecorder:
            def coalesce_key(self, req):
                return "k"

            def request(self, req):
                with cond:
                    if inside:
                        overlaps.append((sorted(inside), req.vehicle_id))
                    inside.add(req.vehicle_id)
                    cond.notify_all()
                try:
                    # The leader stays in flight until every request is in.
                    gate = submitted if req.vehicle_id == "leader" else release
                    assert gate.wait(timeout=10.0), "never released"
                    return _response(req.vehicle_id)
                finally:
                    with cond:
                        inside.discard(req.vehicle_id)
                        cond.notify_all()

        monkeypatch.setattr(dispatcher_module, "_Flight", WatchedFlight)
        names = ("leader", "follower-1", "follower-2")
        with PlanDispatcher(OverlapRecorder(), workers=3) as dispatcher:
            futures = [dispatcher.submit(PlanRequest(v, depart_s=10.0)) for v in names]
            submitted.set()
            try:
                with cond:
                    assert cond.wait_for(lambda: inside - {"leader"}, timeout=10.0)
                    # The leader is done by now, so an unset event being
                    # waited on is the first follower's, awaited by the
                    # second.
                    assert cond.wait_for(
                        lambda: overlaps or any(not e.is_set() for e in waited_on),
                        timeout=10.0,
                    )
            finally:
                submitted.set()
                release.set()
            served = [f.result(timeout=10.0).vehicle_id for f in futures]
        assert served == list(names)
        assert overlaps == []
        stats = dispatcher.stats()
        assert (stats.leaders, stats.completed, stats.in_flight) == (1, 3, 0)


    def test_same_key_calls_run_in_submission_order_under_stress(self):
        """More workers than cores, a tiny switch interval, three keys:
        each key's service calls never overlap and arrive in submission
        order, and every follower is counted once."""
        lock = threading.Lock()
        inside, served = {}, {}
        overlaps = []

        class OrderRecorder:
            def coalesce_key(self, req):
                return req.vehicle_id.split("-")[0]

            def request(self, req):
                key = self.coalesce_key(req)
                with lock:
                    if inside.get(key):
                        overlaps.append(req.vehicle_id)
                    inside[key] = True
                    hit = key in served
                    served.setdefault(key, []).append(req.vehicle_id)
                with lock:
                    inside[key] = False
                return replace(_response(req.vehicle_id), cache_hit=hit)

        keys, per_key = ("a", "b", "c"), 20
        requests = [
            PlanRequest(f"{key}-{k}", depart_s=10.0)
            for k in range(per_key) for key in keys
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with PlanDispatcher(OrderRecorder(), workers=8) as dispatcher:
                futures = [dispatcher.submit(req) for req in requests]
                for future in futures:
                    future.result(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert overlaps == []
        for key in keys:
            assert served[key] == [f"{key}-{k}" for k in range(per_key)]
        stats = dispatcher.stats()
        assert stats.completed == len(requests) and stats.in_flight == 0
        assert stats.leaders + stats.coalesced == len(requests)


class TestDeadlines:
    def test_queued_request_fails_fast_on_expired_deadline(self):
        gate = threading.Event()
        stub = StubService(key=None, block=gate)
        dispatcher = PlanDispatcher(stub, workers=1)
        try:
            blocker = dispatcher.submit(PlanRequest("slow", depart_s=10.0))
            queued = dispatcher.submit(
                PlanRequest("late", depart_s=10.0), deadline_s=0.05
            )
            time.sleep(0.15)  # let the deadline lapse while queued
            gate.set()
            blocker.result(timeout=10.0)
            with pytest.raises(DispatchDeadlineError) as excinfo:
                queued.result(timeout=10.0)
            assert excinfo.value.vehicle_id == "late"
        finally:
            gate.set()
            dispatcher.shutdown()
        stats = dispatcher.stats()
        assert stats.deadline_exceeded == 1
        assert stats.errors == 1
        assert stats.completed == 1

    def test_follower_times_out_waiting_on_a_stuck_leader(self):
        gate = threading.Event()
        stub = StubService(key="k", block=gate)
        dispatcher = PlanDispatcher(stub, workers=2)
        try:
            leader = dispatcher.submit(PlanRequest("leader", depart_s=10.0))
            follower = dispatcher.submit(
                PlanRequest("follower", depart_s=10.0), deadline_s=0.05
            )
            with pytest.raises(DispatchDeadlineError):
                follower.result(timeout=10.0)
            gate.set()
            assert leader.result(timeout=10.0).vehicle_id == "leader"
        finally:
            gate.set()
            dispatcher.shutdown()

    def test_expired_leader_releases_its_followers(self):
        """Regression: the leader's queued-deadline check used to raise
        *before* the flight bookkeeping's try/finally, so the flight was
        never marked done and a follower with no deadline of its own hung
        forever on it.
        """
        gate = threading.Event()

        class Stub:
            """Keyless blocker to jam the worker; everyone else shares a key."""

            def coalesce_key(self, req):
                return None if req.vehicle_id == "blocker" else "k"

            def request(self, req):
                if req.vehicle_id == "blocker":
                    assert gate.wait(timeout=10.0), "stub never unblocked"
                return _response(req.vehicle_id)

        dispatcher = PlanDispatcher(Stub(), workers=1)
        try:
            blocker = dispatcher.submit(PlanRequest("blocker", depart_s=10.0))
            leader = dispatcher.submit(
                PlanRequest("leader", depart_s=10.0), deadline_s=0.05
            )
            follower = dispatcher.submit(PlanRequest("follower", depart_s=10.0))
            time.sleep(0.15)  # the leader's deadline lapses while queued
            gate.set()
            blocker.result(timeout=10.0)
            with pytest.raises(DispatchDeadlineError):
                leader.result(timeout=10.0)
            # The deadline-free follower must fall back to its own solve,
            # not wait forever on the flight the leader abandoned.
            assert follower.result(timeout=10.0).vehicle_id == "follower"
        finally:
            gate.set()
            dispatcher.shutdown()
        stats = dispatcher.stats()
        assert stats.deadline_exceeded == 1
        assert stats.errors == 1
        assert stats.completed == 2
        assert stats.in_flight == 0

    def test_invalid_deadline_and_workers_rejected(self, fresh_service):
        with pytest.raises(ConfigurationError):
            PlanDispatcher(fresh_service, workers=0)
        with pytest.raises(ConfigurationError):
            PlanDispatcher(fresh_service, workers=2, backend="fiber")
        with PlanDispatcher(fresh_service, workers=1) as dispatcher:
            with pytest.raises(ConfigurationError):
                dispatcher.submit(PlanRequest("a", depart_s=1.0), deadline_s=0.0)


class TestFleetConcurrency:
    def test_dispatched_fleet_is_bit_identical_to_serial(self, us25, coarse_config):
        def build():
            planner = QueueAwareDpPlanner(
                us25, arrival_rates=RATE, config=coarse_config
            )
            return CloudPlannerService(planner)

        def run(**kwargs):
            with obs.use_registry(obs.MetricsRegistry()) as registry:
                result = FleetStudy(
                    build(), us25, fleet_rate_vph=80.0, seed=5, **kwargs
                ).run(duration_s=900.0)
            return result, registry.snapshot()

        serial, serial_metrics = run()
        threaded, threaded_metrics = run(workers=4)

        # Bit identity, not approximation: same solves, same shifts.
        assert threaded.planned_energy_mah == serial.planned_energy_mah
        assert threaded.human_energy_mah == serial.human_energy_mah
        assert threaded.mean_trip_time_s == serial.mean_trip_time_s
        assert threaded.n_vehicles == serial.n_vehicles
        assert threaded.n_failed == serial.n_failed
        # Same serving economics.
        assert threaded.service.cache_hits == serial.service.cache_hits
        assert threaded.service.cache_misses == serial.service.cache_misses
        # The dispatcher actually ran and its books balance.
        assert threaded.dispatch is not None
        assert threaded.dispatch.submitted == serial.service.requests
        assert threaded.dispatch.submitted == (
            threaded.dispatch.completed + threaded.dispatch.errors
        )
        assert threaded.dispatch.in_flight == 0
        assert serial.dispatch is None

        # The same registry counts outside the dispatcher's own (the
        # service's compute time is a wall-time sum, not a count).
        def serving(metrics):
            return {
                name: value
                for name, value in metrics["counters"].items()
                if not name.startswith("cloud.dispatch.")
                and name != "cloud.total_compute_s"
            }

        assert serving(threaded_metrics) == serving(serial_metrics)

        # The same spans, once serial's nesting under ``fleet.run`` is
        # stripped: a pool thread opens its spans on its own stack, so a
        # dispatched solve does not nest under the caller's ``fleet.run``.
        def span_counts(metrics, strip=""):
            return {
                path[len(strip):] if strip and path.startswith(strip) else path: span["count"]
                for path, span in metrics["spans"].items()
            }

        assert span_counts(threaded_metrics) == span_counts(
            serial_metrics, strip="fleet.run."
        )

    def test_fleet_result_stats_are_snapshots(self, us25, coarse_config):
        planner = QueueAwareDpPlanner(us25, arrival_rates=RATE, config=coarse_config)
        service = CloudPlannerService(planner)
        study = FleetStudy(service, us25, fleet_rate_vph=80.0, seed=5)
        result = study.run(duration_s=900.0)
        before = (result.service.requests, result.cache.lookups)
        # Later traffic through the same service must not rewrite history.
        service.request(PlanRequest("late", depart_s=100.0, max_trip_time_s=320.0))
        assert result.service.requests == before[0]
        assert result.cache.lookups == before[1]

    def test_fleet_workers_validation(self, us25, coarse_config):
        planner = QueueAwareDpPlanner(us25, arrival_rates=RATE, config=coarse_config)
        service = CloudPlannerService(planner)
        with pytest.raises(ConfigurationError):
            FleetStudy(service, us25, workers=-1)


def _build_service(us25, coarse_config):
    planner = QueueAwareDpPlanner(us25, arrival_rates=RATE, config=coarse_config)
    return CloudPlannerService(planner)


def _serve_serially(service, requests):
    outcomes = []
    for req in requests:
        try:
            outcomes.append(service.request(req))
        except Exception as exc:  # noqa: BLE001 - an outcome, not a crash
            outcomes.append(exc)
    return outcomes


def _assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert isinstance(g, Exception)
            assert str(g) == str(w)
            continue
        assert isinstance(g, PlanResponse)
        assert g.vehicle_id == w.vehicle_id
        assert g.energy_mah == w.energy_mah
        assert g.trip_time_s == w.trip_time_s
        assert g.cache_hit == w.cache_hit
        assert np.array_equal(g.profile.positions_m, w.profile.positions_m)
        assert np.array_equal(g.profile.speeds_ms, w.profile.speeds_ms)


class TestProcessBackend:
    def test_same_key_stress_is_bit_identical_to_serial(self, us25, coarse_config):
        """Many same-key requests against worker processes.

        Key-sharded dispatch sends every same-key request to the same
        worker, whose private cache then behaves exactly like the serial
        service's: one cold solve, the rest warm phase-shifted hits.
        """
        n = 10
        requests = [
            PlanRequest(f"ev{i}", depart_s=100.0 + 60.0 * i, max_trip_time_s=320.0)
            for i in range(n)  # same phase (60 s period), same budget
        ]
        serial = _serve_serially(_build_service(us25, coarse_config), requests)

        with PlanDispatcher(
            _build_service(us25, coarse_config), workers=2, backend="process"
        ) as dispatcher:
            outcomes = dispatcher.submit_many(requests, return_exceptions=True)
        _assert_same_outcomes(outcomes, serial)
        stats = dispatcher.stats()
        assert stats.completed == n
        assert stats.coalesced == n - 1  # one cold solve in the shard's worker
        assert stats.errors == 0
        assert stats.in_flight == 0

    def test_completed_never_lags_a_response_the_caller_holds(
        self, us25, coarse_config
    ):
        """A process-backend outcome is counted before its future resolves."""
        n = 20
        with PlanDispatcher(
            _build_service(us25, coarse_config), workers=2, backend="process"
        ) as dispatcher:
            for i in range(n):
                req = PlanRequest(
                    f"ev{i}", depart_s=100.0 + 60.0 * i, max_trip_time_s=320.0
                )
                response = dispatcher.request(req)
                assert response.vehicle_id == f"ev{i}"
                # No sleep, no poll: the count is already there.
                assert dispatcher.stats().completed == i + 1
