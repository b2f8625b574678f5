"""Vehicular-cloud planning service and fleet study."""

import numpy as np
import pytest

from repro.cloud import CloudPlannerService, FleetStudy, PlanRequest, ServiceStats
from repro.core.planner import (
    PlannerConfig,
    QueueAwareDpPlanner,
    UnconstrainedDpPlanner,
)
from repro.core.profile import VelocityProfile
from repro.errors import ConfigurationError, InfeasibleProblemError, PlanningFailedError
from repro.units import joules_to_mah, vehicles_per_hour_to_per_second
from repro.vehicle.params import BatteryPackParams, VehicleParams

RATE = vehicles_per_hour_to_per_second(300.0)


@pytest.fixture(scope="module")
def service(us25, coarse_config):
    planner = QueueAwareDpPlanner(us25, arrival_rates=RATE, config=coarse_config)
    return CloudPlannerService(planner)


@pytest.fixture
def fresh_service(us25, coarse_config):
    """A service with its own stats, safe to break in failure tests."""
    planner = QueueAwareDpPlanner(us25, arrival_rates=RATE, config=coarse_config)
    return CloudPlannerService(planner)


class TestMessages:
    def test_request_validation(self):
        with pytest.raises(ConfigurationError):
            PlanRequest(vehicle_id="", depart_s=0.0)
        with pytest.raises(ConfigurationError):
            PlanRequest(vehicle_id="x", depart_s=-1.0)
        with pytest.raises(ConfigurationError):
            PlanRequest(vehicle_id="x", depart_s=0.0, max_trip_time_s=0.0)


class TestService:
    def test_cache_enabled_on_fixed_cycles(self, service):
        assert service.cache_enabled
        assert service._period_s == pytest.approx(60.0)

    def test_first_request_misses(self, service):
        service.clear_cache()
        response = service.request(PlanRequest("v1", depart_s=100.0, max_trip_time_s=320.0))
        assert not response.cache_hit
        assert response.compute_time_s > 0

    def test_same_phase_hits(self, service):
        service.clear_cache()
        first = service.request(PlanRequest("v1", depart_s=100.0, max_trip_time_s=320.0))
        second = service.request(PlanRequest("v2", depart_s=160.0, max_trip_time_s=320.0))
        assert second.cache_hit
        assert second.energy_mah == pytest.approx(first.energy_mah)
        assert second.compute_time_s == 0.0

    def test_shifted_profile_anchored_at_new_departure(self, service):
        service.clear_cache()
        service.request(PlanRequest("v1", depart_s=100.0, max_trip_time_s=320.0))
        shifted = service.request(PlanRequest("v2", depart_s=220.0, max_trip_time_s=320.0))
        assert shifted.cache_hit
        assert shifted.profile.arrival_times_s[0] == pytest.approx(220.0)

    def test_shifted_plan_still_hits_true_windows(self, service, us25):
        service.clear_cache()
        service.request(PlanRequest("v1", depart_s=100.0, max_trip_time_s=320.0))
        shifted = service.request(PlanRequest("v2", depart_s=160.0, max_trip_time_s=320.0))
        planner = service.planner
        for pos in us25.signal_positions():
            arrival = shifted.profile.arrival_time_at(pos)
            windows = planner.queue_model(pos).empty_windows(160.0, 600.0, RATE)
            assert any(w.contains(arrival) for w in windows)

    def test_different_phase_misses(self, service):
        service.clear_cache()
        service.request(PlanRequest("v1", depart_s=100.0, max_trip_time_s=320.0))
        other = service.request(PlanRequest("v2", depart_s=130.0, max_trip_time_s=320.0))
        assert not other.cache_hit

    def test_default_budget_uses_min_time_plus_slack(self, service):
        service.clear_cache()
        response = service.request(PlanRequest("v1", depart_s=100.0))
        floor = service.planner.min_trip_time(100.0)
        assert response.trip_time_s <= floor + service.default_budget_slack_s + 1e-6

    def test_stats_track_requests(self, service):
        service.clear_cache()
        before = service.stats
        service.request(PlanRequest("a", 100.0, 320.0))
        service.request(PlanRequest("b", 160.0, 320.0))
        after = service.stats
        delta = ServiceStats(
            requests=after.requests - before.requests,
            cache_hits=after.cache_hits - before.cache_hits,
            cache_misses=after.cache_misses - before.cache_misses,
        )
        assert delta.requests == 2
        assert delta.cache_hits == 1
        assert delta.hit_rate == pytest.approx(0.5)

    def test_no_signals_disables_cache(self, plain_road, coarse_config):
        planner = UnconstrainedDpPlanner(plain_road, config=coarse_config)
        service = CloudPlannerService(planner)
        assert not service.cache_enabled
        response = service.request(PlanRequest("v", depart_s=0.0, max_trip_time_s=200.0))
        assert not response.cache_hit

    def test_callable_rates_disable_cache(self, us25, coarse_config):
        planner = QueueAwareDpPlanner(
            us25, arrival_rates=lambda t: RATE, config=coarse_config
        )
        assert not CloudPlannerService(planner).cache_enabled

    def test_quantum_validation(self, service):
        with pytest.raises(ConfigurationError):
            CloudPlannerService(service.planner, phase_quantum_s=0.0)


class TestFailureAccounting:
    def test_infeasible_request_raises_typed_error(self, fresh_service):
        with pytest.raises(PlanningFailedError) as excinfo:
            fresh_service.request(PlanRequest("v1", depart_s=100.0, max_trip_time_s=5.0))
        assert excinfo.value.vehicle_id == "v1"
        assert excinfo.value.depart_s == 100.0
        assert isinstance(excinfo.value.__cause__, InfeasibleProblemError)

    def test_error_counted_and_invariant_holds(self, fresh_service):
        with pytest.raises(PlanningFailedError):
            fresh_service.request(PlanRequest("v1", depart_s=100.0, max_trip_time_s=5.0))
        stats = fresh_service.stats
        assert stats.requests == 1
        assert stats.errors == 1
        assert stats.requests == stats.cache_hits + stats.cache_misses + stats.errors

    def test_hit_rate_unskewed_by_errors(self, fresh_service):
        fresh_service.request(PlanRequest("a", depart_s=100.0, max_trip_time_s=320.0))
        fresh_service.request(PlanRequest("b", depart_s=160.0, max_trip_time_s=320.0))
        with pytest.raises(PlanningFailedError):
            fresh_service.request(PlanRequest("c", depart_s=100.0, max_trip_time_s=5.0))
        # One miss, one hit, one error: the error must not drag the rate
        # down to 1/3.
        assert fresh_service.stats.hit_rate == pytest.approx(0.5)

    def test_failed_solve_time_still_accounted(self, fresh_service):
        with pytest.raises(PlanningFailedError):
            fresh_service.request(PlanRequest("v1", depart_s=100.0, max_trip_time_s=5.0))
        assert fresh_service.stats.total_compute_s > 0.0



class TestRequestBatchOrder:
    def test_batch_leaves_the_plan_cache_in_serial_lru_order(self, us25, coarse_config):
        """A revalidation miss behind a warm entry, under capacity pressure.

        ``b`` shares ``a``'s phase bin but drifts past the window margin,
        so its hit fails revalidation and it solves afresh.  With room for
        two plans, ``d`` then finds ``a``'s key evicted.  A batch must
        leave the same recency order, evictions, responses and counters
        as the serial loop.
        """
        planner = QueueAwareDpPlanner(us25, arrival_rates=RATE, config=coarse_config)
        requests = [
            PlanRequest("a", depart_s=100.0, max_trip_time_s=320.0),
            PlanRequest("b", depart_s=169.5, max_trip_time_s=320.0),
            PlanRequest("c", depart_s=125.0, max_trip_time_s=320.0),
            PlanRequest("d", depart_s=135.0, max_trip_time_s=320.0),
            PlanRequest("e", depart_s=220.0, max_trip_time_s=320.0),
        ]

        def fresh():
            return CloudPlannerService(planner, phase_quantum_s=10.0, cache_capacity=2)

        serial_service = fresh()
        serial = [serial_service.request(req) for req in requests]
        batch_service = fresh()
        batch = batch_service.request_batch(requests)

        assert serial_service.stats.revalidation_misses == 1
        assert batch_service.plan_cache.keys() == serial_service.plan_cache.keys()
        for got, want in zip(batch, serial):
            assert got.vehicle_id == want.vehicle_id
            assert got.cache_hit == want.cache_hit
            assert got.energy_mah == want.energy_mah
            assert got.trip_time_s == want.trip_time_s
            assert np.array_equal(got.profile.speeds_ms, want.profile.speeds_ms)
            assert np.array_equal(
                got.profile.arrival_times_s, want.profile.arrival_times_s
            )
        got_stats = batch_service.stats_snapshot()
        want_stats = serial_service.stats_snapshot()
        for field in ("requests", "cache_hits", "cache_misses", "errors",
                      "revalidation_misses"):
            assert getattr(got_stats, field) == getattr(want_stats, field)
        for got_cache, want_cache in zip(
            batch_service.cache_stats(), serial_service.cache_stats()
        ):
            assert got_cache == want_cache

class TestRevalidation:
    def test_phase_bin_edge_hit_lands_inside_windows(self, fresh_service, us25):
        """A request at the far edge of a phase bin must be served a plan
        whose signal arrivals lie inside the true queue-free windows, even
        though the cached profile's drift (just under ``phase_quantum_s``)
        can exceed the planner's window margin."""
        service = fresh_service
        d0 = 100.0
        service.request(PlanRequest("a", depart_s=d0, max_trip_time_s=320.0))
        # Same phase bin as d0, but with maximal quantization drift.
        d1 = d0 + service._period_s + service.phase_quantum_s - 1e-3
        response = service.request(PlanRequest("b", depart_s=d1, max_trip_time_s=320.0))
        planner = service.planner
        for pos in us25.signal_positions():
            arrival = response.profile.arrival_time_at(pos)
            windows = planner.queue_model(pos).empty_windows(d1, 600.0, RATE)
            assert any(w.contains(arrival) for w in windows)
        # Served either as a revalidated hit or as a revalidation-miss
        # fresh solve — but never as an unchecked stale hit.
        stats = service.stats
        if response.cache_hit:
            assert stats.revalidation_misses == 0
        else:
            assert stats.revalidation_misses == 1
        assert stats.requests == stats.cache_hits + stats.cache_misses + stats.errors

    def test_mid_bin_hit_revalidates_clean(self, fresh_service):
        service = fresh_service
        service.request(PlanRequest("a", depart_s=100.0, max_trip_time_s=320.0))
        response = service.request(PlanRequest("b", depart_s=160.0, max_trip_time_s=320.0))
        assert response.cache_hit
        assert service.stats.revalidation_misses == 0

    def test_poisoned_cache_falls_back_to_fresh_solve(self, fresh_service):
        service = fresh_service
        first = service.request(PlanRequest("a", depart_s=100.0, max_trip_time_s=320.0))
        # Replace the cached plan with a full-throttle profile that blows
        # through every signal window.
        (key,) = service.plan_cache.keys()
        profile = first.profile
        bogus = VelocityProfile(
            positions_m=profile.positions_m,
            speeds_ms=np.full_like(profile.speeds_ms, 19.0),
            dwell_s=np.zeros_like(profile.dwell_s),
            start_time_s=100.0,
        )
        service.plan_cache.put(key, (bogus, 1.0, 1.0))
        response = service.request(PlanRequest("b", depart_s=160.0, max_trip_time_s=320.0))
        assert not response.cache_hit
        assert service.stats.revalidation_misses == 1
        assert service.stats.cache_misses == 2
        # The fresh solve overwrote the poisoned entry: next request hits.
        again = service.request(PlanRequest("c", depart_s=220.0, max_trip_time_s=320.0))
        assert again.cache_hit


class TestReplanPath:
    def test_replan_request_validation(self):
        with pytest.raises(ConfigurationError):
            PlanRequest(vehicle_id="x", depart_s=0.0, position_m=-1.0)
        with pytest.raises(ConfigurationError):
            PlanRequest(vehicle_id="x", depart_s=0.0, speed_ms=-1.0)
        with pytest.raises(ConfigurationError):
            PlanRequest(vehicle_id="x", depart_s=0.0, minimize="comfort")

    def test_is_replan_property(self):
        assert not PlanRequest("x", depart_s=0.0).is_replan
        assert PlanRequest("x", depart_s=0.0, position_m=100.0).is_replan
        assert PlanRequest("x", depart_s=0.0, speed_ms=5.0).is_replan

    def test_replan_bypasses_cache(self, fresh_service):
        service = fresh_service
        service.request(PlanRequest("a", depart_s=100.0, max_trip_time_s=320.0))
        replan = PlanRequest(
            "a", depart_s=130.0, max_trip_time_s=290.0, position_m=500.0, speed_ms=12.0
        )
        first = service.request(replan)
        second = service.request(replan)
        assert not first.cache_hit and not second.cache_hit
        assert first.compute_time_s > 0
        # Neither replan seeded the cache with a mid-route profile.
        cached = service.request(
            PlanRequest("b", depart_s=160.0, max_trip_time_s=320.0)
        )
        assert cached.cache_hit
        assert cached.profile.positions_m[0] == 0.0

    def test_replan_profile_covers_remaining_route(self, service, us25):
        response = service.request(
            PlanRequest("ev", depart_s=130.0, position_m=2000.0, speed_ms=15.0)
        )
        assert response.profile.positions_m[0] >= 2000.0
        assert response.profile.positions_m[-1] == us25.length_m
        assert response.profile.arrival_times_s[0] >= 130.0

    def test_min_time_objective_uncached(self, fresh_service):
        service = fresh_service
        service.request(PlanRequest("a", depart_s=100.0, max_trip_time_s=320.0))
        fast = service.request(PlanRequest("b", depart_s=160.0, minimize="time"))
        assert not fast.cache_hit

    def test_stats_invariant_holds_across_replans(self, fresh_service):
        service = fresh_service
        service.request(PlanRequest("a", depart_s=100.0, max_trip_time_s=320.0))
        service.request(PlanRequest("b", depart_s=160.0, max_trip_time_s=320.0))
        service.request(
            PlanRequest("a", depart_s=130.0, position_m=500.0, speed_ms=12.0)
        )
        with pytest.raises(PlanningFailedError):
            service.request(
                PlanRequest(
                    "a",
                    depart_s=130.0,
                    max_trip_time_s=5.0,
                    position_m=500.0,
                    speed_ms=12.0,
                )
            )
        stats = service.stats
        assert stats.requests == 4
        assert stats.errors == 1
        assert stats.requests == stats.cache_hits + stats.cache_misses + stats.errors

    def test_infeasible_replan_raises_typed_error(self, fresh_service):
        with pytest.raises(PlanningFailedError) as excinfo:
            fresh_service.request(
                PlanRequest(
                    "ev",
                    depart_s=130.0,
                    max_trip_time_s=5.0,
                    position_m=2000.0,
                    speed_ms=15.0,
                )
            )
        assert excinfo.value.vehicle_id == "ev"


class TestPackVoltage:
    def test_energy_mah_uses_solver_pack_voltage(self, us25, coarse_config):
        vehicle = VehicleParams(
            battery=BatteryPackParams(voltage_v=350.0, capacity_ah=46.2)
        )
        planner = QueueAwareDpPlanner(
            us25, arrival_rates=RATE, vehicle=vehicle, config=coarse_config
        )
        solution = planner.plan(0.0, max_trip_time_s=320.0)
        assert solution.pack_voltage_v == 350.0
        assert solution.energy_mah == pytest.approx(
            joules_to_mah(solution.energy_j, 350.0)
        )
        assert solution.energy_mah != pytest.approx(
            joules_to_mah(solution.energy_j, 399.0)
        )


class TestFleet:
    def test_fleet_run(self, service, us25):
        service.clear_cache()
        study = FleetStudy(service, us25, fleet_rate_vph=80.0, seed=5)
        result = study.run(duration_s=400.0, human_reference_sample=1)
        assert result.n_vehicles >= 1
        assert result.planned_energy_mah > 0
        assert result.human_energy_mah > result.planned_energy_mah
        assert 0.0 < result.savings_pct < 60.0

    def test_fleet_survives_one_infeasible_request(
        self, fresh_service, us25, monkeypatch
    ):
        service = fresh_service
        planner = service.planner
        real_plan = planner.plan
        calls = {"n": 0}

        def flaky_plan(*args, **kwargs):
            calls["n"] += 1
            # The first vehicle's min-time calibration runs a capped solve
            # and, on infeasibility, an uncapped fallback — fail both so
            # the failure actually reaches the vehicle.
            if calls["n"] <= 2:
                raise InfeasibleProblemError("forced for test")
            return real_plan(*args, **kwargs)

        monkeypatch.setattr(planner, "plan", flaky_plan)
        study = FleetStudy(service, us25, fleet_rate_vph=80.0, seed=5)
        result = study.run(duration_s=400.0, human_reference_sample=1)

        assert result.n_failed == 1
        assert result.failed_vehicle_ids == ["ev0"]
        assert service.stats.errors == 1
        assert result.n_vehicles == service.stats.requests - 1
        stats = service.stats
        assert stats.requests == stats.cache_hits + stats.cache_misses + stats.errors
        # The failed departure is excluded from both energy sums, so the
        # comparison stays meaningful.
        assert result.planned_energy_mah > 0
        assert result.human_energy_mah > result.planned_energy_mah

    def test_fleet_validation(self, service, us25):
        with pytest.raises(ConfigurationError):
            FleetStudy(service, us25, fleet_rate_vph=0.0)
        with pytest.raises(ConfigurationError):
            FleetStudy(service, us25, mild_fraction=1.5)
        study = FleetStudy(service, us25)
        with pytest.raises(ConfigurationError):
            study.run(duration_s=0.0)
