"""Router: drop-in identity, corridor isolation, per-corridor accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.fleet import FleetStudy
from repro.cloud.messages import PlanRequest
from repro.cloud.registry import builtin_catalog
from repro.cloud.router import PlanRouter
from repro.cloud.stats import compose_stats_document
from repro.core.engine import ArtifactStore
from repro.core.engine.artifacts import corridor_digest
from repro.errors import ConfigurationError, UnknownCorridorError
from repro.vehicle.params import chevrolet_spark_ev


@pytest.fixture()
def catalog(coarse_config):
    return builtin_catalog(config=coarse_config)


@pytest.fixture()
def router(catalog):
    return PlanRouter(catalog)


def _req(vehicle_id, corridor_id, depart_s=30.0, **kwargs):
    return PlanRequest(
        vehicle_id=vehicle_id, depart_s=depart_s, corridor_id=corridor_id, **kwargs
    )


class TestRoutingIdentity:
    def test_routed_single_corridor_is_bit_identical_to_direct(
        self, coarse_config
    ):
        """The router is a pure routing layer: same corridor, same bits."""
        direct = builtin_catalog(config=coarse_config).service("us25")
        routed = PlanRouter(builtin_catalog(config=coarse_config))
        departures = [10.0, 40.0, 10.0, 70.0, 40.0]  # repeats exercise the cache
        for i, depart in enumerate(departures):
            req = _req(f"ev{i}", "us25", depart_s=depart)
            a = direct.request(req)
            b = routed.request(req)
            assert b.energy_mah == a.energy_mah
            assert b.trip_time_s == a.trip_time_s
            assert b.cache_hit == a.cache_hit
            np.testing.assert_array_equal(
                b.profile.positions_m, a.profile.positions_m
            )
            np.testing.assert_array_equal(b.profile.speeds_ms, a.profile.speeds_ms)
        direct_stats = direct.stats_snapshot()
        routed_stats = routed.stats_snapshot()
        for field in ("requests", "cache_hits", "cache_misses", "errors"):
            assert getattr(routed_stats, field) == getattr(direct_stats, field)

    def test_unknown_corridor_raises_typed(self, router):
        with pytest.raises(UnknownCorridorError) as excinfo:
            router.request(_req("ev1", "route-66"))
        assert excinfo.value.corridor_id == "route-66"
        stats = router.router_stats()
        assert (stats.routed, stats.rejected) == (0, 1)

    def test_batch_preserves_order_with_in_place_errors(self, router):
        reqs = [
            _req("a", "us25"),
            _req("b", "route-66"),
            _req("c", "airport-loop"),
            _req("d", "elm-street"),
            _req("e", "us25"),
        ]
        outcomes = router.request_batch(reqs)
        assert [getattr(o, "vehicle_id", None) for o in outcomes] == [
            "a", None, "c", "d", "e",
        ]
        assert isinstance(outcomes[1], UnknownCorridorError)
        assert [getattr(o, "corridor_id", None) for o in outcomes] == [
            "us25", "route-66", "airport-loop", "elm-street", "us25",
        ]

    def test_per_corridor_invariant_holds(self, router):
        departures = [10.0, 10.0, 40.0, 10.0]
        for cid in router.catalog.ids():
            for i, depart in enumerate(departures):
                router.request(_req(f"{cid}-{i}", cid, depart_s=depart))
        total_routed = 0
        for cid, service in router.per_corridor_services().items():
            stats = service.stats_snapshot()
            assert stats.requests == len(departures)
            assert (
                stats.requests
                == stats.cache_hits + stats.cache_misses + stats.errors
            )
            total_routed += stats.requests
        assert router.router_stats().routed == total_routed


class TestCorridorIsolation:
    def test_colliding_phase_and_budget_never_cross_corridors(self, router):
        """A plan cached for corridor A is never served for corridor B."""
        depart, budget = 30.0, 400.0
        first = router.request(_req("a", "us25", depart_s=depart,
                                    max_trip_time_s=budget))
        second = router.request(_req("b", "elm-street", depart_s=depart,
                                     max_trip_time_s=budget))
        # Identical phase and budget — but a different corridor must be a
        # cold miss with that corridor's own plan, not A's cached one.
        assert second.cache_hit is False
        assert second.energy_mah != first.energy_mah
        per = router.per_corridor_services()
        assert per["elm-street"].stats_snapshot().cache_hits == 0
        # Same corridor, same phase: the cache serves — warm hits exist,
        # they just never leak across the corridor boundary.
        third = router.request(_req("c", "us25", depart_s=depart,
                                    max_trip_time_s=budget))
        assert third.cache_hit is True
        assert third.energy_mah == first.energy_mah

    def test_coalesce_keys_are_corridor_prefixed(self, router):
        key_a = router.coalesce_key(_req("a", "us25"))
        key_b = router.coalesce_key(_req("b", "elm-street"))
        assert key_a[0] == "us25"
        assert key_b[0] == "elm-street"
        assert key_a[1:] == key_b[1:]  # identical inner phase key
        assert key_a != key_b  # ... yet never one flight
        assert router.coalesce_key(_req("c", "route-66")) is None

    def test_artifact_stores_are_per_corridor(self, router):
        for cid in router.catalog.ids():
            router.request(_req(f"ev-{cid}", cid))
        for runtime in router.catalog.built_runtimes():
            stats = runtime.store.stats()
            assert stats.misses == 1  # built its own corridor only
            assert stats.evictions == 0

    def test_capacity_one_stores_never_thrash_across_corridors(
        self, coarse_config
    ):
        """The old shared-store failure mode: interleaving N corridors
        through one capacity-1 store evicts every artifact every request.
        Per-corridor stores make the working set size 1 per corridor."""
        catalog = builtin_catalog(config=coarse_config, store_capacity=1)
        router = PlanRouter(catalog)
        for round_i in range(3):
            for cid in catalog.ids():
                router.request(_req(f"r{round_i}-{cid}", cid, depart_s=30.0))
        for runtime in catalog.built_runtimes():
            stats = runtime.store.stats()
            assert stats.misses == 1
            assert stats.evictions == 0

    def test_store_lru_eviction_never_serves_the_wrong_digest(
        self, catalog, coarse_config, vehicle
    ):
        """Even under eviction churn, a digest lookup rebuilds its own
        inputs — it can never resolve to another corridor's artifacts."""
        store = ArtifactStore(capacity=1, name="engine.store.churn")
        roads = [catalog.spec(cid).road for cid in catalog.ids()]
        grid = dict(
            v_step_ms=coarse_config.v_step_ms, s_step_m=coarse_config.s_step_m
        )
        for _ in range(2):
            for road in roads:
                artifacts = store.get_or_build(road, vehicle, **grid)
                assert artifacts.digest == corridor_digest(
                    road, vehicle, **grid
                )
        stats = store.stats()
        assert stats.evictions > 0  # churn actually happened
        assert stats.capacity == 1


class TestAnswersAreReadOnly:
    def test_answer_arrays_cannot_rewrite_the_corridor_artifacts(self, router):
        """Regression: an answer's positions and dwells were writable
        views of the corridor's artifacts, so a caller's write moved the
        grid under every later solve and every cached plan."""
        resp = router.request(_req("a", "us25", max_trip_time_s=400.0))
        artifacts = router.per_corridor_services()["us25"].planner.solver.artifacts
        grid, dwells = artifacts.positions.copy(), artifacts.dwell_at.copy()
        for array in (resp.profile.positions_m, resp.profile.dwell_s):
            with pytest.raises(ValueError):
                array[5] += 1.0
        assert np.array_equal(artifacts.positions, grid)
        assert np.array_equal(artifacts.dwell_at, dwells)

    def test_a_miss_answer_cannot_rewrite_later_hits(self, router):
        """Regression: the plan cache holds the miss's own profile, so a
        write to that answer's speeds reached every later hit of its key
        (and left the profile's timings and wire text stale)."""
        miss = router.request(_req("a", "us25", max_trip_time_s=400.0))
        assert miss.cache_hit is False
        speeds = miss.profile.speeds_ms.copy()
        with pytest.raises(ValueError):
            miss.profile.speeds_ms[3] = 0.0
        hit = router.request(_req("b", "us25", max_trip_time_s=400.0))
        assert hit.cache_hit is True
        assert np.array_equal(hit.profile.speeds_ms, speeds)
        with pytest.raises(ValueError):
            hit.profile.speeds_ms[3] = 0.0


class TestAggregates:
    def test_aggregate_stats_sum_over_corridors(self, router):
        for cid in router.catalog.ids():
            router.request(_req(f"a-{cid}", cid, depart_s=30.0))
            router.request(_req(f"b-{cid}", cid, depart_s=30.0))
        snapshot = router.stats_snapshot()
        assert snapshot.requests == 6
        assert snapshot.cache_hits == 3
        assert snapshot.cache_misses == 3
        plan, min_time, exact = router.cache_stats()
        assert plan.hits == snapshot.cache_hits
        assert plan.misses == snapshot.cache_misses
        assert router.plan_cache.stats().hits == plan.hits
        assert router.artifact_store.stats().misses == len(router.catalog)
        assert router.cache_enabled is True
        router.clear_cache()
        assert router.plan_cache.stats().size == 0

    def test_stats_document_breaks_down_per_corridor(self, router):
        import json

        for cid in router.catalog.ids():
            router.request(_req(f"a-{cid}", cid, depart_s=30.0))
        document = compose_stats_document(service=router)
        assert document["router"]["routed"] == 3
        assert set(document["corridors"]) == set(router.catalog.ids())
        for section in document["corridors"].values():
            service = section["service"]
            assert service["requests"] == 1
            assert (
                service["requests"]
                == service["cache_hits"] + service["cache_misses"] + service["errors"]
            )
            assert section["artifact_store"]["misses"] == 1
        json.dumps(document)  # JSON-serializable end to end


class TestMultiCorridorFleet:
    def test_interleaved_fleet_with_zero_cross_corridor_hits(
        self, catalog
    ):
        router = PlanRouter(catalog)
        specs = [catalog.spec(cid) for cid in catalog.ids()]
        study = FleetStudy(
            router, corridors=specs, fleet_rate_vph=90.0, seed=5
        )
        result = study.run(duration_s=400.0, human_reference_sample=1)
        assert result.n_vehicles > 0
        assert result.n_failed == 0
        assert len(result.per_corridor) == 3
        assert {s.corridor_id for s in result.per_corridor} == set(catalog.ids())
        total = 0
        for corridor_slice in result.per_corridor:
            assert corridor_slice.service is not None
            stats = corridor_slice.service
            assert (
                stats.requests
                == stats.cache_hits + stats.cache_misses + stats.errors
            )
            # Zero cross-corridor leakage: every hit this corridor's
            # cache reports was served to a vehicle on this corridor.
            assert stats.requests == corridor_slice.n_vehicles
            total += corridor_slice.n_vehicles
        assert total == result.n_vehicles
        assert result.service.requests == total

    def test_fleet_requires_exactly_one_corridor_source(self, router, us25):
        with pytest.raises(ConfigurationError):
            FleetStudy(router)  # neither road nor corridors
        with pytest.raises(ConfigurationError):
            FleetStudy(router, road=us25, corridors=[])
        with pytest.raises(ConfigurationError):
            FleetStudy(router, corridors=[])
