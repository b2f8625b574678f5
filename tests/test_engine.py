"""The engine layer: digests, the artifact store, and kernel equivalence.

Covers the PR's behavior-preservation contract from every side:

* digest stability (equal inputs hash equal; any build input change —
  and *only* build inputs — re-keys),
* LRU store semantics (hit/miss/eviction counters, recency order),
* bit-identical solutions with the store disabled, cold and warm, for
  whole trips and mid-route replans on both seed corridors,
* the stage kernels against a straightforward reference implementation
  on randomized lattices,
* zero-fault closed-loop transparency with the store threaded through
  the degradation ladder.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.service import CloudPlannerService
from repro.core.dp import DpSolver
from repro.core.engine import (
    ArtifactStore,
    CorridorArtifacts,
    corridor_digest,
    expand_stage,
    select_labels,
)
from repro.core.planner import (
    BaselineDpPlanner,
    PlannerConfig,
    QueueAwareDpPlanner,
)
from repro.core.refine import CoarseToFineSolver
from repro.errors import ConfigurationError
from repro.resilience.client import ResilientPlanClient
from repro.resilience.ladder import TIER_QUEUE_DP, DegradationLadder
from repro.route.road import RoadSegment, SignalSite, SpeedLimitZone, StopSign
from repro.sim.closed_loop import ClosedLoopDriver
from repro.sim.scenario import Us25Scenario
from repro.signal.light import TrafficLight
from repro.units import kmh_to_ms, vehicles_per_hour_to_per_second
from repro.vehicle.params import VehicleParams, chevrolet_spark_ev

RATE = vehicles_per_hour_to_per_second(300.0)

GRID = dict(v_step_ms=1.0, s_step_m=50.0)


def _road(signal_light: TrafficLight = None, length_m: float = 1000.0) -> RoadSegment:
    light = signal_light if signal_light is not None else TrafficLight(red_s=20.0, green_s=20.0)
    return RoadSegment(
        name="digest test road",
        length_m=length_m,
        zones=[
            SpeedLimitZone(0.0, length_m, v_max_ms=kmh_to_ms(54.0), v_min_ms=kmh_to_ms(28.8))
        ],
        stop_signs=[StopSign(250.0)],
        signals=[SignalSite(position_m=600.0, light=light)],
    )


# ----------------------------------------------------------------------
# Digest stability
# ----------------------------------------------------------------------
class TestCorridorDigest:
    def test_equal_inputs_equal_digest(self, vehicle):
        a = corridor_digest(_road(), vehicle, **GRID)
        b = corridor_digest(_road(), vehicle, **GRID)
        assert a == b
        assert len(a) == 32  # blake2b, digest_size=16

    def test_every_build_input_rekeys(self, vehicle):
        base = corridor_digest(_road(), vehicle, **GRID)
        assert corridor_digest(_road(), vehicle, v_step_ms=0.5, s_step_m=50.0) != base
        assert corridor_digest(_road(), vehicle, v_step_ms=1.0, s_step_m=25.0) != base
        assert corridor_digest(_road(), vehicle, stop_dwell_s=5.0, **GRID) != base
        assert (
            corridor_digest(_road(), vehicle, enforce_min_speed=False, **GRID) != base
        )
        assert corridor_digest(_road(length_m=1200.0), vehicle, **GRID) != base
        heavier = VehicleParams(mass_kg=vehicle.mass_kg + 100.0)
        assert corridor_digest(_road(), heavier, **GRID) != base

    def test_signal_timing_does_not_rekey(self, vehicle):
        """Timing is a solve-time input: replans across phases share a build."""
        base = corridor_digest(_road(TrafficLight(red_s=20.0, green_s=20.0)), vehicle, **GRID)
        drifted = corridor_digest(
            _road(TrafficLight(red_s=33.0, green_s=12.0, offset_s=7.0)), vehicle, **GRID
        )
        assert base == drifted

    def test_build_stamps_matching_digest(self, vehicle):
        artifacts = CorridorArtifacts.build(_road(), vehicle, **GRID)
        assert artifacts.digest == corridor_digest(_road(), vehicle, **GRID)
        assert artifacts.n_segments == artifacts.positions.size - 1
        assert artifacts.nbytes > 0

    def test_mismatched_artifacts_rejected_by_solver(self, vehicle):
        artifacts = CorridorArtifacts.build(_road(), vehicle, **GRID)
        with pytest.raises(ConfigurationError):
            DpSolver(
                _road(), vehicle=vehicle, v_step_ms=0.5, s_step_m=50.0,
                artifacts=artifacts,
            )


# ----------------------------------------------------------------------
# Store semantics
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_hit_miss_counters(self, vehicle):
        store = ArtifactStore(capacity=4)
        first = store.get_or_build(_road(), vehicle, **GRID)
        again = store.get_or_build(_road(), vehicle, **GRID)
        assert again is first  # the very same arrays, not a rebuild
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 0)
        assert stats.hit_rate == 0.5
        assert "hit rate 0.50" in stats.summary()

    def test_lru_eviction_order(self, vehicle):
        store = ArtifactStore(capacity=2)
        a = store.get_or_build(_road(), vehicle, v_step_ms=1.0, s_step_m=50.0)
        b = store.get_or_build(_road(), vehicle, v_step_ms=2.0, s_step_m=50.0)
        # Touch `a` so `b` becomes the least recently used...
        assert store.get(a.digest) is a
        store.get_or_build(_road(), vehicle, v_step_ms=1.0, s_step_m=100.0)
        # ...and is therefore the entry evicted by the third insert.
        assert a.digest in store
        assert b.digest not in store
        stats = store.stats()
        assert stats.evictions == 1
        assert stats.size == 2

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            ArtifactStore(capacity=0)

    def test_clear_keeps_counters(self, vehicle):
        store = ArtifactStore()
        store.get_or_build(_road(), vehicle, **GRID)
        store.clear()
        assert len(store) == 0
        assert store.stats().misses == 1


# ----------------------------------------------------------------------
# Bit-identity: disabled vs cold vs warm store
# ----------------------------------------------------------------------
def _assert_same_solution(a, b):
    assert np.array_equal(a.profile.positions_m, b.profile.positions_m)
    assert np.array_equal(a.profile.speeds_ms, b.profile.speeds_ms)
    assert a.energy_j == b.energy_j
    assert a.trip_time_s == b.trip_time_s
    assert a.signal_arrivals == b.signal_arrivals


class TestBitIdentity:
    def _solutions(self, make_planner):
        """(disabled, cold, warm) plan/replan pairs from one factory."""
        store = ArtifactStore()
        planners = [
            make_planner(None),   # store disabled
            make_planner(store),  # cold store: this build populates it
            make_planner(store),  # warm store: served from cache
        ]
        out = []
        for planner in planners:
            plan = planner.plan(start_time_s=0.0, max_trip_time_s=290.0)
            replan = planner.replan(
                position_m=2000.0, speed_ms=8.0, time_s=170.0
            )
            out.append((plan, replan))
        assert store.stats().hits == 1  # the warm planner really hit
        return out

    def test_us25_queue_aware(self, us25, coarse_config):
        def make(store):
            return QueueAwareDpPlanner(
                us25, arrival_rates=RATE, config=coarse_config, store=store
            )

        disabled, cold, warm = self._solutions(make)
        for phase in ("plan", "replan"):
            k = 0 if phase == "plan" else 1
            _assert_same_solution(disabled[k], cold[k])
            _assert_same_solution(disabled[k], warm[k])

    def test_short_road_baseline(self, short_road, coarse_config):
        def make(store):
            return BaselineDpPlanner(short_road, config=coarse_config, store=store)

        store = ArtifactStore()
        reference = make(None).plan(start_time_s=0.0)
        cold = make(store).plan(start_time_s=0.0)
        warm = make(store).plan(start_time_s=0.0)
        _assert_same_solution(reference, cold)
        _assert_same_solution(reference, warm)
        assert store.stats().hits == 1

    def test_refiner_shares_fine_artifacts(self, short_road):
        store = ArtifactStore()
        with_store = CoarseToFineSolver(
            short_road, fine_v_step_ms=0.5, s_step_m=25.0, horizon_s=300.0, store=store
        )
        without = CoarseToFineSolver(
            short_road, fine_v_step_ms=0.5, s_step_m=25.0, horizon_s=300.0
        )
        _assert_same_solution(without.solve(), with_store.solve())
        # Two fine solves, one artifact build: the second solve reuses.
        first = with_store.solve()
        second = with_store.solve()
        _assert_same_solution(first, second)
        assert store.stats().misses == 2  # coarse grid + fine grid, once each


# ----------------------------------------------------------------------
# Stage kernels vs reference implementation
# ----------------------------------------------------------------------
def _reference_expand(lab_v, lab_t, lab_c, j_arr, j2_arr, e_arr, dt_arr):
    """Cross every label with its segment successors, one pair at a time."""
    src, cj2, cc, ct = [], [], [], []
    for j in np.unique(j_arr):
        succ = np.nonzero(j_arr == j)[0]
        labels_here = np.nonzero(lab_v == j)[0]
        if succ.size == 0 or labels_here.size == 0:
            continue
        for lab in labels_here:
            for k in succ:
                src.append(lab)
                cj2.append(j2_arr[k])
                cc.append(e_arr[k] + lab_c[lab])
                ct.append(dt_arr[k] + lab_t[lab])
    return (
        np.asarray(src, dtype=np.int64),
        np.asarray(cj2, dtype=np.int64),
        np.asarray(cc, dtype=float),
        np.asarray(ct, dtype=float),
    )


def _csr_offsets(j_arr, n_levels):
    """CSR row offsets of sorted source indices: row ``j`` is ``[o[j], o[j+1])``."""
    return np.concatenate([[0], np.cumsum(np.bincount(j_arr, minlength=n_levels))])


def _reference_select(cj2, cc, ct, start_time_s, t_bin_s):
    """Cheapest and earliest entry per (velocity, time-bin) group.

    Returns the sorted winner indices and how many winners only the
    candidate index decided (a tie on both keys inside the group).
    """
    k2 = np.round((ct - start_time_s) / t_bin_s).astype(np.int64)
    groups = {}
    for i in range(cj2.size):
        groups.setdefault((int(cj2[i]), int(k2[i])), []).append(i)
    keep = set()
    index_decided = 0
    for members in groups.values():
        for key in (lambda i: (cc[i], ct[i]), lambda i: (ct[i], cc[i])):
            best = min(key(i) for i in members)
            tied = [i for i in members if key(i) == best]
            index_decided += len(tied) > 1
            keep.add(min(tied))
    return np.asarray(sorted(keep), dtype=np.int64), index_decided


class TestStageKernels:
    @pytest.mark.parametrize("seed", range(8))
    def test_expand_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_levels = int(rng.integers(3, 12))
        n_labels = int(rng.integers(1, 30))
        n_pairs = int(rng.integers(1, 60))
        lab_v = rng.integers(0, n_levels, size=n_labels)
        lab_t = rng.uniform(0.0, 100.0, size=n_labels)
        lab_c = rng.uniform(0.0, 1e5, size=n_labels)
        # The kernels require CSR-ordered pairs (j_arr sorted ascending),
        # which is what np.nonzero over the feasibility mask produces.
        j_arr = np.sort(rng.integers(0, n_levels, size=n_pairs))
        j2_arr = rng.integers(0, n_levels, size=n_pairs)
        e_arr = rng.uniform(-1e3, 1e4, size=n_pairs)
        dt_arr = rng.uniform(0.5, 20.0, size=n_pairs)

        src, cj2, cc, ct = expand_stage(
            lab_v, lab_t, lab_c, _csr_offsets(j_arr, n_levels), j2_arr, e_arr, dt_arr
        )
        r_src, r_cj2, r_cc, r_ct = _reference_expand(
            lab_v, lab_t, lab_c, j_arr, j2_arr, e_arr, dt_arr
        )
        # Same candidates in the same order: selection breaks exact
        # (cost, time) ties by candidate index, so the order is part of
        # the kernel's output, not an internal detail.
        np.testing.assert_array_equal(src, r_src)
        np.testing.assert_array_equal(cj2, r_cj2)
        np.testing.assert_array_equal(cc, r_cc)
        np.testing.assert_array_equal(ct, r_ct)

    @pytest.mark.parametrize("seed", range(8))
    def test_select_matches_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 200))
        n_levels = int(rng.integers(2, 10))
        cj2 = rng.integers(0, n_levels, size=n)
        cc = np.round(rng.uniform(0.0, 1e4, size=n), 1)  # force some cost ties
        ct = np.round(rng.uniform(0.0, 300.0, size=n), 0)  # and time-bin ties
        sel = select_labels(cj2, cc, ct, 0.0, 1.0)
        ref, _ = _reference_select(cj2, cc, ct, 0.0, 1.0)
        assert np.array_equal(np.sort(sel), ref)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("bins", [1, 3, 40, 4000])
    def test_select_breaks_double_ties_by_index(self, seed, bins):
        """Dense exact (cost, time) ties inside groups spanning few or many bins.

        Costs and times are drawn from a handful of values, so most
        groups hold several candidates equal on both keys and only the
        candidate index can pick the winner.
        """
        rng = np.random.default_rng(1000 * bins + seed)
        n = int(rng.integers(50, 400))
        t_bin_s = 0.5
        start_time_s = 1234.5
        cj2 = rng.integers(0, int(rng.integers(1, 6)), size=n)
        # Times on a lattice of four ticks per bin, in at most eight
        # bins spread over the span (first and last included), so the
        # occupied bins hold repeated exact values.
        used = np.unique(np.concatenate([[0, bins - 1], rng.integers(0, bins, size=6)]))
        ticks = 4 * rng.choice(used, size=n) + rng.integers(0, 4, size=n)
        ct = start_time_s + ticks * (t_bin_s / 4.0)
        cc = rng.choice(np.asarray([-250.0, 0.0, 125.5, 125.5, 900.0]), size=n)
        sel = select_labels(cj2, cc, ct, start_time_s, t_bin_s)
        ref, index_decided = _reference_select(cj2, cc, ct, start_time_s, t_bin_s)
        assert index_decided > 0
        np.testing.assert_array_equal(sel, ref)

    def test_empty_expand(self):
        # One transition, from velocity 1; the only label sits at 0.
        src, cj2, cc, ct = expand_stage(
            np.asarray([0]), np.asarray([0.0]), np.asarray([0.0]),
            _csr_offsets(np.asarray([1]), 3), np.asarray([2]),
            np.asarray([1.0]), np.asarray([1.0]),
        )
        assert src.size == cj2.size == cc.size == ct.size == 0


# ----------------------------------------------------------------------
# Zero-fault closed loop with the store threaded through the ladder
# ----------------------------------------------------------------------
class TestClosedLoopWithStore:
    def test_zero_fault_laddered_drive_bit_identical(self, us25, coarse_config):
        def scenario():
            return Us25Scenario(
                road=us25, arrival_rate_vph=300.0, warmup_s=300.0, seed=13
            )

        direct_planner = QueueAwareDpPlanner(
            us25, arrival_rates=RATE, config=coarse_config
        )
        direct = ClosedLoopDriver(
            scenario(), direct_planner, replan_interval_s=20.0
        ).run(depart_s=300.0, max_trip_time_s=320.0)

        store = ArtifactStore()
        stored_planner = QueueAwareDpPlanner(
            us25, arrival_rates=RATE, config=coarse_config, store=store
        )
        client = ResilientPlanClient(CloudPlannerService(stored_planner))
        ladder = DegradationLadder(
            client, us25, arrival_rates=RATE, config=coarse_config
        )
        laddered = ClosedLoopDriver(
            scenario(), ladder=ladder, replan_interval_s=20.0, store=store
        ).run(depart_s=300.0, max_trip_time_s=320.0)

        assert ladder.store is store  # driver installed the shared store
        assert np.array_equal(
            direct.ev_trace.positions_m, laddered.ev_trace.positions_m
        )
        assert np.array_equal(direct.ev_trace.speeds_ms, laddered.ev_trace.speeds_ms)
        assert direct.ev_trace.energy().net_mah == laddered.ev_trace.energy().net_mah
        assert laddered.initial_tier == TIER_QUEUE_DP
        assert laddered.degraded_replans == 0

    def test_store_rejected_on_direct_path(self, us25, coarse_config):
        planner = QueueAwareDpPlanner(us25, arrival_rates=RATE, config=coarse_config)
        with pytest.raises(ConfigurationError):
            ClosedLoopDriver(
                Us25Scenario(road=us25, arrival_rate_vph=300.0, warmup_s=300.0),
                planner,
                store=ArtifactStore(),
            )


# ----------------------------------------------------------------------
# Satellite bugfix: pack voltage derives from the vehicle parameters
# ----------------------------------------------------------------------
class TestPackVoltageDefault:
    def test_solution_default_tracks_vehicle_params(self, short_road, coarse_config):
        solution = BaselineDpPlanner(short_road, config=coarse_config).plan(0.0)
        assert solution.pack_voltage_v == VehicleParams().battery.voltage_v

    def test_spark_ev_voltage_propagates(self, short_road, coarse_config):
        spark = chevrolet_spark_ev()
        solution = BaselineDpPlanner(
            short_road, vehicle=spark, config=coarse_config
        ).plan(0.0)
        assert solution.pack_voltage_v == spark.battery.voltage_v
