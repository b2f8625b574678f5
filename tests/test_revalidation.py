"""The warm-hit path pinned to the algorithms it replaced.

A plan-cache hit re-anchors the cached profile at the new departure and
re-checks its signal arrivals against ``planner.signal_constraints``.
Those windows are built in place on arrays, and the shift reuses the
cached profile's validated arrays.  Each test here keeps the previous,
object-by-object algorithm as a reference and requires bit-identical
results: the windows of every planner kind at random departures, the
revalidation decisions, and the shifted arrival times.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.service import CloudPlannerService
from repro.core.cost import WindowSet
from repro.core.engine import ArtifactStore
from repro.core.horizon import RecedingHorizonPlanner
from repro.core.planner import (
    BaselineDpPlanner,
    QueueAwareDpPlanner,
    UnconstrainedDpPlanner,
)
from repro.core.profile import VelocityProfile
from repro.core.uncertainty import ChanceConstrainedPlanner, ResidualModel
from repro.signal.queue import QueueWindow
from repro.units import vehicles_per_hour_to_per_second

RATE = vehicles_per_hour_to_per_second(300.0)
PLANNER_KINDS = ("proposed", "baseline", "unconstrained", "chance", "receding")
departures = st.floats(min_value=0.0, max_value=1e5, allow_nan=False, width=64)


# ----------------------------------------------------------------------
# References: the window build and revalidation before the array rewrite
# ----------------------------------------------------------------------
class ReferenceWindowSet:
    """The previous ``WindowSet``: merge via tuples, shrink via QueueWindows."""

    def __init__(self, windows):
        ordered = sorted(windows, key=lambda w: w.start_s)
        merged: List[Tuple[float, float]] = []
        for w in ordered:
            if merged and w.start_s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], w.end_s))
            else:
                merged.append((w.start_s, w.end_s))
        self.starts = np.asarray([m[0] for m in merged], dtype=float)
        self.ends = np.asarray([m[1] for m in merged], dtype=float)

    def contains(self, times):
        t = np.asarray(times, dtype=float)
        if self.starts.size == 0:
            return np.zeros(t.shape, dtype=bool)
        idx = np.searchsorted(self.starts, t, side="right") - 1
        valid = idx >= 0
        inside = np.zeros(t.shape, dtype=bool)
        safe = np.clip(idx, 0, self.starts.size - 1)
        inside[valid] = t[valid] < self.ends[safe[valid]]
        return inside

    def shrunk(self, margin_s):
        survivors = [
            QueueWindow(s + margin_s, e - margin_s)
            for s, e in zip(self.starts, self.ends)
            if (e - margin_s) - (s + margin_s) > 1e-9
        ]
        return ReferenceWindowSet(survivors)

    def as_queue_windows(self):
        return [QueueWindow(float(s), float(e)) for s, e in zip(self.starts, self.ends)]


def reference_empty_windows(model, start_s, horizon_s, arrival_rate):
    """The previous ``empty_windows``: one ``empty_window`` per cycle."""
    end_s = start_s + horizon_s
    windows = []
    cycle_start = model.light.cycle_start(start_s)
    while cycle_start < end_s:
        rate = arrival_rate(cycle_start) if callable(arrival_rate) else arrival_rate
        in_cycle = model.empty_window(rate)
        if in_cycle is not None:
            lo = cycle_start + in_cycle[0]
            hi = cycle_start + in_cycle[1]
            lo, hi = max(lo, start_s), min(hi, end_s)
            if hi > lo:
                windows.append(QueueWindow(lo, hi))
        cycle_start += model.light.cycle_s
    return windows


def reference_constraints(kind, planner, depart_s):
    """``(position, ReferenceWindowSet)`` per signal, as each planner built them."""
    if kind == "receding":
        return reference_constraints("proposed", planner.inner, depart_s)
    if kind == "unconstrained":
        return []
    config = planner.config
    out = []
    for site in planner.road.signals:
        if kind == "baseline":
            green = site.light.green_windows(config.horizon_s, depart_s)
            raw = ReferenceWindowSet([QueueWindow(a, b) for a, b in green])
            margin = config.window_margin_s
        else:
            model = planner.queue_model(site.position_m)
            raw = ReferenceWindowSet(
                reference_empty_windows(
                    model, depart_s, config.horizon_s, planner._rate_for(site)
                )
            )
            margin = config.window_margin_s
            if kind == "chance":
                margin = config.window_margin_s + planner.chance_margin_s
        out.append((site.position_m, raw.shrunk(margin)))
    return out


def reference_revalidate(kind, planner, profile, depart_s):
    """The previous hit check: a freshly built profile, one-element ``contains``."""
    fresh = VelocityProfile(
        positions_m=profile.positions_m,
        speeds_ms=profile.speeds_ms,
        dwell_s=profile.dwell_s,
        start_time_s=depart_s,
    )
    for position, windows in reference_constraints(kind, planner, depart_s):
        arrival = fresh.arrival_time_at(position)
        if not bool(windows.contains(np.asarray([arrival]))[0]):
            return False
    return True


def bits(windows):
    """Exact bit patterns of a window list, for bit-for-bit comparison."""
    return [struct.pack("<dd", w.start_s, w.end_s) for w in windows]


# ----------------------------------------------------------------------
# Fixtures: one planner of every kind, and one cached-plan service each
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def planners(us25, coarse_config):
    store = ArtifactStore()
    residuals = ResidualModel([0.0]).with_timing_noise(6.0)
    return {
        "proposed": QueueAwareDpPlanner(us25, RATE, config=coarse_config, store=store),
        "baseline": BaselineDpPlanner(us25, config=coarse_config, store=store),
        "unconstrained": UnconstrainedDpPlanner(us25, config=coarse_config, store=store),
        "chance": ChanceConstrainedPlanner(
            us25, RATE, residuals, chance_level=0.9, config=coarse_config, store=store
        ),
        "receding": RecedingHorizonPlanner(
            QueueAwareDpPlanner(us25, RATE, config=coarse_config, store=store)
        ),
    }


@pytest.fixture(scope="module")
def cached_plans(planners):
    """Per planner kind: its service and one solved plan departing at 100 s."""
    out = {}
    for kind, planner in planners.items():
        service = CloudPlannerService(planner)
        solution = planner.plan(start_time_s=100.0, max_trip_time_s=320.0)
        out[kind] = (service, solution.profile)
    return out


class TestSignalConstraintWindows:
    @pytest.mark.parametrize("kind", PLANNER_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(depart=departures)
    def test_windows_bit_identical_to_reference(self, planners, kind, depart):
        planner = planners[kind]
        got = planner.signal_constraints(depart)
        want = reference_constraints(kind, planner, depart)
        assert [c.position_m for c in got] == [pos for pos, _ in want]
        for constraint, (_, windows) in zip(got, want):
            assert bits(constraint.windows.as_queue_windows()) == bits(
                windows.as_queue_windows()
            )

    def test_time_varying_rate_still_sampled_per_cycle(self, us25, coarse_config):
        calls = []

        def rate(t):
            calls.append(t)
            return RATE * (1.5 if int(t // 60.0) % 2 else 0.5)

        planner = QueueAwareDpPlanner(us25, rate, config=coarse_config)
        model = planner.queue_model(us25.signals[0].position_m)
        got = model.empty_windows(1234.5, 600.0, rate)
        got_calls = len(calls)
        want = reference_empty_windows(model, 1234.5, 600.0, rate)
        assert bits(got) == bits(want)
        # One rate sample per cycle, exactly as the reference takes them.
        assert got_calls > 1
        assert calls[:got_calls] == calls[got_calls:]

    @settings(max_examples=100, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(
                st.floats(min_value=-1e6, max_value=1e6, width=64),
                st.floats(min_value=1e-6, max_value=500.0, width=64),
            ),
            max_size=12,
        ),
        margin=st.floats(min_value=0.0, max_value=50.0, width=64),
        probes=st.lists(st.floats(min_value=-2e6, max_value=2e6, width=64), max_size=20),
    )
    def test_window_set_matches_reference(self, spans, margin, probes):
        windows = [QueueWindow(s, s + d) for s, d in spans if s + d > s]
        got, want = WindowSet(windows), ReferenceWindowSet(windows)
        assert bits(got.as_queue_windows()) == bits(want.as_queue_windows())
        got, want = got.shrunk(margin), want.shrunk(margin)
        assert bits(got.as_queue_windows()) == bits(want.as_queue_windows())
        times = np.asarray(probes + [w.start_s for w in windows], dtype=float)
        np.testing.assert_array_equal(got.contains(times), want.contains(times))
        assert [t in got for t in times] == list(want.contains(times))


class TestRevalidationDecisions:
    @pytest.mark.parametrize("kind", PLANNER_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(depart=departures)
    def test_random_departures_decide_as_reference(self, cached_plans, kind, depart):
        service, profile = cached_plans[kind]
        decision = service._revalidate(profile.shifted_to(depart), depart)
        assert decision == reference_revalidate(kind, service.planner, profile, depart)

    @pytest.mark.parametrize("kind", PLANNER_KINDS)
    def test_period_shifts_decide_as_reference(self, cached_plans, kind):
        service, profile = cached_plans[kind]
        period = service._period_s
        rng = np.random.default_rng(7)
        decisions = []
        for periods in range(0, 400, 7):
            for jitter in (0.0, 0.4, 0.9, rng.uniform(-3.0, 3.0)):
                depart = 100.0 + period * periods + jitter
                decision = service._revalidate(profile.shifted_to(depart), depart)
                assert decision == reference_revalidate(
                    kind, service.planner, profile, depart
                )
                decisions.append(decision)
        # Whole-period shifts of the solved departure are accepted hits;
        # jitter past the window margin is rejected wherever windows exist.
        assert any(decisions)
        assert kind == "unconstrained" or not all(decisions)


class TestShiftedProfile:
    @settings(max_examples=150, deadline=None)
    @given(
        gaps=st.lists(st.floats(min_value=0.5, max_value=300.0, width=64), min_size=1, max_size=10),
        speeds=st.lists(st.floats(min_value=0.1, max_value=30.0, width=64), min_size=11, max_size=11),
        dwells=st.lists(st.floats(min_value=0.0, max_value=60.0, width=64), min_size=11, max_size=11),
        start=st.floats(min_value=0.0, max_value=1e6, width=64),
        new_start=st.floats(min_value=0.0, max_value=1e6, width=64),
    )
    def test_arrivals_equal_a_fresh_profile(self, gaps, speeds, dwells, start, new_start):
        n = len(gaps) + 1
        positions = np.concatenate([[0.0], np.cumsum(gaps)])
        if np.any(np.diff(positions) <= 0):
            return  # cumsum rounding collapsed a gap; not a valid profile
        profile = VelocityProfile(positions, speeds[:n], dwells[:n], start_time_s=start)
        shifted = profile.shifted_to(new_start)
        fresh = VelocityProfile(positions, speeds[:n], dwells[:n], start_time_s=new_start)
        assert shifted.arrival_times_s.tobytes() == fresh.arrival_times_s.tobytes()
        assert shifted.start_time_s == fresh.start_time_s
        assert shifted.total_time_s == fresh.total_time_s
        for position in positions:
            assert shifted.arrival_time_at(position) == fresh.arrival_time_at(position)

    def test_planned_profiles_with_dwells(self, cached_plans):
        for _, profile in cached_plans.values():
            for depart in (0.0, 7.25, 160.0, 99_999.5):
                shifted = profile.shifted_to(depart)
                fresh = VelocityProfile(
                    profile.positions_m, profile.speeds_ms, profile.dwell_s, depart
                )
                assert shifted.arrival_times_s.tobytes() == fresh.arrival_times_s.tobytes()
                assert shifted.positions_m is profile.positions_m
                assert shifted.speeds_ms is profile.speeds_ms
                assert shifted.dwell_s is profile.dwell_s

    def test_shift_leaves_the_cached_profile_alone(self, cached_plans):
        _, profile = cached_plans["proposed"]
        before = profile.arrival_times_s.tobytes()
        profile.shifted_to(12_345.0)
        assert profile.arrival_times_s.tobytes() == before
        assert profile.start_time_s == 100.0
