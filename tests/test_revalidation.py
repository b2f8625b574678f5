"""The warm-hit path pinned to the algorithms it replaced.

A plan-cache hit re-anchors the cached profile at the new departure and
re-checks its signal arrivals with ``planner.arrivals_in_windows``,
which builds each signal's windows only as far as its arrival.  The
DP's windows (``planner.signal_constraints``) are built in place on
arrays, and the shift reuses the cached profile's validated arrays.
Each test here keeps the previous, object-by-object algorithm over the
full horizon as a reference and requires bit-identical results: the
windows of every planner kind at random departures, the revalidation
decisions, and the shifted arrival times.
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
    PlannerConfig,
    QueueAwareDpPlanner,
    UnconstrainedDpPlanner,
)
from repro.core.profile import VelocityProfile
from repro.route.road import RoadSegment, SignalSite, SpeedLimitZone
from repro.signal.light import TrafficLight
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
    return reference_decision(kind, planner, fresh.arrival_time_at, depart_s)


def reference_decision(kind, planner, arrival_at, depart_s):
    """Whether ``arrival_at(position)`` lies in every full-horizon window."""
    for position, windows in reference_constraints(kind, planner, depart_s):
        if not bool(windows.contains(np.asarray([arrival_at(position)]))[0]):
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


# ----------------------------------------------------------------------
# Cut-horizon revalidation decides as the full-horizon reference
# ----------------------------------------------------------------------
def _zero_red_road():
    """Two signals with no red: consecutive green windows touch."""
    return RoadSegment(
        name="zero-red test road",
        length_m=1500.0,
        zones=[SpeedLimitZone(0.0, 1500.0, v_max_ms=15.0, v_min_ms=8.0)],
        signals=[
            SignalSite(position_m=500.0, light=TrafficLight(red_s=0.0, green_s=30.0)),
            SignalSite(
                position_m=1100.0, light=TrafficLight(red_s=0.0, green_s=45.0, offset_s=7.5)
            ),
        ],
    )


def _varying_rate(t):
    """A forecast that alternates between a light and a heavy cycle."""
    return RATE * (1.6 if int(t // 60.0) % 2 else 0.4)


class ArrivalsAt:
    """A profile stand-in that reaches each signal at a chosen time."""

    def __init__(self, arrivals):
        self.arrivals = arrivals

    def arrival_time_at(self, position_m):
        return self.arrivals[position_m]


@pytest.fixture(scope="module")
def cut_cases(planners, us25, coarse_config):
    """``name -> (reference kind, planner)``, edge cases beside every kind."""
    short = PlannerConfig(
        v_step_ms=1.0, s_step_m=50.0, t_bin_s=2.0, horizon_s=97.3, window_margin_s=2.0
    )
    zero_red = _zero_red_road()
    cases = {kind: (kind, planner) for kind, planner in planners.items()}
    cases.update({
        "varying-rate": (
            "proposed", QueueAwareDpPlanner(us25, _varying_rate, config=coarse_config)
        ),
        "zero-red-green": ("baseline", BaselineDpPlanner(zero_red, config=short)),
        "zero-red-empty-queue": (
            "proposed", QueueAwareDpPlanner(zero_red, 0.0, config=coarse_config)
        ),
        "short-horizon-proposed": ("proposed", QueueAwareDpPlanner(us25, RATE, config=short)),
        "short-horizon-baseline": ("baseline", BaselineDpPlanner(us25, config=short)),
    })
    return cases


CUT_CASES = (
    PLANNER_KINDS
    + ("varying-rate", "zero-red-green", "zero-red-empty-queue")
    + ("short-horizon-proposed", "short-horizon-baseline")
)


@st.composite
def arrival_picks(draw, n_signals):
    """Per signal: a free arrival, or an edge of some window moved by -1/0/+1 ulp."""
    return [
        (
            draw(st.sampled_from(("free", "start", "end", "horizon"))),
            draw(st.floats(min_value=0.0, max_value=1.0, width=64)),
            draw(st.integers(min_value=0, max_value=10**6)),
            draw(st.sampled_from((-1, 0, 1))),
        )
        for _ in range(n_signals)
    ]


def _arrival(pick, depart, horizon, windows):
    """One arrival time for a drawn pick (see :func:`arrival_picks`)."""
    mode, u, index, ulps = pick
    if mode == "free" or (mode != "horizon" and not windows):
        return depart + u * (horizon + 150.0)
    if mode == "horizon":
        edge = depart + horizon
    else:
        window = windows[index % len(windows)]
        edge = window.start_s if mode == "start" else window.end_s
    direction = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        edge = float(np.nextafter(edge, direction))
    return max(edge, depart)


def _raw_windows(kind, planner, site, depart):
    """A signal's unshrunk full-horizon windows, by the reference build."""
    horizon = planner.config.horizon_s
    if kind == "baseline":
        return [QueueWindow(a, b) for a, b in site.light.green_windows(horizon, depart)]
    if kind == "unconstrained":
        return []
    inner = planner.inner if kind == "receding" else planner
    return reference_empty_windows(
        inner.queue_model(site.position_m), depart, horizon, inner._rate_for(site)
    )


class TestCutHorizonRevalidation:
    @pytest.mark.parametrize("name", CUT_CASES)
    @settings(max_examples=60, deadline=None)
    @given(depart=departures, data=st.data())
    def test_decides_as_the_full_horizon_reference(self, cut_cases, name, depart, data):
        kind, planner = cut_cases[name]
        signals = planner.road.signals
        picks = data.draw(arrival_picks(len(signals)))
        shrunk = dict(reference_constraints(kind, planner, depart))
        arrivals = {}
        for site, pick in zip(signals, picks):
            windows = _raw_windows(kind, planner, site, depart)
            if site.position_m in shrunk:
                windows += shrunk[site.position_m].as_queue_windows()
            arrivals[site.position_m] = _arrival(
                pick, depart, planner.config.horizon_s, windows
            )
        profile = ArrivalsAt(arrivals)
        want = reference_decision(kind, planner, profile.arrival_time_at, depart)
        assert planner.arrivals_in_windows(profile, depart) == want

    @pytest.mark.parametrize("name", CUT_CASES)
    def test_every_window_edge_decides_as_the_reference(self, cut_cases, name):
        """Each signal's arrival walked over every shrunk window edge, ±1 ulp."""
        kind, planner = cut_cases[name]
        rng = np.random.default_rng(11)
        for depart in (0.0, 12.25, 333.0, *rng.uniform(0.0, 1e5, size=6)):
            reference = reference_constraints(kind, planner, depart)
            for position, windows in reference:
                for window in windows.as_queue_windows():
                    for edge in (window.start_s, window.end_s):
                        for t in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                            # Every other signal arrives at its first window's start.
                            arrivals = {
                                pos: float(t) if pos == position else next(
                                    (w.start_s for w in ws.as_queue_windows()), depart
                                )
                                for pos, ws in reference
                            }
                            profile = ArrivalsAt(arrivals)
                            want = reference_decision(
                                kind, planner, profile.arrival_time_at, depart
                            )
                            assert planner.arrivals_in_windows(profile, depart) == want

    def test_hit_path_builds_windows_once_per_signal(self, cut_cases, monkeypatch):
        """One ``empty_windows`` call per signal, each over a cut horizon."""
        from repro.signal.queue import QueueLengthModel

        _, planner = cut_cases["proposed"]
        calls = []
        original = QueueLengthModel.empty_windows

        def spy(model, start_s, horizon_s, arrival_rate):
            calls.append(horizon_s)
            return original(model, start_s, horizon_s, arrival_rate)

        monkeypatch.setattr(QueueLengthModel, "empty_windows", spy)
        solved = planner.plan(start_time_s=100.0, max_trip_time_s=320.0).profile
        calls.clear()
        assert planner.arrivals_in_windows(solved, 100.0)
        assert len(calls) == len(planner.road.signals)
        assert all(h < planner.config.horizon_s for h in calls)
