"""Property-based tests of cloud-service caching and profile shifting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.service import CloudPlannerService
from repro.core.planner import PlannerConfig, QueueAwareDpPlanner
from repro.core.profile import VelocityProfile
from repro.route.us25 import us25_greenville_segment
from repro.units import vehicles_per_hour_to_per_second


@st.composite
def simple_profiles(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    gaps = draw(st.lists(st.floats(50.0, 200.0), min_size=n - 1, max_size=n - 1))
    inner = draw(st.lists(st.floats(1.0, 20.0), min_size=n - 2, max_size=n - 2))
    positions = np.concatenate([[0.0], np.cumsum(gaps)])
    speeds = np.concatenate([[0.0], inner, [0.0]])
    start = draw(st.floats(0.0, 500.0))
    return VelocityProfile(positions, speeds, start_time_s=start)


class TestShiftProperties:
    @given(profile=simple_profiles(), new_start=st.floats(0.0, 1000.0))
    @settings(max_examples=150, deadline=None)
    def test_shift_preserves_shape_and_duration(self, profile, new_start):
        shifted = profile.shifted_to(new_start)
        np.testing.assert_array_equal(shifted.positions_m, profile.positions_m)
        np.testing.assert_array_equal(shifted.speeds_ms, profile.speeds_ms)
        assert shifted.total_time_s == pytest.approx(profile.total_time_s)

    @given(profile=simple_profiles(), new_start=st.floats(0.0, 1000.0))
    @settings(max_examples=150, deadline=None)
    def test_shift_translates_every_arrival_uniformly(self, profile, new_start):
        shifted = profile.shifted_to(new_start)
        delta = new_start - profile.start_time_s
        np.testing.assert_allclose(
            shifted.arrival_times_s,
            profile.arrival_times_s + delta,
            rtol=1e-12,
            atol=1e-9,
        )


class TestCacheKeyProperties:
    @pytest.fixture(scope="class")
    def service(self):
        road = us25_greenville_segment()
        planner = QueueAwareDpPlanner(
            road,
            arrival_rates=vehicles_per_hour_to_per_second(300.0),
            config=PlannerConfig(v_step_ms=1.0, s_step_m=50.0, t_bin_s=2.0),
        )
        return CloudPlannerService(planner, phase_quantum_s=1.0)

    @given(
        depart=st.floats(0.0, 3000.0),
        periods=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_phase_same_key(self, service, depart, periods):
        period = service._period_s
        quantum = service.phase_quantum_s
        phase1 = depart % period
        phase2 = (depart + periods * period) % period
        # Shifting by whole periods preserves the phase up to float
        # rounding (circular distance, since the phase wraps at 0).
        drift = abs(phase1 - phase2)
        assert min(drift, period - drift) < 1e-6
        # Within float epsilon of a quantum boundary, that rounding can
        # legitimately flip the bin (worst case: one extra cache miss).
        # Everywhere else the key must be identical.
        frac = (phase1 / quantum) % 1.0
        near_boundary = min(frac, 1.0 - frac) * quantum < 1e-6
        if not near_boundary:
            assert int(phase1 / quantum) == int(phase2 / quantum)
