"""White-box tests of the DP solver's internal machinery."""

import numpy as np
import pytest

from repro.core.dp import DpSolver
from repro.errors import ConfigurationError


class TestMinTimeToGo:
    def test_monotone_decreasing_along_route(self, plain_road):
        solver = DpSolver(plain_road, v_step_ms=1.0, s_step_m=50.0)
        to_go = solver._min_time_to_go
        assert to_go[-1] == 0.0
        assert np.all(np.diff(to_go) <= 0)

    def test_admissible_lower_bound(self, plain_road):
        """No actual plan can beat the bound."""
        solver = DpSolver(plain_road, v_step_ms=1.0, s_step_m=50.0)
        solution = solver.solve(minimize="time")
        assert solution.trip_time_s >= solver._min_time_to_go[0] - 1e-6

    def test_includes_stop_dwell(self, plain_road):
        fast = DpSolver(plain_road, v_step_ms=1.0, s_step_m=50.0, stop_dwell_s=0.0)
        slow = DpSolver(plain_road, v_step_ms=1.0, s_step_m=50.0, stop_dwell_s=10.0)
        assert slow._min_time_to_go[0] >= fast._min_time_to_go[0] + 10.0 - 1e-9


class TestSeedState:
    @pytest.fixture(scope="class")
    def solver(self, plain_road):
        return DpSolver(plain_road, v_step_ms=1.0, s_step_m=50.0)

    def test_none_seeds_source_at_rest(self, solver):
        i0, j0, t0 = solver._seed_state(None, 42.0)
        assert (i0, j0) == (0, 0)
        assert t0 == 42.0

    def test_snaps_to_next_grid_point(self, solver):
        i0, j0, t0 = solver._seed_state((120.0, 10.0), 0.0)
        assert solver.positions[i0] >= 120.0
        assert solver.positions[i0 - 1] < 120.0

    def test_exact_grid_point_no_hop(self, solver):
        pos = float(solver.positions[2])
        i0, j0, t0 = solver._seed_state((pos, 10.0), 5.0)
        assert i0 == 2
        assert t0 == pytest.approx(5.0)

    def test_velocity_snapped_to_allowed(self, solver):
        _, j0, _ = solver._seed_state((120.0, 9.7), 0.0)
        assert solver.v_grid[j0] == pytest.approx(10.0)

    def test_stop_point_seed_uses_launch_time(self, solver):
        # Just before the stop sign at 300 m with v=0: the hop must be
        # charged a launch-profile time, not a crawl.
        i0, j0, t0 = solver._seed_state((270.0, 0.0), 100.0)
        assert solver.positions[i0] == pytest.approx(300.0)
        assert j0 == 0
        hop_time = t0 - 100.0
        assert 3.0 < hop_time < 15.0

    def test_validation(self, solver):
        with pytest.raises(ConfigurationError):
            solver._seed_state((-1.0, 5.0), 0.0)
        with pytest.raises(ConfigurationError):
            solver._seed_state((1e9, 5.0), 0.0)
        with pytest.raises(ConfigurationError):
            solver._seed_state((10.0, -5.0), 0.0)


class TestLabelInvariants:
    def test_velocity_bounds_hook_restricts_grid(self, plain_road):
        solver = DpSolver(
            plain_road,
            v_step_ms=1.0,
            s_step_m=50.0,
            velocity_bounds=lambda s: (0.0, 9.0),
        )
        for i, position in enumerate(solver.positions):
            allowed = solver.v_grid[solver._allowed[i]]
            assert allowed.max() <= 9.0 + 1e-9
        solution = solver.solve()
        assert solution.profile.speeds_ms.max() <= 9.0 + 1e-9

    def test_overconstrained_bounds_raise_at_construction(self, plain_road):
        with pytest.raises(ConfigurationError):
            DpSolver(
                plain_road,
                v_step_ms=1.0,
                s_step_m=50.0,
                velocity_bounds=lambda s: (100.0, 200.0),
            )
