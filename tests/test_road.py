"""Road-segment model: zones, stops, signals, grids, grades."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.route.road import (
    GradeProfile,
    RoadSegment,
    SignalSite,
    SpeedLimitZone,
    StopSign,
)
from repro.signal.light import TrafficLight


def make_road(**overrides):
    kwargs = dict(
        name="r",
        length_m=1000.0,
        zones=[
            SpeedLimitZone(0.0, 400.0, v_max_ms=15.0, v_min_ms=8.0),
            SpeedLimitZone(400.0, 1000.0, v_max_ms=20.0, v_min_ms=10.0),
        ],
        stop_signs=[StopSign(250.0)],
        signals=[
            SignalSite(position_m=700.0, light=TrafficLight(red_s=20.0, green_s=25.0))
        ],
    )
    kwargs.update(overrides)
    return RoadSegment(**kwargs)


class TestZones:
    def test_zone_lookup(self):
        road = make_road()
        assert road.v_max_at(0.0) == 15.0
        assert road.v_max_at(399.9) == 15.0
        assert road.v_max_at(400.0) == 20.0
        assert road.v_max_at(1000.0) == 20.0

    def test_v_min_lookup(self):
        road = make_road()
        assert road.v_min_at(100.0) == 8.0
        assert road.v_min_at(500.0) == 10.0

    def test_zone_gap_rejected(self):
        with pytest.raises(ConfigurationError):
            make_road(
                zones=[
                    SpeedLimitZone(0.0, 300.0, v_max_ms=15.0),
                    SpeedLimitZone(400.0, 1000.0, v_max_ms=20.0),
                ]
            )

    def test_zones_must_cover_whole_road(self):
        with pytest.raises(ConfigurationError):
            make_road(zones=[SpeedLimitZone(0.0, 900.0, v_max_ms=15.0)])

    def test_out_of_range_query_rejected(self):
        road = make_road()
        with pytest.raises(ValueError):
            road.v_max_at(1001.0)

    def test_limits_at_an_array_of_positions(self):
        road = make_road()
        positions = np.array([0.0, 250.0, 399.9, 400.0, np.nextafter(400.0, 0.0), 700.0, 1000.0])
        for lookup in (road.v_max_at, road.v_min_at):
            limits = lookup(positions)
            assert limits.dtype == float and limits.shape == positions.shape
            assert limits.tolist() == [lookup(float(s)) for s in positions]
        grid = np.arange(0.0, 1000.0, 10.0).reshape(10, 10)
        assert road.v_max_at(grid).shape == (10, 10)

    @pytest.mark.parametrize("bad", [-0.1, 1000.1, np.nan])
    def test_out_of_range_array_query_rejected(self, bad):
        road = make_road()
        for lookup in (road.v_max_at, road.v_min_at):
            with pytest.raises(ValueError, match="outside"):
                lookup(np.array([0.0, bad, 500.0]))

    def test_invalid_zone_limits(self):
        with pytest.raises(ConfigurationError):
            SpeedLimitZone(0.0, 10.0, v_max_ms=0.0)
        with pytest.raises(ConfigurationError):
            SpeedLimitZone(0.0, 10.0, v_max_ms=10.0, v_min_ms=11.0)
        with pytest.raises(ConfigurationError):
            SpeedLimitZone(10.0, 10.0, v_max_ms=10.0)


class TestStopsAndSignals:
    def test_mandatory_stops_include_ends_and_signs(self):
        road = make_road()
        assert road.mandatory_stop_positions() == [0.0, 250.0, 1000.0]

    def test_signals_not_mandatory_stops(self):
        road = make_road()
        assert 700.0 not in road.mandatory_stop_positions()

    def test_signal_positions(self):
        assert make_road().signal_positions() == [700.0]

    def test_off_road_stop_sign_rejected(self):
        with pytest.raises(ConfigurationError):
            make_road(stop_signs=[StopSign(1500.0)])

    def test_off_road_signal_rejected(self):
        with pytest.raises(ConfigurationError):
            make_road(
                signals=[
                    SignalSite(position_m=1200.0, light=TrafficLight(red_s=1, green_s=1))
                ]
            )

    def test_signal_site_validation(self):
        light = TrafficLight(red_s=10, green_s=10)
        with pytest.raises(ConfigurationError):
            SignalSite(position_m=10.0, light=light, turn_ratio=0.0)
        with pytest.raises(ConfigurationError):
            SignalSite(position_m=10.0, light=light, queue_spacing_m=0.0)


class TestGrid:
    def test_grid_contains_special_points(self):
        road = make_road()
        grid = road.grid(30.0)
        for special in (0.0, 250.0, 700.0, 1000.0):
            assert np.any(np.isclose(grid, special))

    def test_grid_strictly_increasing(self):
        grid = make_road().grid(30.0)
        assert np.all(np.diff(grid) > 0)

    def test_grid_step_respected(self):
        grid = make_road().grid(50.0)
        assert np.max(np.diff(grid)) <= 50.0 + 1e-9

    def test_grid_rejects_bad_step(self):
        with pytest.raises(ValueError):
            make_road().grid(0.0)


class TestGradeProfile:
    def test_flat(self):
        assert GradeProfile.flat().at(123.0) == 0.0

    def test_interpolation(self):
        profile = GradeProfile([0.0, 100.0], [0.0, 0.1])
        assert profile.at(50.0) == pytest.approx(0.05)

    def test_clamping_beyond_ends(self):
        profile = GradeProfile([10.0, 20.0], [0.02, 0.04])
        assert profile.at(0.0) == pytest.approx(0.02)
        assert profile.at(100.0) == pytest.approx(0.04)

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            GradeProfile([10.0, 5.0], [0.0, 0.0])

    def test_rejects_mismatch(self):
        with pytest.raises(ConfigurationError):
            GradeProfile([1.0, 2.0], [0.0])

    def test_road_grade_at(self):
        road = make_road(grade=GradeProfile([0.0, 1000.0], [0.0, 0.1]))
        assert road.grade_at(500.0) == pytest.approx(0.05)


class TestUs25:
    def test_paper_geometry(self, us25):
        assert us25.length_m == 4200.0
        assert [s.position_m for s in us25.stop_signs] == [490.0]
        assert us25.signal_positions() == [1820.0, 3460.0]

    def test_paper_queue_parameters(self, us25):
        for site in us25.signals:
            assert site.queue_spacing_m == pytest.approx(8.5)
            assert site.turn_ratio == pytest.approx(0.7636)

    def test_signal_cycles(self, us25):
        for site in us25.signals:
            assert site.light.red_s == 30.0
            assert site.light.green_s == 30.0

    def test_custom_offsets(self):
        from repro.route.us25 import us25_greenville_segment

        road = us25_greenville_segment(signal_offsets_s=(5.0, 25.0))
        assert road.signals[0].light.offset_s == 5.0
        assert road.signals[1].light.offset_s == 25.0

    def test_wrong_offset_count_rejected(self):
        from repro.route.us25 import us25_greenville_segment

        with pytest.raises(ValueError):
            us25_greenville_segment(signal_offsets_s=(1.0,))
