"""Corridor-artifact layout: the class-built build against a per-segment oracle.

:meth:`CorridorArtifacts.build` prices each distinct ``(length, grade)``
segment shape once, reduces each class of equal shape, end masks and
departure dwell to its transitions once, and lays them out in route
order; it keeps only the transitions, their CSR offsets and each
segment's fastest traversal.  The admissible-velocity masks come from
array lookups of the zone limits (``RoadSegment.v_max_at``/``v_min_at``
over the grid).  The oracle below is the per-segment build it replaced
— a :class:`SegmentEnergyTable` per segment, per-segment pair
extraction, the per-point mask loop and the backwards min-time sum —
and every array must come out byte-equal, on fixed corridors and on
hypothesis roads mixing repeated flat segments, graded stretches, zone
changes, stop signs and a ``-0.0`` grade beside ``0.0``.  The oracle's
tables must equal the priced blocks, and a band's pairs
(:meth:`CorridorArtifacts.pairs_for`) must equal extraction from the
oracle's dense tables under the band.  The built-in catalog's held
arrays are pinned by sha256 at both grids.

The shared-memory export must carry all of it, CSR offsets included, to
an attached bundle that solves bit-identically.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.registry import builtin_catalog
from repro.core.cost import SegmentEnergyTable, WindowSet, price_segments
from repro.core.dp import DpSolver, TimeWindowConstraint
from repro.core.engine import CorridorArtifacts
from repro.core.engine import artifacts as artifacts_module
from repro.core.engine.shm import SharedCorridor
from repro.core.planner import PlannerConfig
from repro.errors import ConfigurationError
from repro.route.road import GradeProfile, RoadSegment, SignalSite, SpeedLimitZone, StopSign
from repro.route.us25 import us25_greenville_segment
from repro.signal.light import TrafficLight
from repro.signal.queue import QueueWindow
from repro.units import kmh_to_ms
from repro.vehicle.catalog import get_vehicle, vehicle_ids
from repro.vehicle.dynamics import LongitudinalModel
from repro.vehicle.scenarios import get_scenario, scenario_ids

#: The serving benchmark's grid and the paper's default grid.
BENCHMARK_GRID = dict(v_step_ms=1.0, s_step_m=25.0)
PAPER_GRID = dict(v_step_ms=0.5, s_step_m=10.0)
GRIDS = {"benchmark": BENCHMARK_GRID, "paper": PAPER_GRID}


# ----------------------------------------------------------------------
# The per-segment oracle
# ----------------------------------------------------------------------
def _oracle_allowed(road, vehicle, positions, v_grid, s_step_m, enforce_min_speed):
    stops = np.asarray(road.mandatory_stop_positions())
    allowed = np.zeros((positions.size, v_grid.size), dtype=bool)
    for i, s in enumerate(positions):
        if np.min(np.abs(stops - s)) < 1e-6:
            allowed[i, 0] = True
            continue
        v_max = road.v_max_at(float(s))
        mask = (v_grid > 0.0) & (v_grid <= v_max + 1e-9)
        if enforce_min_speed:
            v_min = road.v_min_at(float(s))
            if v_min > 0:
                ramp = max(
                    v_min * v_min / (2.0 * abs(vehicle.min_accel_ms2)),
                    v_min * v_min / (2.0 * vehicle.max_accel_ms2),
                ) + s_step_m
                if np.min(np.abs(stops - s)) > ramp:
                    mask &= v_grid >= v_min - 1e-9
        allowed[i] = mask
    return allowed


def _oracle(artifacts):
    """Every build array, recomputed one segment (and one point) at a time."""
    road, vehicle = artifacts.road, artifacts.vehicle
    positions, v_grid, dwell_at = artifacts.positions, artifacts.v_grid, artifacts.dwell_at
    model = LongitudinalModel(vehicle, artifacts.environment)
    tables = []
    for i in range(positions.size - 1):
        ds = float(positions[i + 1] - positions[i])
        mid = float(0.5 * (positions[i] + positions[i + 1]))
        tables.append(
            SegmentEnergyTable(
                model, v_grid, ds, road.grade_at(mid),
                vehicle.min_accel_ms2, vehicle.max_accel_ms2,
            )
        )
    allowed = _oracle_allowed(
        road, vehicle, positions, v_grid, artifacts.s_step_m, artifacts.enforce_min_speed
    )
    pairs, offsets = [], []
    start = 0
    for i, table in enumerate(tables):
        feasible = table.feasible & allowed[i][:, None] & allowed[i + 1][None, :]
        j_arr, j2_arr = np.nonzero(feasible)
        e_arr = table.energy_j[j_arr, j2_arr]
        dt_arr = table.travel_s[j_arr, j2_arr] + dwell_at[i]
        pairs.append((j_arr, j2_arr, e_arr, dt_arr))
        counts = np.bincount(j_arr, minlength=v_grid.size)
        offsets.append(start + np.concatenate([[0], np.cumsum(counts)]))
        start += j_arr.size
    to_go = np.zeros(positions.size)
    for i in range(positions.size - 2, -1, -1):
        finite = tables[i].travel_s[tables[i].feasible]
        best = float(finite.min()) if finite.size else np.inf
        to_go[i] = to_go[i + 1] + best + dwell_at[i]
    return tables, allowed, pairs, np.asarray(offsets, dtype=np.int64), to_go


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _source_index(pairs):
    """Each transition's source velocity index, read off the CSR offsets rows."""
    counts = np.diff(pairs.offsets, axis=1)
    levels = np.tile(np.arange(counts.shape[1]), counts.shape[0])
    return np.repeat(levels, counts.ravel())


def _segment_slices(pairs, source, i):
    """Segment ``i``'s ``(j, j2, energy_j, dt_s)``: one slice of the stacked arrays."""
    lo, hi = pairs.offsets[i, 0], pairs.offsets[i, -1]
    return source[lo:hi], pairs.j2[lo:hi], pairs.energy_j[lo:hi], pairs.dt_s[lo:hi]


def _priced_blocks(artifacts):
    """The blocks :meth:`CorridorArtifacts.build` prices, priced again."""
    positions, vehicle = artifacts.positions, artifacts.vehicle
    return price_segments(
        LongitudinalModel(vehicle, artifacts.environment),
        artifacts.v_grid,
        np.diff(positions),
        artifacts.road.grade_at(0.5 * (positions[:-1] + positions[1:])),
        vehicle.min_accel_ms2,
        vehicle.max_accel_ms2,
    )


def _oracle_band_pairs(tables, band, dwell_at):
    """Segment by segment, the dense tables' transitions that ``band`` admits."""
    pairs, offsets = [], []
    start = 0
    for i, table in enumerate(tables):
        feasible = table.feasible & band[i][:, None] & band[i + 1][None, :]
        j_arr, j2_arr = np.nonzero(feasible)
        pairs.append((
            j_arr, j2_arr, table.energy_j[j_arr, j2_arr],
            table.travel_s[j_arr, j2_arr] + dwell_at[i],
        ))
        counts = np.bincount(j_arr, minlength=band.shape[1])
        offsets.append(start + np.concatenate([[0], np.cumsum(counts)]))
        start += j_arr.size
    return pairs, np.asarray(offsets, dtype=np.int64)


def _assert_pairs_match(got, want_pairs, want_offsets):
    source = _source_index(got)
    for i, want in enumerate(want_pairs):
        for got_array, want_array in zip(_segment_slices(got, source, i), want):
            assert _same_bytes(got_array, want_array)
    assert _same_bytes(got.offsets, want_offsets)
    # The segments tile the stacked arrays: nothing but their slices is held.
    assert got.j2.size == got.offsets[-1, -1]


def _assert_matches_oracle(artifacts):
    tables, allowed, pairs, offsets, to_go = _oracle(artifacts)
    assert artifacts.n_segments == len(tables)
    seg = 0
    for energy_j, travel_s, feasible in _priced_blocks(artifacts):
        for k in range(feasible.shape[0]):
            assert _same_bytes(energy_j[k], tables[seg].energy_j)
            assert _same_bytes(travel_s[k], tables[seg].travel_s)
            assert _same_bytes(feasible[k], tables[seg].feasible)
            seg += 1
    assert seg == len(tables)
    _assert_pairs_match(artifacts.pairs, pairs, offsets)
    assert _same_bytes(artifacts.allowed, allowed)
    assert _same_bytes(artifacts.min_time_to_go, to_go)
    # The oracle's dt sums read the dwells, so pin them too.
    stops = [int(np.argmin(np.abs(artifacts.positions - s.position_m)))
             for s in artifacts.road.stop_signs]
    expected_dwell = np.zeros(artifacts.positions.size)
    expected_dwell[stops] = artifacts.stop_dwell_s
    assert _same_bytes(artifacts.dwell_at, expected_dwell)


def _graded_road():
    """A short hilly road: two zones with minimum speeds, two stop signs, a signal."""
    return RoadSegment(
        name="graded test road",
        length_m=1400.0,
        zones=[
            SpeedLimitZone(0.0, 700.0, v_max_ms=kmh_to_ms(50.0), v_min_ms=kmh_to_ms(20.0)),
            SpeedLimitZone(700.0, 1400.0, v_max_ms=kmh_to_ms(70.0), v_min_ms=kmh_to_ms(30.0)),
        ],
        stop_signs=[StopSign(333.0), StopSign(1015.0)],
        signals=[SignalSite(position_m=620.0, light=TrafficLight(red_s=25.0, green_s=30.0))],
        grade=GradeProfile(
            [0.0, 250.0, 500.0, 900.0, 1400.0], [0.0, 0.035, -0.02, 0.05, -0.01]
        ),
    )


class TestStackedBuildMatchesPerSegmentOracle:
    @pytest.mark.parametrize("scenario_id", scenario_ids())
    @pytest.mark.parametrize("vehicle_id", vehicle_ids())
    def test_us25_benchmark_grid(self, vehicle_id, scenario_id):
        artifacts = CorridorArtifacts.build(
            us25_greenville_segment(),
            get_vehicle(vehicle_id),
            environment=get_scenario(scenario_id).environment,
            **BENCHMARK_GRID,
        )
        _assert_matches_oracle(artifacts)

    @pytest.mark.parametrize("enforce_min_speed", [True, False])
    def test_graded_road_paper_grid(self, vehicle, enforce_min_speed):
        artifacts = CorridorArtifacts.build(
            _graded_road(), vehicle, enforce_min_speed=enforce_min_speed, **PAPER_GRID
        )
        assert np.ptp([artifacts.road.grade_at(float(s)) for s in artifacts.positions]) > 0
        _assert_matches_oracle(artifacts)

    def test_empty_mask_reports_the_first_bad_point(self, vehicle):
        # A 0.1 m/s limit leaves no positive grid speed at a 1 m/s step.
        road = RoadSegment(
            name="crawl",
            length_m=300.0,
            zones=[
                SpeedLimitZone(0.0, 150.0, v_max_ms=10.0),
                SpeedLimitZone(150.0, 300.0, v_max_ms=0.1),
            ],
        )
        with pytest.raises(ConfigurationError, match="no admissible velocity at 150.0 m"):
            CorridorArtifacts.build(road, vehicle, v_step_ms=1.0, s_step_m=50.0)

    def test_us25_paper_grid(self, vehicle):
        _assert_matches_oracle(CorridorArtifacts.build(us25_greenville_segment(), vehicle,
                                                       **PAPER_GRID))

    def test_band_pairs_come_from_the_same_extractor(self, vehicle):
        artifacts = CorridorArtifacts.build(_graded_road(), vehicle, **BENCHMARK_GRID)
        assert _same_bytes(artifacts.pairs_for(artifacts.allowed).offsets,
                           artifacts.pairs.offsets)
        band = artifacts.restrict_allowed(lambda s: (0.0, 9.0))
        restricted = artifacts.pairs_for(band)
        source = _source_index(restricted)
        for i in range(artifacts.n_segments):
            j_arr, j2_arr, _, _ = _segment_slices(restricted, source, i)
            assert np.all(band[i][j_arr]) and np.all(band[i + 1][j2_arr])
        assert restricted.j2.size < artifacts.pairs.j2.size

    @pytest.mark.parametrize("grid", [BENCHMARK_GRID, PAPER_GRID], ids=["benchmark", "paper"])
    def test_graded_us25_without_repeats(self, vehicle, grid):
        road = us25_greenville_segment(
            grade=GradeProfile([0.0, 1500.0, 2600.0, 4200.0], [0.0, 0.03, -0.02, 0.01])
        )
        artifacts = CorridorArtifacts.build(road, vehicle, **grid)
        shapes = np.column_stack([np.diff(artifacts.positions), _midpoint_grades(artifacts)])
        # Graded throughout: a shape repeats only where two slopes pass
        # one grade value at matching midpoints (2 of 420 at the paper grid).
        assert np.unique(shapes, axis=0).shape[0] >= 0.99 * artifacts.n_segments
        _assert_matches_oracle(artifacts)


# ----------------------------------------------------------------------
# Class-built: random roads against the per-segment oracle
# ----------------------------------------------------------------------
def _midpoint_grades(artifacts):
    positions = artifacts.positions
    return artifacts.road.grade_at(0.5 * (positions[:-1] + positions[1:]))


@st.composite
def _roads(draw):
    """A road of flat repeats, graded stretches, zones, stops and signals.

    The grade is ``0.0`` before the first breakpoint and ``-0.0`` after
    the last (:func:`numpy.interp` holds the end values), so flat
    segments of both signed zeros repeat on every road; with no sloped
    piece between the two breakpoints they sit side by side.
    """
    length = draw(st.integers(6_000, 16_000)) / 10.0
    inside = st.integers(1_000, int(length * 10) - 1_000).map(lambda x: x / 10.0)
    cuts = draw(st.lists(inside, max_size=2, unique=True))
    bounds = [0.0, *sorted(cuts), length]
    zones = []
    for start, end in zip(bounds[:-1], bounds[1:]):
        v_max = kmh_to_ms(draw(st.sampled_from([40.0, 50.0, 60.0, 70.0])))
        v_min = kmh_to_ms(draw(st.sampled_from([0.0, 15.0, 25.0])))
        zones.append(SpeedLimitZone(start, end, v_max_ms=v_max, v_min_ms=v_min))
    head = length * draw(st.integers(15, 35)) / 100.0
    tail = length * draw(st.integers(60, 85)) / 100.0
    slopes = sorted(draw(st.lists(st.integers(1, 99), max_size=3, unique=True)))
    grade = GradeProfile(
        [head, *(head + (tail - head) * k / 100.0 for k in slopes), tail],
        [0.0, *(draw(st.integers(-50, 50)) / 1000.0 for _ in slopes), -0.0],
    )
    light = TrafficLight(red_s=25.0, green_s=30.0)
    return RoadSegment(
        name="random test road",
        length_m=length,
        zones=zones,
        stop_signs=[StopSign(s) for s in draw(st.lists(inside, max_size=2, unique=True))],
        signals=[SignalSite(s, light) for s in draw(st.lists(inside, max_size=2, unique=True))],
        grade=grade,
    )


class TestClassBuiltMatchesPerSegmentOracle:
    @pytest.mark.parametrize("grid_name", ["benchmark", "paper"])
    @settings(max_examples=20, deadline=None)
    @given(
        road=_roads(),
        vehicle_id=st.sampled_from(vehicle_ids()),
        scenario_id=st.sampled_from(scenario_ids()),
        stop_dwell_s=st.sampled_from([0.0, 2.0, 3.5]),
        enforce_min_speed=st.booleans(),
    )
    def test_random_roads(
        self, grid_name, road, vehicle_id, scenario_id, stop_dwell_s, enforce_min_speed
    ):
        artifacts = CorridorArtifacts.build(
            road,
            get_vehicle(vehicle_id),
            environment=get_scenario(scenario_id).environment,
            stop_dwell_s=stop_dwell_s,
            enforce_min_speed=enforce_min_speed,
            **GRIDS[grid_name],
        )
        grades = _midpoint_grades(artifacts)
        signs = np.signbit(grades[grades == 0.0])
        assert signs.any() and not signs.all()
        _assert_matches_oracle(artifacts)


# ----------------------------------------------------------------------
# The built-in catalog: shapes priced once, bytes pinned
# ----------------------------------------------------------------------
#: sha256 over the built-in catalog's held arrays, the source index
#: derived from the offsets included (:func:`_catalog_sha256`), as the
#: per-segment build produced them.
CATALOG_SHA256 = {
    "benchmark": "bc93571badfc5a7d54db3e923fe927af22aadf975a9a335fd9e58fd6e6f36dfa",
    "paper": "072bac14fa24138489152198ebcd2b8ed0d600a98510de0776ac9ae2baa45031",
}


def _catalog_artifacts(grid_name):
    """Each built-in corridor's artifacts, as its serving runtime builds them."""
    catalog = builtin_catalog(config=PlannerConfig(t_bin_s=2.0, **GRIDS[grid_name]))
    return {cid: catalog.runtime(cid).planner.solver.artifacts for cid in catalog.ids()}


def _catalog_sha256(grid_name):
    digest = hashlib.sha256()
    for cid, artifacts in _catalog_artifacts(grid_name).items():
        pairs = artifacts.pairs
        arrays = [(name, getattr(artifacts, name)) for name in
                  ("positions", "v_grid", "allowed", "dwell_at", "min_time_to_go")]
        arrays += [("pairs.offsets", pairs.offsets), ("pairs.j", _source_index(pairs))]
        arrays += [(f"pairs.{name}", getattr(pairs, name)) for name in ("j2", "energy_j", "dt_s")]
        for name, array in arrays:
            digest.update(f"{cid}:{name}:{array.dtype.str}:{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TestBuiltinCatalog:
    @pytest.mark.parametrize(
        "grid_name, segments, shapes", [("benchmark", 496, 9), ("paper", 1240, 3)]
    )
    def test_each_distinct_shape_is_priced_once(self, monkeypatch, grid_name, segments, shapes):
        priced = []

        def counting(model, v_grid, distances_m, *args):
            priced.append(len(distances_m))
            return price_segments(model, v_grid, distances_m, *args)

        monkeypatch.setattr(artifacts_module, "price_segments", counting)
        built = _catalog_artifacts(grid_name)
        assert sum(artifacts.n_segments for artifacts in built.values()) == segments
        assert len(priced) == len(built)
        assert sum(priced) == shapes

    @pytest.mark.parametrize("grid_name", ["benchmark", "paper"])
    def test_held_arrays_are_the_per_segment_builds_bytes(self, grid_name):
        assert _catalog_sha256(grid_name) == CATALOG_SHA256[grid_name]


# ----------------------------------------------------------------------
# Band pairs: a filter over the base pairs
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _band_case(grid_name):
    """A build at one grid and its oracle's per-segment tables (built once)."""
    if grid_name == "benchmark":
        road, grid = us25_greenville_segment(), BENCHMARK_GRID
    else:
        road, grid = _graded_road(), PAPER_GRID
    artifacts = CorridorArtifacts.build(road, get_vehicle("spark_ev"), **grid)
    return artifacts, _oracle(artifacts)[0]


class TestBandPairsFilterTheBasePairs:
    @pytest.mark.parametrize("grid_name", ["benchmark", "paper"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_width=st.integers(0, 12))
    def test_band_pairs_equal_dense_extraction(self, grid_name, seed, max_width):
        artifacts, tables = _band_case(grid_name)
        rng = np.random.default_rng(seed)
        n_points, n_v = artifacts.allowed.shape
        lo = rng.integers(0, n_v, size=n_points)
        hi = lo + rng.integers(0, max_width + 1, size=n_points)
        levels = np.arange(n_v)
        band = artifacts.allowed & (levels >= lo[:, None]) & (levels <= hi[:, None])
        want_pairs, want_offsets = _oracle_band_pairs(tables, band, artifacts.dwell_at)
        _assert_pairs_match(artifacts.pairs_for(band), want_pairs, want_offsets)

    def test_refuses_a_mask_wider_than_the_base_masks(self):
        artifacts, _ = _band_case("benchmark")
        widened = artifacts.allowed.copy()
        point = int(np.flatnonzero(~widened.all(axis=1))[0])
        level = int(np.flatnonzero(~widened[point])[0])
        widened[point, level] = True
        with pytest.raises(ConfigurationError, match="refused by the corridor's own masks"):
            artifacts.pairs_for(widened)

    @pytest.mark.parametrize(
        "mask",
        [lambda a: a.allowed[:-1], lambda a: a.allowed.astype(np.int8)],
        ids=["shape", "dtype"],
    )
    def test_refuses_a_mask_of_another_shape_or_dtype(self, mask):
        artifacts, _ = _band_case("benchmark")
        with pytest.raises(ConfigurationError, match="velocity masks must be bool"):
            artifacts.pairs_for(mask(artifacts))


# ----------------------------------------------------------------------
# Footprint: only the pairs are held
# ----------------------------------------------------------------------
def _held_arrays(artifacts):
    for name in ("positions", "v_grid", "allowed", "dwell_at", "min_time_to_go"):
        yield name, getattr(artifacts, name)
    for name in ("offsets", "j2", "energy_j", "dt_s"):
        yield f"pairs.{name}", getattr(artifacts.pairs, name)


class TestHeldFootprint:
    @pytest.mark.parametrize("grid", [BENCHMARK_GRID, PAPER_GRID], ids=["benchmark", "paper"])
    def test_no_dense_table_is_held_and_nbytes_sums_what_is(self, vehicle, grid):
        artifacts = CorridorArtifacts.build(us25_greenville_segment(), vehicle, **grid)
        dense = (artifacts.n_segments, artifacts.v_grid.size, artifacts.v_grid.size)
        held = dict(_held_arrays(artifacts))
        assert all(array.shape != dense for array in held.values())
        assert not any(
            isinstance(value, np.ndarray) and value.shape == dense
            for value in vars(artifacts).values()
        )
        assert artifacts.nbytes == sum(array.nbytes for array in held.values())

    def test_paper_grid_us25_holds_at_most_2_mb(self, vehicle):
        artifacts = CorridorArtifacts.build(us25_greenville_segment(), vehicle, **PAPER_GRID)
        assert artifacts.nbytes <= 2_000_000

    def test_held_arrays_are_read_only(self, vehicle):
        artifacts = CorridorArtifacts.build(_graded_road(), vehicle, **BENCHMARK_GRID)
        band = artifacts.pairs_for(artifacts.restrict_allowed(lambda s: (0.0, 9.0)))
        for name, array in _held_arrays(artifacts):
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = array[(0,) * array.ndim]
        for name in ("offsets", "j2", "energy_j", "dt_s"):
            assert not getattr(band, name).flags.writeable, name


# ----------------------------------------------------------------------
# Shared-memory round trip
# ----------------------------------------------------------------------
class TestSharedCorridorRoundTrip:
    @pytest.mark.parametrize("vehicle_id", ["spark_ev", "sedan_ev"])
    def test_export_attach_is_lossless_and_solves_identically(self, vehicle_id):
        road = _graded_road()
        vehicle = get_vehicle(vehicle_id)
        built = CorridorArtifacts.build(road, vehicle, **BENCHMARK_GRID)
        with SharedCorridor.export(built) as exported:
            attached = SharedCorridor.attach(exported.spec)
            try:
                view = attached.artifacts()
                assert view is not built
                assert view.digest == built.digest
                assert view.nbytes == built.nbytes
                for (name, got), (_, want) in zip(_held_arrays(view), _held_arrays(built)):
                    assert _same_bytes(got, want), name
                    assert not got.flags.writeable, name
                # One slot per held array (and per efficiency-map array):
                # the stacked layout does not grow with the number of
                # segments, and no dense table is exported.
                slots = set(exported.spec["slots"])
                assert {name for name, _ in _held_arrays(built)} <= slots
                assert all(
                    name.startswith("effmap.")
                    for name in slots - {name for name, _ in _held_arrays(built)}
                )
                window = TimeWindowConstraint(
                    620.0, WindowSet([QueueWindow(60.0, 95.0), QueueWindow(150.0, 190.0)])
                )
                kwargs = dict(vehicle=vehicle, t_bin_s=2.0, horizon_s=400.0, **BENCHMARK_GRID)
                want = DpSolver(road, artifacts=built, **kwargs).solve([window])
                got = DpSolver(road, artifacts=view, **kwargs).solve([window])
                assert np.array_equal(got.profile.speeds_ms, want.profile.speeds_ms)
                assert got.energy_j == want.energy_j
                assert got.trip_time_s == want.trip_time_s
                assert got.expanded_transitions == want.expanded_transitions
            finally:
                del view
                attached.close()
