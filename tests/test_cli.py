"""The repro-plan command-line tool."""

import pytest

from repro.cli import build_parser, main


FAST_ARGS = ["--v-step", "1.0", "--s-step", "50.0"]


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.planner == "proposed"
        assert args.rate == 153.0
        assert args.cap is None

    def test_planner_choices(self):
        parser = build_parser()
        for choice in ("proposed", "baseline", "unconstrained"):
            assert parser.parse_args(["--planner", choice]).planner == choice
        with pytest.raises(SystemExit):
            parser.parse_args(["--planner", "magic"])


class TestMain:
    def test_proposed_plan_prints_summary(self, capsys):
        assert main(FAST_ARGS + ["--rate", "300", "--cap", "320"]) == 0
        out = capsys.readouterr().out
        assert "US-25" in out
        assert "signal @   1820 m" in out
        assert "[ok]" in out

    def test_baseline_planner(self, capsys):
        assert main(FAST_ARGS + ["--planner", "baseline", "--cap", "320"]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_unconstrained_has_no_signal_rows(self, capsys):
        assert main(FAST_ARGS + ["--planner", "unconstrained", "--cap", "320"]) == 0
        out = capsys.readouterr().out
        assert "signal @" not in out

    def test_csv_output(self, tmp_path, capsys):
        target = tmp_path / "plan.csv"
        assert main(FAST_ARGS + ["--cap", "320", "--csv", str(target)]) == 0
        assert target.exists()
        header = target.read_text().splitlines()[0]
        assert header == "time_s,position_m,speed_ms"

    def test_infeasible_reports_error(self, capsys):
        code = main(FAST_ARGS + ["--cap", "60"])  # 4.2 km in 60 s: impossible
        assert code == 1
        assert "planning failed" in capsys.readouterr().err

    def test_default_cap_computed(self, capsys):
        assert main(FAST_ARGS + ["--rate", "200"]) == 0
        out = capsys.readouterr().out
        assert "trip budget" in out


class TestVehicleFlags:
    def test_list_vehicles_prints_catalog_and_packs(self, capsys):
        assert main(["--list-vehicles"]) == 0
        out = capsys.readouterr().out
        assert "vehicles:" in out
        assert "spark_ev" in out
        assert "scenario packs:" in out
        assert "cold-morning" in out

    def test_scenario_selects_pack_vehicle_and_environment(self, capsys):
        args = FAST_ARGS + ["--rate", "300", "--cap", "320",
                            "--scenario", "headwind-commute"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "vehicle      : city_ev" in out
        assert "scenario     : headwind-commute" in out

    def test_explicit_vehicle_overrides_the_pack(self, capsys):
        args = FAST_ARGS + ["--rate", "300", "--cap", "320",
                            "--scenario", "cold-morning", "--vehicle", "sedan_ev"]
        assert main(args) == 0
        assert "vehicle      : sedan_ev" in capsys.readouterr().out

    def test_vehicle_changes_the_planned_energy(self, capsys):
        base = FAST_ARGS + ["--rate", "300", "--cap", "320"]
        assert main(base) == 0
        nominal_out = capsys.readouterr().out
        assert main(base + ["--vehicle", "delivery_van"]) == 0
        van_out = capsys.readouterr().out

        def energy(text):
            for line in text.splitlines():
                if line.startswith("planned energy"):
                    return line
            raise AssertionError(f"no energy line in {text!r}")

        assert energy(van_out) != energy(nominal_out)

    def test_unknown_vehicle_exits_2(self, capsys):
        assert main(FAST_ARGS + ["--vehicle", "hoverboard"]) == 2
        err = capsys.readouterr().err
        assert "invalid vehicle/scenario" in err
        assert "hoverboard" in err

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(FAST_ARGS + ["--scenario", "blizzard"]) == 2
        assert "blizzard" in capsys.readouterr().err


class TestChaosPath:
    def test_zero_drop_serves_primary_tier(self, capsys):
        args = FAST_ARGS + ["--rate", "300", "--cap", "320", "--drop-rate", "0.0"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "served by    : queue_dp tier" in out
        assert "cloud client" in out
        assert "breaker closed" in out

    def test_total_loss_degrades_to_local_tier(self, capsys):
        args = FAST_ARGS + ["--rate", "300", "--cap", "320", "--drop-rate", "1.0"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "served by    : baseline_dp tier" in out
        assert "drop(s)" in out

    def test_degraded_plan_verifies_in_sim(self, capsys):
        args = FAST_ARGS + [
            "--rate",
            "300",
            "--cap",
            "320",
            "--drop-rate",
            "1.0",
            "--verify",
        ]
        assert main(args) == 0
        assert "verified in sim" in capsys.readouterr().out


class TestServiceStatsJson:
    def test_composed_document_written(self, tmp_path, capsys):
        import json

        target = tmp_path / "svc.json"
        args = FAST_ARGS + [
            "--rate", "300", "--cap", "320",
            "--drop-rate", "0.0",
            "--service-stats-json", str(target),
        ]
        assert main(args) == 0
        assert "service stats written to" in capsys.readouterr().out
        doc = json.loads(target.read_text())
        assert doc["schema"] == "repro.cloud.stats/v2"
        for section in ("service", "plan_cache", "client", "artifact_store"):
            assert section in doc
        service = doc["service"]
        assert service["requests"] == (
            service["cache_hits"] + service["cache_misses"] + service["errors"]
        )

    def test_without_drop_rate_still_emits_store_section(self, tmp_path):
        import json

        target = tmp_path / "svc.json"
        args = FAST_ARGS + ["--cap", "320", "--service-stats-json", str(target)]
        assert main(args) == 0
        doc = json.loads(target.read_text())
        assert doc["schema"] == "repro.cloud.stats/v2"
        assert "artifact_store" in doc
        assert "service" not in doc  # no cloud path stood up

    def test_unwritable_path_exits_1(self, capsys):
        args = FAST_ARGS + [
            "--cap", "320",
            "--service-stats-json", "/nonexistent-dir/svc.json",
        ]
        assert main(args) == 1
        assert "could not write service stats" in capsys.readouterr().err


class TestGuardPath:
    def test_validate_prints_audit_line(self, capsys):
        args = FAST_ARGS + ["--rate", "300", "--cap", "320", "--validate"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "plan audit" in out
        assert "plan valid" in out

    def test_strict_implies_validate(self, capsys):
        args = FAST_ARGS + ["--rate", "300", "--cap", "320", "--strict"]
        assert main(args) == 0
        assert "plan audit" in capsys.readouterr().out

    def test_strict_rejects_malformed_road_file_with_exit_2(self, tmp_path, capsys):
        import json

        bad = {
            "format_version": 1,
            "name": "bad",
            "length_m": -4000.0,
            "zones": [],
            "stop_signs": [],
            "signals": [],
            "grade": {"positions_m": [0.0], "grades_rad": [0.0]},
        }
        path = tmp_path / "bad_road.json"
        path.write_text(json.dumps(bad))
        code = main(FAST_ARGS + ["--road", str(path), "--strict"])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid road file" in err
        assert err.count("\n") == 1  # one line, not a traceback

    def test_speed_limit_tier_skips_audit_gracefully(self, capsys):
        args = FAST_ARGS + [
            "--rate", "300", "--cap", "320",
            "--drop-rate", "1.0", "--chaos-seed", "7", "--validate",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "plan audit" in out


class TestUncertaintyPath:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.chance_level is None
        assert args.timing_error == 6.0
        assert args.receding_horizon is False
        assert args.lookahead is None

    def test_chance_level_prints_margin(self, capsys):
        args = FAST_ARGS + ["--rate", "300", "--cap", "320", "--chance-level", "0.9"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "chance level : 0.90" in out
        assert "window margin +4.8 s" in out  # q0.9 of uniform +/-6 s grid
        assert "[ok]" in out

    def test_chance_level_requires_proposed_planner(self, capsys):
        args = FAST_ARGS + ["--planner", "baseline", "--chance-level", "0.9"]
        assert main(args) == 2
        assert "proposed" in capsys.readouterr().err

    def test_bad_chance_level_exits_2(self, capsys):
        args = FAST_ARGS + ["--chance-level", "1.0"]
        assert main(args) == 2
        assert "invalid chance constraint" in capsys.readouterr().err

    def test_receding_horizon_plans(self, capsys):
        args = FAST_ARGS + ["--rate", "300", "--cap", "320", "--receding-horizon"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "mpc          : receding horizon, lookahead full horizon" in out
        assert "[ok]" in out

    def test_receding_horizon_with_chance_and_lookahead(self, capsys):
        args = FAST_ARGS + [
            "--rate", "300", "--cap", "320",
            "--chance-level", "0.9", "--receding-horizon", "--lookahead", "120",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "chance level : 0.90" in out
        assert "lookahead 120 s" in out

    def test_bad_lookahead_exits_2(self, capsys):
        args = FAST_ARGS + ["--receding-horizon", "--lookahead", "-5"]
        assert main(args) == 2
        assert "invalid receding horizon" in capsys.readouterr().err


class TestCorridorFlags:
    def test_list_corridors_prints_catalog_and_exits(self, capsys):
        assert main(["--list-corridors"]) == 0
        out = capsys.readouterr().out
        for corridor_id in ("us25", "elm-street", "airport-loop"):
            assert corridor_id in out
        assert "US-25 Greenville" in out

    def test_corridor_selects_the_named_road(self, capsys):
        assert main(FAST_ARGS + ["--corridor", "elm-street", "--cap", "400"]) == 0
        out = capsys.readouterr().out
        assert "Elm Street downtown (2.6 km)" in out
        assert "signal @    900 m" in out

    def test_unknown_corridor_exits_2_listing_known_ids(self, capsys):
        assert main(FAST_ARGS + ["--corridor", "route-66"]) == 2
        err = capsys.readouterr().err
        assert "route-66" in err
        assert "elm-street" in err

    def test_corridor_and_road_are_mutually_exclusive(self, tmp_path, capsys):
        road_file = tmp_path / "road.json"
        road_file.write_text("{}")
        code = main(
            FAST_ARGS + ["--corridor", "us25", "--road", str(road_file)]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err
