"""Command-line planning tool: ``repro-plan``.

Plans one EV trip over the US-25 corridor (or a custom-length clone of
it) and prints the plan summary; optionally writes the time-sampled
profile to CSV and verifies the plan in the microsimulator.

Examples::

    repro-plan --rate 300 --depart 10 --cap 280
    repro-plan --planner baseline --csv plan.csv
    repro-plan --chance-level 0.9 --timing-error 6   # margin vs forecast error
    repro-plan --chance-level 0.9 --receding-horizon # ... replanned per cycle
    repro-plan --rate 500 --verify --seed 7
    repro-plan --metrics               # plan summary + JSON metrics report
    repro-plan --metrics=run.json      # write the report to a file
    repro-plan --road route.json --strict   # exit 2 on any contract breach
    repro-plan --via-server            # plan over a real loopback TCP server
    repro-plan --via-server --drop-rate 0.3  # ... through a chaos proxy

Exit codes: 0 success, 1 planning failure, 2 input or plan failed its
validation contract (malformed road file, plan-audit violation under
``--strict``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro import obs
from repro.core.planner import (
    BaselineDpPlanner,
    PlannerConfig,
    QueueAwareDpPlanner,
    UnconstrainedDpPlanner,
)
from repro.errors import InputValidationError, ReproError
from repro.route.us25 import us25_greenville_segment
from repro.trace.io import save_trace_csv
from repro.units import vehicles_per_hour_to_per_second

#: Exit code for contract violations (vs 1 for ordinary planning failure).
EXIT_INVALID = 2


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-plan`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-plan",
        description="Plan a queue-aware EV velocity profile over the US-25 corridor.",
    )
    parser.add_argument(
        "--planner",
        choices=("proposed", "baseline", "unconstrained"),
        default="proposed",
        help="proposed = queue-aware T_q windows; baseline = green windows [2]; "
        "unconstrained = ignore signals",
    )
    parser.add_argument(
        "--rate", type=float, default=153.0, help="arrival rate at the signals (veh/h)"
    )
    parser.add_argument("--depart", type=float, default=0.0, help="departure time (s)")
    parser.add_argument(
        "--cap", type=float, default=None, help="trip-time budget (s); default: fastest + 30"
    )
    parser.add_argument("--v-step", type=float, default=0.5, help="velocity grid step (m/s)")
    parser.add_argument("--s-step", type=float, default=10.0, help="distance grid step (m)")
    parser.add_argument(
        "--margin", type=float, default=2.0, help="arrival-window safety margin (s)"
    )
    parser.add_argument(
        "--chance-level",
        type=float,
        default=None,
        metavar="P",
        help="plan chance-constrained (proposed planner only): shrink every "
        "queue-free window so the arrival lands inside the true window with "
        "probability >= P under the --timing-error distribution; P <= 0.5 "
        "adds no margin and plans bit-identically to the point forecast",
    )
    parser.add_argument(
        "--timing-error",
        type=float,
        default=6.0,
        metavar="S",
        help="largest absolute window-timing error modeled for "
        "--chance-level (s), as a uniform distribution over [-S, S]",
    )
    parser.add_argument(
        "--receding-horizon",
        action="store_true",
        help="wrap the planner in the MPC-style receding-horizon tier: "
        "replans run per cycle from the current state over warm corridor "
        "artifacts, and an infeasible cycle retries minimum-time before "
        "failing typed",
    )
    parser.add_argument(
        "--lookahead",
        type=float,
        default=None,
        metavar="S",
        help="with --receding-horizon: only carry signal constraints "
        "optimistically reachable within S seconds; default keeps all",
    )
    parser.add_argument("--csv", type=str, default=None, help="write the profile to CSV")
    parser.add_argument(
        "--road",
        type=str,
        default=None,
        help="plan over a corridor loaded from a JSON road file instead of US-25",
    )
    parser.add_argument(
        "--corridor",
        type=str,
        default=None,
        metavar="NAME",
        help="plan over a named corridor from the builtin catalog "
        "(see --list-corridors); an unknown name exits 2 listing the "
        "known ids",
    )
    parser.add_argument(
        "--list-corridors",
        action="store_true",
        help="print the builtin corridor catalog (id, length, background "
        "rate, description) and exit",
    )
    parser.add_argument(
        "--vehicle",
        type=str,
        default=None,
        metavar="NAME",
        help="plan for a named vehicle from the catalog (see "
        "--list-vehicles); default is the paper's Spark EV; an unknown "
        "name exits 2 listing the known ids",
    )
    parser.add_argument(
        "--scenario",
        type=str,
        default=None,
        metavar="NAME",
        help="plan under a named scenario pack (vehicle + ambient "
        "environment: temperature, wind, payload, grade offset; see "
        "--list-vehicles); --vehicle overrides the pack's vehicle",
    )
    parser.add_argument(
        "--list-vehicles",
        action="store_true",
        help="print the vehicle catalog and the scenario packs, then exit",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="play the plan through the microsimulator and report the derived trip",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulator seed for --verify")
    parser.add_argument(
        "--metrics",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="collect observability metrics (DP per-phase spans, latency "
        "histograms) and emit a JSON report: to stdout, or to PATH with "
        "--metrics=PATH (which also prints an ASCII summary)",
    )
    parser.add_argument(
        "--drop-rate",
        type=float,
        default=None,
        metavar="P",
        help="plan through the resilient cloud client with this request "
        "drop probability; on cloud failure the degradation ladder serves "
        "a fallback tier (baseline DP, GLOSA, speed-limit tracking)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=7,
        help="fault-injection seed for --drop-rate",
    )
    parser.add_argument(
        "--via-server",
        action="store_true",
        help="serve the plan over a real loopback TCP server (the asyncio "
        "front door) through the socket transport and resilient client; "
        "with --drop-rate P the wire additionally crosses a seeded chaos "
        "proxy that drops/delays/truncates/duplicates frames at rate P",
    )
    parser.add_argument(
        "--no-artifact-cache",
        action="store_true",
        help="build the corridor artifacts directly instead of through the "
        "shared artifact store (solutions are bit-identical either way; "
        "this only disables reuse across planner/ladder tiers)",
    )
    parser.add_argument(
        "--service-stats-json",
        type=str,
        default=None,
        metavar="PATH",
        help="write the composed serving-stack counters (service, plan "
        "caches, resilient client, artifact store) to PATH as one JSON "
        "document (schema repro.cloud.stats/v2)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="audit the produced plan against the safety contract "
        "(finite, monotone, within speed/accel envelopes, arrivals "
        "inside green windows) and print the verdict",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="implies --validate; a plan-audit violation (or any input "
        "contract breach) exits with code 2 instead of a warning",
    )
    return parser


def _emit_metrics(destination: str, registry: obs.MetricsRegistry) -> None:
    """Write the metrics report: ``-`` means stdout, else a file + summary."""
    report = obs.to_json(registry)
    if destination == "-":
        print(report)
        return
    try:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    except OSError as exc:
        print(f"could not write metrics to {destination!r}: {exc}", file=sys.stderr)
        return
    print(f"metrics written to {destination}")
    print(obs.summary(registry))


def main(argv: Optional[list] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    registry = obs.get_registry()
    if args.list_corridors:
        from repro.cloud.registry import builtin_catalog

        catalog = builtin_catalog()
        for corridor_id in catalog.ids():
            spec = catalog.spec(corridor_id)
            print(
                f"{corridor_id:14s} {spec.road.length_m / 1000.0:5.1f} km, "
                f"{spec.arrival_rate_vph:4.0f} veh/h  {spec.description}"
            )
        return 0
    if args.list_vehicles:
        from repro.vehicle.catalog import describe_vehicle, get_vehicle, vehicle_ids
        from repro.vehicle.scenarios import get_scenario, scenario_ids

        print("vehicles:")
        for vehicle_id in vehicle_ids():
            params = get_vehicle(vehicle_id)
            print(
                f"  {vehicle_id:14s} {params.mass_kg:6.0f} kg  "
                f"{describe_vehicle(vehicle_id)}"
            )
        print("scenario packs:")
        for scenario_id in scenario_ids():
            pack = get_scenario(scenario_id)
            print(
                f"  {scenario_id:16s} vehicle={pack.vehicle_id:13s} "
                f"{pack.environment.describe()}  {pack.description}"
            )
        return 0
    if args.metrics is not None:
        # Enable before the planner is built so the DP table-build span
        # (often the dominant startup cost) lands in the report.
        registry.enabled = True
        registry.reset()
    if args.road and args.corridor:
        print(
            "--road and --corridor are mutually exclusive", file=sys.stderr
        )
        return EXIT_INVALID
    if args.corridor:
        from repro.cloud.registry import builtin_catalog
        from repro.errors import UnknownCorridorError

        try:
            road = builtin_catalog().spec(args.corridor).road
        except UnknownCorridorError as exc:
            print(f"unknown corridor: {exc}", file=sys.stderr)
            return EXIT_INVALID
    elif args.road:
        from repro.route.io import load_road_json

        try:
            road = load_road_json(args.road)
        except InputValidationError as exc:
            print(f"invalid road file: {exc}", file=sys.stderr)
            return EXIT_INVALID
    else:
        road = us25_greenville_segment()
    vehicle = None
    environment = None
    scenario_pack = None
    if args.scenario or args.vehicle:
        from repro.vehicle.catalog import get_vehicle
        from repro.vehicle.scenarios import get_scenario

        try:
            if args.scenario:
                scenario_pack = get_scenario(args.scenario)
                environment = scenario_pack.environment
                vehicle = scenario_pack.vehicle()
            if args.vehicle:
                # Explicit vehicle beats the pack's choice.
                vehicle = get_vehicle(args.vehicle)
        except InputValidationError as exc:
            print(f"invalid vehicle/scenario: {exc}", file=sys.stderr)
            return EXIT_INVALID
    config = PlannerConfig(
        v_step_ms=args.v_step, s_step_m=args.s_step, window_margin_s=args.margin
    )
    rate = vehicles_per_hour_to_per_second(args.rate)
    if args.no_artifact_cache:
        store = None
    else:
        from repro.core.engine import ArtifactStore

        store = ArtifactStore()
    if args.chance_level is not None and args.planner != "proposed":
        print(
            "--chance-level requires the proposed (queue-aware) planner",
            file=sys.stderr,
        )
        return EXIT_INVALID
    if args.planner == "proposed":
        if args.chance_level is not None:
            from repro.core.uncertainty import ChanceConstrainedPlanner, ResidualModel

            try:
                residuals = ResidualModel([0.0]).with_timing_noise(args.timing_error)
                planner = ChanceConstrainedPlanner(
                    road,
                    arrival_rates=rate,
                    residuals=residuals,
                    chance_level=args.chance_level,
                    vehicle=vehicle,
                    config=config,
                    store=store,
                    environment=environment,
                )
            except ReproError as exc:
                print(f"invalid chance constraint: {exc}", file=sys.stderr)
                return EXIT_INVALID
        else:
            planner = QueueAwareDpPlanner(
                road, arrival_rates=rate, vehicle=vehicle, config=config,
                store=store, environment=environment,
            )
    elif args.planner == "baseline":
        planner = BaselineDpPlanner(
            road, vehicle=vehicle, config=config, store=store,
            environment=environment,
        )
    else:
        planner = UnconstrainedDpPlanner(
            road, vehicle=vehicle, config=config, store=store,
            environment=environment,
        )
    if args.receding_horizon:
        from repro.core.horizon import RecedingHorizonPlanner

        try:
            planner = RecedingHorizonPlanner(planner, lookahead_s=args.lookahead)
        except ReproError as exc:
            print(f"invalid receding horizon: {exc}", file=sys.stderr)
            return EXIT_INVALID

    solution = None
    tier_plan = None
    client = None
    cloud_service = None
    served_via = None
    try:
        cap = args.cap
        if cap is None:
            cap = planner.min_trip_time(args.depart) + 30.0
        if args.via_server:
            from repro.cloud.netclient import NetworkPlanTransport
            from repro.cloud.server import serve_in_background
            from repro.cloud.service import CloudPlannerService
            from repro.resilience.client import ResilientPlanClient
            from repro.resilience.ladder import DegradationLadder

            cloud_service = CloudPlannerService(planner)
            handle = serve_in_background(cloud_service)
            proxy = None
            target = handle.address
            if args.drop_rate:
                from repro.resilience.netfaults import ChaosProxy, NetFaultSpec

                proxy = ChaosProxy(
                    handle.address,
                    NetFaultSpec.uniform(args.drop_rate, seed=args.chaos_seed),
                )
                target = proxy.address
            transport = NetworkPlanTransport(target[0], target[1], timeout_s=5.0)
            client = ResilientPlanClient(transport, max_attempts=4, deadline_s=30.0)
            ladder = DegradationLadder(
                client,
                road,
                arrival_rates=rate if args.planner == "proposed" else None,
                vehicle=vehicle,
                config=config,
                store=store,
                environment=environment,
            )
            served_via = (
                f"tcp {handle.address[0]}:{handle.address[1]}"
                + (f" through chaos proxy (p={args.drop_rate})" if proxy else "")
            )
            try:
                tier_plan = ladder.plan(args.depart, max_trip_time_s=cap)
            finally:
                transport.close()
                if proxy is not None:
                    proxy.close()
                handle.drain()
        elif args.drop_rate is not None:
            from repro.cloud.service import CloudPlannerService
            from repro.resilience.client import ResilientPlanClient
            from repro.resilience.faults import CloudFaultModel
            from repro.resilience.ladder import DegradationLadder

            fault = (
                CloudFaultModel(drop_rate=args.drop_rate, seed=args.chaos_seed)
                if args.drop_rate > 0.0
                else None
            )
            cloud_service = CloudPlannerService(planner)
            client = ResilientPlanClient(cloud_service, fault=fault)
            ladder = DegradationLadder(
                client,
                road,
                arrival_rates=rate if args.planner == "proposed" else None,
                vehicle=vehicle,
                config=config,
                store=store,
                environment=environment,
            )
            tier_plan = ladder.plan(args.depart, max_trip_time_s=cap)
        else:
            solution = planner.plan(start_time_s=args.depart, max_trip_time_s=cap)
    except InputValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        if args.metrics is not None:
            _emit_metrics(args.metrics, registry)
        return EXIT_INVALID
    except ReproError as exc:
        print(f"planning failed: {exc}", file=sys.stderr)
        if args.metrics is not None:
            _emit_metrics(args.metrics, registry)
        return 1

    print(f"route        : {road.name} ({road.length_m / 1000:.1f} km)")
    print(f"planner      : {args.planner}")
    if args.vehicle or scenario_pack is not None:
        vehicle_id = args.vehicle or scenario_pack.vehicle_id
        print(f"vehicle      : {vehicle_id}")
    if scenario_pack is not None:
        print(f"scenario     : {scenario_pack.scenario_id} ({environment.describe()})")
    if args.chance_level is not None:
        inner = planner.inner if args.receding_horizon else planner
        print(
            f"chance level : {args.chance_level:.2f} "
            f"(window margin +{inner.chance_margin_s:.1f} s)"
        )
    if args.receding_horizon:
        lookahead = "full horizon" if args.lookahead is None else f"{args.lookahead:.0f} s"
        print(f"mpc          : receding horizon, lookahead {lookahead}")
    print(f"trip budget  : {cap:.1f} s")
    if tier_plan is not None:
        print(f"served by    : {tier_plan.tier} tier")
        if served_via is not None:
            print(f"served via   : {served_via}")
        print(f"planned trip : {tier_plan.trip_time_s:.1f} s")
        print(f"planned energy: {tier_plan.energy_mah:.1f} mAh")
        stats = client.stats
        print(
            f"cloud client : {stats.attempts} attempt(s), {stats.retries} "
            f"retr{'y' if stats.retries == 1 else 'ies'}, {stats.drops} "
            f"drop(s), breaker {stats.breaker_state}"
        )
    else:
        print(f"planned trip : {solution.trip_time_s:.1f} s")
        print(f"planned energy: {solution.energy_mah:.1f} mAh")
        for position in sorted(solution.signal_arrivals):
            arrival = solution.signal_arrivals[position]
            status = "ok" if solution.windows_hit[position] else "MISSED"
            print(f"  signal @ {position:6.0f} m: arrive {arrival:7.1f} s [{status}]")

    profile = solution.profile if solution is not None else tier_plan.profile
    if args.validate or args.strict:
        from repro.guard.plan_check import PlanValidator

        if profile is None:
            print("plan audit   : skipped (no profile; speed-limit tier served)")
        else:
            verdict = PlanValidator(road).check_profile(
                profile, planner.signal_constraints(args.depart)
            )
            print(f"plan audit   : {verdict.summary()}")
            if not verdict.ok:
                for violation in verdict.violations:
                    print(f"  {violation}", file=sys.stderr)
                if args.strict:
                    if args.metrics is not None:
                        _emit_metrics(args.metrics, registry)
                    return EXIT_INVALID

    if args.csv:
        if profile is None:
            print("no profile to write (speed-limit tier served)", file=sys.stderr)
        else:
            save_trace_csv(profile.to_time_trace(dt_s=0.5), args.csv)
            print(f"profile written to {args.csv}")

    if args.verify:
        from repro.sim.scenario import Us25Scenario

        scenario = Us25Scenario(
            road=road,
            arrival_rate_vph=args.rate,
            warmup_s=args.depart,
            seed=args.seed,
        )
        command = profile if profile is not None else tier_plan.command
        result = scenario.drive(command, depart_s=args.depart)
        trace = result.ev_trace
        print(
            f"verified in sim: {trace.duration_s:.1f} s, "
            f"{trace.energy().net_mah:.1f} mAh, "
            f"{result.ev_signal_stops(road)} signal stop(s)"
        )

    if args.metrics is not None:
        if cloud_service is not None:
            plan_cache, _, _ = cloud_service.cache_stats()
            print(f"plan cache   : {plan_cache.summary()}")
        if store is not None:
            print(f"artifact store: {store.stats().summary()}")
        _emit_metrics(args.metrics, registry)

    if args.service_stats_json:
        import json

        from repro.cloud.stats import compose_stats_document

        document = compose_stats_document(
            service=cloud_service,
            client=client,
            store=store,
        )
        try:
            with open(args.service_stats_json, "w", encoding="utf-8") as fh:
                json.dump(document, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(
                f"could not write service stats to {args.service_stats_json!r}: {exc}",
                file=sys.stderr,
            )
            return 1
        print(f"service stats written to {args.service_stats_json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
