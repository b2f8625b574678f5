"""Run one workload of the serving benchmark and print its metrics.

    python3 servebench/run.py --workload warm_wire --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` untraced (``--trace 0``), every per-layer
metric traced (``--trace 1``).  The line before it is the run record:
environment, sizes, generator settings, sample counts, error counts,
each output check by name and the workload's own ``figures``.  The
record is also appended to ``<out>/results.jsonl``, which
``servebench/compare.py`` reads.

The program under test is the ``repro`` package in ``src/`` of the
checkout this file sits in; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Unit and better direction of every figure a workload can report.
FIGURES = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("fraction", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "capacity_rps": ("req/s", "higher"),
    "plans_per_s": ("plans/s", "higher"),
    "plan_energy_mah": ("mAh", "lower"),
}

#: The end-to-end metrics every untraced run prints, whatever the workload.
END_TO_END = ("setup_s", "peak_rss_mb", "latency_p50_ms", "capacity_rps", "plan_energy_mah")

#: The figures each workload is judged on, which ``compare.py`` compares.
OWN = {
    "warm_wire": ("setup_s", "peak_rss_mb", "error_rate", "latency_p50_ms",
                  "latency_p99_ms", "capacity_rps"),
    "cold_fleet": ("setup_s", "peak_rss_mb", "error_rate", "plans_per_s", "plan_energy_mah"),
    "replan_stream": ("setup_s", "peak_rss_mb", "error_rate", "latency_p50_ms",
                      "latency_p90_ms"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(OWN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / "servebench" / "out",
                        help="directory the run record is appended to")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from servebench.common import environment
    from servebench.layers import PER_LAYER
    from servebench.workloads import WORKLOADS, Sizes

    sizes = Sizes()
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), sizes)
    if args.trace:
        table = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        table = [(name, FIGURES[name][0]) for name in END_TO_END]
    metrics = {name: {"value": float(outcome.values[name]), "unit": unit}
               for name, unit in table}
    correct = all(outcome.checks.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": asdict(sizes),
        "environment": environment(),
        "checks": outcome.checks,
        **outcome.meta,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if not args.trace:
        record["figures"] = {
            name: {"value": float(outcome.values[name]), "unit": FIGURES[name][0],
                   "better": FIGURES[name][1]}
            for name in OWN[args.workload]
        }
    for name, passed in outcome.checks.items():
        if not passed:
            print(f"servebench: check failed: {name}", file=sys.stderr)
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
