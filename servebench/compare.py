"""Compare two result sets of the serving benchmark, figure by figure.

    python3 servebench/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are each a ``results.jsonl`` written by
``servebench/run.py`` (or a directory holding one).  Only untraced runs
are compared, and every run of one workload, on both sides, must have
the same ``--seconds`` and the same sizes; otherwise nothing is compared
and the exit status is 2.

For every workload and every figure it is judged on (its record's
``figures``) it prints both sides' median and quartiles, the share of
pairs the change won (the k-th run of a seed on one side against the
k-th run of that seed on the other, the rest by position; ties count for
neither) and one verdict:

* ``improved``: at least ten pairs, the change wins at least nine tenths
  of them, and the medians differ by more than the parent's own
  interquartile distance;
* ``unresolved``: the parent's spread (interquartile distance over its
  median) is wider than the figure's bound, and not every change run
  reads better than every parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
* ``within bound``: anything else.

A figure's bound is that of the end-to-end metric of ``BENCHMARK.json``
with its name, or of the one :data:`BOUND_OF` names for it.  The error
rate has no bound: it is ``worse`` when some change run failed more
often than every parent run.  The exit status is 1 when any verdict is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

IMPROVED, WITHIN, WORSE, UNRESOLVED = "improved", "within bound", "worse", "unresolved"

#: Figures that are no end-to-end metric, and the metric whose bound they take.
BOUND_OF = {
    "plans_per_s": "capacity_rps",
    "latency_p90_ms": "latency_p50_ms",
    "latency_p99_ms": "latency_p50_ms",
}


def load(path: Path) -> List[dict]:
    """The untraced run records of one result set."""
    if path.is_dir():
        path = path / "results.jsonl"
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    records.append(record)
    return records


def check_settings(runs: Sequence[dict]) -> None:
    """Refuse runs of one workload that differ in run length or sizes.

    Raises:
        ValueError: naming the workload and the settings that differ.
    """
    settings = {(r["seconds"], json.dumps(r.get("sizes"), sort_keys=True)) for r in runs}
    if len(settings) > 1:
        raise ValueError(f"{runs[0]['workload']}: runs differ in --seconds or sizes: "
                         f"{sorted(settings)}")


def pairs_of(parent: Sequence[Tuple[int, float]], change: Sequence[Tuple[int, float]]):
    """Pair the k-th run of each seed on both sides; pair the rest by position."""
    by_seed: Dict[int, List[int]] = defaultdict(list)
    for i, (seed, _) in enumerate(change):
        by_seed[seed].append(i)
    used, pairs, unpaired = set(), [], []
    for seed, value in parent:
        if by_seed[seed]:
            i = by_seed[seed].pop(0)
            used.add(i)
            pairs.append((value, change[i][1]))
        else:
            unpaired.append(value)
    rest = [value for i, (_, value) in enumerate(change) if i not in used]
    return pairs + list(zip(unpaired, rest))


def won_share(pairs, better: str) -> float:
    """The share of ``(parent, change)`` pairs the change won; ties win neither."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    return wins / len(pairs) if pairs else 0.0


def verdict(parent: Sequence[float], change: Sequence[float], pairs, better: str,
            bound: float) -> Tuple[str, float]:
    """The verdict for one figure on one workload, and the share of pairs won."""
    sign = 1.0 if better == "higher" else -1.0
    share = won_share(pairs, better)
    if len(parent) < 2 or len(change) < 1:
        return UNRESOLVED, share
    q1, mp, q3 = statistics.quantiles(parent, n=4)
    mc = statistics.median(change)
    gain = sign * (mc - mp)
    if len(pairs) >= 10 and share >= 0.9 and gain > (q3 - q1):
        return IMPROVED, share
    if better == "higher":
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if (q3 - q1) / abs(mp) > bound and not all_better:
        return UNRESOLVED, share
    if -gain > bound * abs(mp):
        return WORSE, share
    return WITHIN, share


def error_verdict(parent: Sequence[float], change: Sequence[float]) -> str:
    """Worse when some change run failed more often than every parent run."""
    if max(change) > max(parent):
        return WORSE
    if max(change) < min(parent):
        return IMPROVED
    return WITHIN


def compare(parent: List[dict], change: List[dict], spec: dict) -> List[Dict[str, object]]:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not p_runs or not c_runs:
            continue
        check_settings(p_runs + c_runs)
        for name, figure in p_runs[0]["figures"].items():
            p = [(r["seed"], r["figures"][name]["value"]) for r in p_runs]
            c = [(r["seed"], r["figures"][name]["value"]) for r in c_runs]
            pv, cv = [v for _, v in p], [v for _, v in c]
            pairs = pairs_of(p, c)
            if name == "error_rate":
                result, share = error_verdict(pv, cv), won_share(pairs, figure["better"])
            else:
                bound = bounds[BOUND_OF.get(name, name)]
                result, share = verdict(pv, cv, pairs, figure["better"], bound)
            rows.append({
                "workload": workload,
                "figure": name,
                "unit": figure["unit"],
                "parent": _summary(pv),
                "change": _summary(cv),
                "pairs_won": round(share, 3),
                "verdict": result,
            })
    return rows


def _summary(values: Sequence[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    try:
        rows = compare(load(args.parent), load(args.change), spec)
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        p, c = row["parent"], row["change"]
        print(f"{row['workload']:14s} {row['figure']:16s} {row['unit']:8s} "
              f"parent {p['median']:.6g} (n={p['n']})  change {c['median']:.6g} (n={c['n']})  "
              f"won {row['pairs_won']:.0%}  {row['verdict']}")
    print(json.dumps({"rows": rows}))
    return 1 if any(row["verdict"] == WORSE for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
