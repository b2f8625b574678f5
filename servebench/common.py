"""Shared pieces of the serving benchmark: the stack, digests, statistics.

Everything here drives the serving stack through its public API only:
``builtin_catalog`` behind a ``PlanRouter``, on one coarse grid.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import struct
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cloud.registry import builtin_catalog
from repro.cloud.router import PlanRouter
from repro.core.planner import PlannerConfig

ROOT = Path(__file__).resolve().parent.parent

#: The grid every workload plans on.  The paper's default grid costs about
#: 2 s per solve, too slow for the number of runs a comparison needs.
GRID = PlannerConfig(v_step_ms=1.0, s_step_m=25.0, t_bin_s=2.0)

#: A percentile is reported only when at least this many samples lie beyond it.
SAMPLES_BEYOND = 10


def build_stack() -> PlanRouter:
    """A router over the built-in three-corridor catalog, artifacts built."""
    router = PlanRouter(builtin_catalog(config=GRID))
    for corridor_id in router.catalog.ids():
        router.catalog.runtime(corridor_id)
    return router


def common_period_s(router: PlanRouter, corridor_id: str) -> float:
    """The corridor's common signal period: LCM of its cycles, in deciseconds."""
    decis = [
        int(round(site.light.cycle_s * 10.0))
        for site in router.catalog.spec(corridor_id).road.signals
    ]
    lcm = decis[0]
    for d in decis[1:]:
        lcm = lcm * d // math.gcd(lcm, d)
    return lcm / 10.0


def phase_departures(period_s: float, n: int) -> List[float]:
    """``n`` departures spread evenly over one signal period, at 1 s bin centres.

    Each falls in its own one-second phase bin, the plan cache's key
    resolution, so a departure moved by whole periods keeps its key.
    """
    return [int(k * period_s / n) + 0.5 for k in range(n)]


def plan_digest(responses: Sequence) -> str:
    """sha256 over each plan's profile arrays, energy and trip time, in order.

    The departure time is left out, so a plan shifted by whole signal
    periods digests the same.
    """
    h = hashlib.sha256()
    for resp in responses:
        profile = resp.profile
        for arr in (profile.positions_m, profile.speeds_ms, profile.dwell_s):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        h.update(struct.pack("<dd", resp.energy_mah, resp.trip_time_s))
    return h.hexdigest()


def same_plan(a, b) -> bool:
    """Bit-identity of two responses, every field and every array element."""
    return (
        a.vehicle_id == b.vehicle_id
        and a.corridor_id == b.corridor_id
        and a.cache_hit == b.cache_hit
        and a.energy_mah == b.energy_mah
        and a.trip_time_s == b.trip_time_s
        and a.compute_time_s == b.compute_time_s
        and a.profile.start_time_s == b.profile.start_time_s
        and np.array_equal(a.profile.positions_m, b.profile.positions_m)
        and np.array_equal(a.profile.speeds_ms, b.profile.speeds_ms)
        and np.array_equal(a.profile.dwell_s, b.profile.dwell_s)
    )


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def min_samples_for(q: float) -> int:
    """Samples needed so that at least ``SAMPLES_BEYOND`` lie beyond ``q``."""
    return int(math.ceil(SAMPLES_BEYOND / (1.0 - q / 100.0) - 1e-9))


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refused when the sample cannot support it.

    Raises:
        ValueError: fewer than :func:`min_samples_for` samples.
    """
    n = len(samples)
    need = min_samples_for(q)
    if n < need:
        raise ValueError(f"p{q:g} needs >= {need} samples, got {n}")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def highest_supported_percentile(n: int, candidates=(50.0, 90.0, 99.0, 99.9)) -> Optional[float]:
    """The highest candidate percentile ``n`` samples support, if any."""
    best = None
    for q in candidates:
        if n >= min_samples_for(q):
            best = q
    return best


def due_latencies(due: Sequence[float], done: Sequence[float]) -> np.ndarray:
    """Open-loop latency: completion minus the time the request was due.

    Timing from the due time, not the send time, charges a stall to every
    request it delays, not only to the one that was in flight.
    """
    return np.asarray(done, dtype=float) - np.asarray(due, dtype=float)


def best_window_rate(done_at: np.ndarray, start: float, end: float, window_s: float) -> float:
    """Completions per second in the busiest whole window of ``[start, end)``.

    A span shorter than one window is taken whole.
    """
    windows = int((end - start) // window_s)
    if windows == 0:
        return float(done_at.size) / (end - start)
    counts, _ = np.histogram(done_at, bins=windows, range=(start, start + windows * window_s))
    return float(counts.max()) / window_s


# ----------------------------------------------------------------------
# Process and environment
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """This process's peak resident set size (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "grid": {
            "v_step_ms": GRID.v_step_ms,
            "s_step_m": GRID.s_step_m,
            "t_bin_s": GRID.t_bin_s,
            "horizon_s": GRID.horizon_s,
        },
    }


def median(values: List[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))
