"""Per-layer metrics of a traced run, from its spans and counters.

Each layer metric names the end-to-end metric it should move and on
which workload in WORKLOADS.md; elsewhere the prediction is no change.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from servebench.common import min_samples_for
from servebench.tracing import Span, layer_totals

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("wire.encode_us_per_req", "us", "lower"),
    ("wire.decode_us_per_req", "us", "lower"),
    ("wire.response_bytes", "B", "lower"),
    ("framing.us_per_req", "us", "lower"),
    ("server.self_us_per_req", "us", "lower"),
    ("server.busy_rejections", "count", "lower"),
    ("server.peak_in_flight", "count", "lower"),
    ("dispatcher.queue_wait_us_p50", "us", "lower"),
    ("dispatcher.queue_wait_us_p99", "us", "lower"),
    ("dispatcher.coalesced", "count", "higher"),
    ("router.self_us_per_req", "us", "lower"),
    ("service.self_us_per_req", "us", "lower"),
    ("service.hit_ratio", "fraction", "higher"),
    ("service.revalidation_misses", "count", "lower"),
    ("plan_cache.us_per_req", "us", "lower"),
    ("plan_cache.lookups", "count", "lower"),
    ("plan_cache.hit_ratio", "fraction", "higher"),
    ("queue.windows_calls_per_req", "count", "lower"),
    ("queue.windows_us_per_req", "us", "lower"),
    ("planner.self_ms_per_plan", "ms", "lower"),
    ("planner.min_time_solves", "count", "lower"),
    ("dp.solves", "count", "lower"),
    ("dp.problems_per_batch", "count", "higher"),
    ("dp.self_ms_per_plan", "ms", "lower"),
    ("dp.expanded_transitions_per_plan", "count", "lower"),
    ("dp.infeasible", "count", "lower"),
    ("stage_kernel.expand_ms_per_plan", "ms", "lower"),
    ("stage_kernel.select_ms_per_plan", "ms", "lower"),
    ("stage_kernel.calls", "count", "lower"),
    ("store.hits", "count", "higher"),
    ("store.misses", "count", "lower"),
    ("artifacts.build_ms", "ms", "lower"),
    ("artifacts.mbytes", "MB", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unaccounted_frac", "fraction", "lower"),
)


#: Layers called only while the stack is built, outside every root span.
SETUP_LAYERS = ("store", "artifacts")


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _wait_percentile(waits: Sequence[float], q: float) -> float:
    """Queue-wait percentile (µs); 0 when the sample cannot support it."""
    if len(waits) < min_samples_for(q):
        return 0.0
    return float(np.percentile(np.asarray(waits), q)) * 1e6


def per_layer_metrics(
    spans: Sequence[Span],
    counts: Mapping[str, float],
    sums: Mapping[str, float],
    requests: int,
    delta: Mapping[str, float],
    store: Mapping[str, int],
    setups: int,
    overhead_frac: float,
    server: Mapping[str, int] = None,
    coalesced: int = 0,
):
    """Every per-layer metric, plus each layer's share of the root time.

    Args:
        spans: Every span of the traced phase (all processes, merged).
        counts, sums: The tracers' counters, merged.
        requests: Requests served in the traced phase.
        delta: Service and plan-cache counter changes over the phase.
        store: Artifact-store counters of the serving stack.
        setups: Stack builds whose artifact spans ``sums`` holds.
        overhead_frac: Headline metric traced over untraced, minus one.
        server: The plan server's counters, when there is a server.
        coalesced: Dispatcher requests served as followers.

    Returns:
        ``(metrics, shares)``: metric name → value, and layer → summed
        self time over summed root-span time.
    """
    totals = layer_totals(spans)

    def self_s(layer: str, *names: str) -> float:
        t = totals.get(layer, {})
        if not names:
            return t.get("self_s", 0.0)
        return sum(t.get(f"{layer}.{n}.self_s", 0.0) for n in names)

    n = max(int(requests), 1)
    plans = counts.get("dp.solves", 0)
    waits = [s.duration for s in spans if s.name == "dispatcher.wait"]
    root = totals.get("root", {})
    server = server or {}
    metrics = {
        "wire.encode_us_per_req": self_s("wire", "encode_request", "encode_response") / n * 1e6,
        "wire.decode_us_per_req": self_s(
            "wire", "decode_message", "decode_message_versioned") / n * 1e6,
        "wire.response_bytes": _ratio(sums.get("wire.response_bytes", 0.0),
                                      counts.get("wire.responses", 0)),
        "framing.us_per_req": self_s("framing") / n * 1e6,
        "server.self_us_per_req": self_s("server") / n * 1e6,
        "server.busy_rejections": server.get("busy_rejections", 0),
        "server.peak_in_flight": server.get("peak_in_flight", 0),
        "dispatcher.queue_wait_us_p50": _wait_percentile(waits, 50.0),
        "dispatcher.queue_wait_us_p99": _wait_percentile(waits, 99.0),
        "dispatcher.coalesced": coalesced,
        "router.self_us_per_req": self_s("router") / n * 1e6,
        "service.self_us_per_req": self_s("service") / n * 1e6,
        "service.hit_ratio": _ratio(delta["hits"], delta["hits"] + delta["misses"]),
        "service.revalidation_misses": delta["revalidation_misses"],
        "plan_cache.us_per_req": self_s("plan_cache") / n * 1e6,
        "plan_cache.lookups": delta["cache_lookups"],
        "plan_cache.hit_ratio": _ratio(delta["cache_hits"], delta["cache_lookups"]),
        "queue.windows_calls_per_req": totals.get("queue", {}).get("calls", 0) / n,
        "queue.windows_us_per_req": self_s("queue") / n * 1e6,
        "planner.self_ms_per_plan": _ratio(self_s("planner"), plans) * 1e3,
        "planner.min_time_solves": counts.get("planner.min_time_solves", 0),
        "dp.solves": plans,
        "dp.problems_per_batch": _ratio(plans, counts.get("dp.calls", 0)),
        "dp.self_ms_per_plan": _ratio(self_s("dp"), plans) * 1e3,
        "dp.expanded_transitions_per_plan": _ratio(
            sums.get("dp.expanded_transitions", 0.0), counts.get("dp.solutions", 0)),
        "dp.infeasible": counts.get("dp.infeasible", 0),
        "stage_kernel.expand_ms_per_plan": _ratio(
            self_s("stage_kernel", "expand_stage", "expand_stage_batch"), plans) * 1e3,
        "stage_kernel.select_ms_per_plan": _ratio(
            self_s("stage_kernel", "select_labels", "select_labels_batch"), plans) * 1e3,
        "stage_kernel.calls": totals.get("stage_kernel", {}).get("calls", 0),
        "store.hits": store["hits"],
        "store.misses": store["misses"],
        "artifacts.build_ms": sums.get("artifacts.build_s", 0.0) / setups * 1e3,
        "artifacts.mbytes": sums.get("artifacts.bytes", 0.0) / setups / 1e6,
        "trace.overhead_frac": overhead_frac,
        "trace.unaccounted_frac": _ratio(root.get("self_s", 0.0), root.get("span_s", 0.0)),
    }
    root_s = root.get("span_s", 0.0)
    shares = {
        layer: round(_ratio(t["self_s"], root_s), 4)
        for layer, t in sorted(totals.items())
        if layer not in SETUP_LAYERS
    }
    return metrics, shares
