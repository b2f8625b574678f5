"""Lightweight, dependency-free observability for the planning stack.

The hot subsystems — the DP solver, the corridor simulator, the SAE
trainer and the cloud planning service — all report into a
:class:`MetricsRegistry`: counters, gauges, fixed log-bucket histograms
(latency percentiles without any numpy work on the hot path) and
nestable timing spans.  The module-level default registry starts
*disabled*; instrumented code then pays only a cheap ``enabled`` check,
so normal library use is unaffected (see
``benchmarks/test_bench_obs.py`` for the overhead bound).

Enable collection around any workload::

    from repro import obs

    registry = obs.get_registry()
    registry.enabled = True
    planner.plan(start_time_s=0.0)
    print(obs.summary(registry))          # ASCII report
    print(obs.to_json(registry))          # machine-readable report

or hand a scoped registry to one measurement::

    with obs.use_registry(obs.MetricsRegistry()) as reg:
        service.request(request)
    reg.histogram("cloud.request_s")

``repro-plan --metrics[=PATH]`` and ``repro-experiments --metrics PATH``
surface the same reports from the command line.

The serving components count their events through :class:`Counters`:
exact per-instance counts that their typed ``*Stats`` views read, each
mirrored as a registry counter while the registry is enabled.
"""

from repro.obs.counters import Counters
from repro.obs.export import summary, to_csv, to_json
from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    Span,
    SpanStats,
    get_registry,
    set_registry,
    use_registry,
)

__all__ = [
    "Counters",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanStats",
    "get_registry",
    "set_registry",
    "summary",
    "to_csv",
    "to_json",
    "use_registry",
]
