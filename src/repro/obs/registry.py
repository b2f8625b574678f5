"""Metrics primitives: counters, gauges, histograms and timing spans.

Everything here is dependency-free (stdlib only) and built for two modes:

* **enabled** — full recording: counters/gauges update, histogram samples
  land in fixed log-spaced buckets, and :meth:`MetricsRegistry.span`
  returns a real timing span that nests under the currently open span.
* **disabled** (the default for the module-level registry) — every entry
  point returns after a single attribute check, and :meth:`span` hands
  back a shared no-op object, so instrumented hot paths pay only a cheap
  ``enabled`` test per touch point.

Histogram percentiles are estimated from the log buckets (relative error
bounded by the bucket growth factor, tightened by linear interpolation
inside the winning bucket) — there is no numpy percentile over raw
samples on any hot path, and memory per histogram is a fixed bucket
array regardless of sample count.

A registry is shared by every thread that records into it (dispatcher
workers, the server's event loop).  Enabled-mode updates, :meth:`reset`
and :meth:`snapshot` hold one lock, so no update is lost and a snapshot
never iterates a dict another thread is growing.  Each thread nests its
spans on its own stack: a span opened on a worker never becomes the
parent of another thread's span.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanStats",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Default histogram geometry: bucket 0 is ``[0, base)``; bucket ``i``
#: (``i >= 1``) spans ``[base * growth**(i-1), base * growth**i)``.  With
#: these defaults the top bucket edge is ~2.6e9, covering everything from
#: sub-microsecond timings to transition counts in the billions.
DEFAULT_BASE = 1e-7
DEFAULT_GROWTH = 1.35
DEFAULT_BUCKETS = 128


class Histogram:
    """Fixed log-bucket histogram of non-negative samples.

    Args:
        base: Upper edge of the first (underflow) bucket.
        growth: Geometric bucket growth factor (> 1).
        n_buckets: Total bucket count; the last bucket absorbs overflow.
    """

    __slots__ = ("base", "growth", "n_buckets", "counts", "count", "total",
                 "min", "max", "_log_growth")

    def __init__(
        self,
        base: float = DEFAULT_BASE,
        growth: float = DEFAULT_GROWTH,
        n_buckets: int = DEFAULT_BUCKETS,
    ) -> None:
        if base <= 0 or growth <= 1.0 or n_buckets < 2:
            raise ValueError("histogram needs base > 0, growth > 1, n_buckets >= 2")
        self.base = float(base)
        self.growth = float(growth)
        self.n_buckets = int(n_buckets)
        self._log_growth = math.log(growth)
        self.counts = [0] * self.n_buckets
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample (negative samples clamp to zero)."""
        v = value if value > 0.0 else 0.0
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        if v < self.base:
            self.counts[0] += 1
            return
        idx = int(math.log(v / self.base) / self._log_growth) + 1
        if idx >= self.n_buckets:
            idx = self.n_buckets - 1
        self.counts[idx] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples; ``nan`` when empty."""
        return self.total / self.count if self.count else math.nan

    def _bucket_bounds(self, idx: int) -> Tuple[float, float]:
        if idx == 0:
            return 0.0, self.base
        lo = self.base * self.growth ** (idx - 1)
        return lo, lo * self.growth

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``0 <= q <= 100``).

        Walks the cumulative bucket counts and interpolates linearly
        inside the bucket containing the target rank; the result is
        clamped to the observed ``[min, max]``.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return math.nan
        rank = q / 100.0 * self.count
        cumulative = 0
        for idx, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lo, hi = self._bucket_bounds(idx)
                frac = (rank - cumulative) / n
                est = lo + frac * (hi - lo)
                return min(max(est, self.min), self.max)
            cumulative += n
        return self.max

    def snapshot(self) -> Dict[str, float]:
        """Summary statistics as a plain dict (JSON-friendly)."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }


class Span:
    """One timed section of code, nested under the span open at entry.

    Use through :meth:`MetricsRegistry.span`::

        with registry.span("dp.solve") as sp:
            ...
            sp.add(expanded_transitions=n)

    Numeric fields added with :meth:`add` are summed across all spans
    sharing a path; non-numeric fields keep the last value.
    """

    __slots__ = ("_registry", "name", "path", "fields", "start_s", "duration_s")

    def __init__(self, registry: "MetricsRegistry", name: str, fields: dict) -> None:
        self._registry = registry
        self.name = name
        self.path = name
        self.fields = fields
        self.start_s = 0.0
        self.duration_s = 0.0

    def add(self, **fields) -> None:
        """Attach custom fields to this span."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        stack = self._registry._span_stack
        if stack:
            self.path = stack[-1].path + "." + self.name
        stack.append(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self.start_s
        stack = self._registry._span_stack
        if stack and stack[-1] is self:
            stack.pop()
        self._registry._record_span(self)
        return False


class _NullSpan:
    """Shared no-op stand-in returned when the registry is disabled."""

    __slots__ = ()

    def add(self, **fields) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class SpanStats:
    """Aggregate over every finished span sharing one path."""

    __slots__ = ("path", "count", "total_s", "histogram", "fields")

    def __init__(self, path: str) -> None:
        self.path = path
        self.count = 0
        self.total_s = 0.0
        self.histogram = Histogram()
        self.fields: Dict[str, object] = {}

    def record(self, duration_s: float, fields: dict) -> None:
        """Fold one finished span into the aggregate.

        Numeric fields (except bools) sum across spans at the same path;
        any other field keeps its latest value.
        """
        self.count += 1
        self.total_s += duration_s
        self.histogram.observe(duration_s)
        for key, value in fields.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                self.fields[key] = value
            else:
                current = self.fields.get(key, 0)
                if isinstance(current, (int, float)) and not isinstance(current, bool):
                    self.fields[key] = current + value
                else:
                    self.fields[key] = value

    def snapshot(self) -> Dict[str, object]:
        """Count, total/percentile timings and fields as a plain dict."""
        hist = self.histogram.snapshot()
        out: Dict[str, object] = {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.total_s / self.count if self.count else math.nan,
            "p50_s": hist.get("p50", math.nan),
            "p90_s": hist.get("p90", math.nan),
            "p99_s": hist.get("p99", math.nan),
        }
        if self.fields:
            out["fields"] = dict(self.fields)
        return out


class _SpanStacks(threading.local):
    """The open spans of each thread, innermost last."""

    def __init__(self) -> None:
        self.stack: List[Span] = []


class MetricsRegistry:
    """Named counters, gauges, histograms and span aggregates.

    Args:
        enabled: Initial recording state.  When ``False`` every recording
            method is a near-free no-op; flip :attr:`enabled` at any time.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: Dict[str, SpanStats] = {}
        self._stacks = _SpanStacks()

    @property
    def _span_stack(self) -> List[Span]:
        """The calling thread's open spans, innermost last."""
        return self._stacks.stack

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the named counter (created at zero)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest value."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named histogram."""
        if not self.enabled:
            return
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def span(self, name: str, **fields):
        """Open a timing span; returns a no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, fields)

    def _record_span(self, span: Span) -> None:
        if not self.enabled:
            return
        with self._lock:
            stats = self._spans.get(span.path)
            if stats is None:
                stats = self._spans[span.path] = SpanStats(span.path)
            stats.record(span.duration_s, span.fields)

    # ------------------------------------------------------------------
    # Access / lifecycle
    # ------------------------------------------------------------------
    def counter_value(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[float]:
        """Latest value of a gauge, or ``None`` when never set."""
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        """The named histogram, or ``None`` when no sample landed yet."""
        return self._histograms.get(name)

    def span_stats(self, path: str) -> Optional[SpanStats]:
        """Aggregate stats of all finished spans at a path, if any."""
        return self._spans.get(path)

    def span_paths(self) -> List[str]:
        """All span paths with at least one finished span, sorted."""
        with self._lock:
            return sorted(self._spans)

    def reset(self) -> None:
        """Drop all recorded metrics and every thread's open spans.

        The enabled flag is untouched.
        """
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()
            self._stacks = _SpanStacks()

    def snapshot(self) -> Dict[str, object]:
        """Full registry contents as one JSON-serializable dict."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: hist.snapshot()
                    for name, hist in sorted(self._histograms.items())
                },
                "spans": {
                    path: stats.snapshot()
                    for path, stats in sorted(self._spans.items())
                },
            }


# ----------------------------------------------------------------------
# Module-level default registry
# ----------------------------------------------------------------------
#: The default registry starts disabled so that library users who never
#: opt into metrics pay only the ``enabled`` checks.
_default_registry = MetricsRegistry(enabled=False)
_active_registry = _default_registry


def get_registry() -> MetricsRegistry:
    """The currently active registry (instrumented code reads this)."""
    return _active_registry


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` as the active one; ``None`` restores the default.

    Returns:
        The previously active registry (so callers can restore it).
    """
    global _active_registry
    previous = _active_registry
    _active_registry = registry if registry is not None else _default_registry
    return previous


class use_registry:
    """Context manager installing a registry for the duration of a block::

        with use_registry(MetricsRegistry()) as reg:
            planner.plan(...)
        print(reg.snapshot())
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self.registry)
        return self.registry

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_registry(self._previous)
        return False
