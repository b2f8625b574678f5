"""Cache layer: a bounded, thread-safe LRU cache for served plans.

:class:`PlanCache` replaces the serving stack's previously unbounded
in-process dicts (the phase-keyed plan cache and both min-time memos of
:class:`~repro.cloud.service.CloudPlannerService`) with one explicit
primitive, mirroring the engine layer's
:class:`~repro.core.engine.ArtifactStore`:

* **bounded** — a capacity-bounded LRU; inserting past capacity evicts
  the least-recently-used entry and counts it.  Entries never expire by
  age: with fixed-time signals a cached plan goes stale only on a
  forecast update, and that calls :meth:`clear`;
* **thread-safe** — every operation holds an internal lock, so the
  dispatch layer's worker threads share one cache safely;
* **counted** — hits, misses, evictions and revalidation misses are
  tracked exactly (under the lock) and mirrored into :mod:`repro.obs`
  under ``<name>.hits`` / ``.misses`` / ``.evictions`` /
  ``.revalidation_misses``.

Revalidation is a *serving* decision, not a lookup decision — the
service re-checks a hit's shifted arrivals against the signal windows
and may reject it.  The cache only counts those rejections
(:meth:`note_revalidation_miss`) so cache economics stay in one place.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional

from repro import obs
from repro.errors import ConfigurationError

__all__ = ["CacheStats", "PlanCache"]

#: What a lookup finds under a key that holds nothing (``None`` is a value).
_ABSENT = object()


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of one cache's counters.

    Attributes:
        name: The cache's metrics namespace (e.g. ``"cloud.plan_cache"``).
        hits: Lookups answered from the cache.
        misses: Lookups that found nothing.
        evictions: Entries dropped to respect the capacity bound.
        revalidation_misses: Hits the serving layer discarded after
            revalidating them against the signal windows.
        size: Entries currently held.
        capacity: The bound.
    """

    name: str = ""
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    revalidation_misses: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction of all lookups; 0 when the cache was never asked."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        """One-line human-readable form for CLI/report output."""
        line = (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.evictions} eviction(s), hit rate {self.hit_rate:.2f}"
        )
        if self.revalidation_misses:
            line += f", {self.revalidation_misses} failed revalidation"
        return line


class PlanCache:
    """Bounded, thread-safe LRU cache keyed by hashable tuples.

    Args:
        capacity: Maximum entries held at once.  The service's plan
            cache holds one entry per ``(phase bin, budget bin)`` pair —
            a 60 s signal period at 1 s quanta and a handful of budget
            bins fits comfortably in the default.
        name: Metrics namespace for the mirrored :mod:`repro.obs`
            counters; also reported in :class:`CacheStats`.
    """

    def __init__(
        self,
        capacity: int = 256,
        name: str = "cloud.plan_cache",
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.name = name
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._revalidation_misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def peek(self, key: Hashable) -> Optional[Any]:
        """The cached value (else ``None``) with **no** side effects at all.

        Unlike :meth:`get`, nothing is counted and recency is not
        refreshed, so inspecting the cache never changes its books.
        """
        with self._lock:
            return self._entries.get(key)

    def keys(self) -> List[Hashable]:
        """The currently held keys, least-recently-used first."""
        with self._lock:
            return list(self._entries.keys())

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value (refreshing recency), else ``None``."""
        registry = obs.get_registry()
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is _ABSENT:
                self._misses += 1
                registry.inc(f"{self.name}.misses")
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            registry.inc(f"{self.name}.hits")
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) one entry, evicting LRU overflow."""
        registry = obs.get_registry()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                registry.inc(f"{self.name}.evictions")

    def note_revalidation_miss(self) -> None:
        """Record a hit the serving layer rejected after revalidation."""
        with self._lock:
            self._revalidation_misses += 1
        obs.get_registry().inc(f"{self.name}.revalidation_misses")

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        """An immutable snapshot of the counters."""
        with self._lock:
            return CacheStats(
                name=self.name,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                revalidation_misses=self._revalidation_misses,
                size=len(self._entries),
                capacity=self.capacity,
            )
