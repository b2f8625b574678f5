"""A bounded, content-addressed LRU store of corridor artifacts.

One :class:`ArtifactStore` shared across a planning stack collapses the
repeated corridor precomputation the stack used to do: the cloud
planner's replans, every degradation-ladder local tier, the coarse-to-
fine refiner's per-solve fine pass and each fleet vehicle all key the
same ``(road, vehicle, grid)`` inputs to the same digest, so the first
build pays and everyone after hits.

The store is deliberately small and explicit: a capacity-bounded LRU
keyed by :func:`~repro.core.engine.artifacts.corridor_digest`, whose
hits, misses and evictions are counted by one
:class:`~repro.obs.Counters` (mirrored as ``engine.store.hits`` /
``.misses`` / ``.evictions``) and viewed through
:meth:`ArtifactStore.stats` for result summaries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.core.engine.artifacts import CorridorArtifacts, corridor_digest
from repro.errors import ConfigurationError
from repro.route.road import RoadSegment
from repro.vehicle.environment import EnvironmentConditions
from repro.vehicle.params import VehicleParams

__all__ = ["ArtifactStore", "StoreStats"]


@dataclass(frozen=True)
class StoreStats:
    """Immutable view of one store's counts, taken with its size.

    Attributes:
        hits: Lookups answered from the store.
        misses: Lookups that had to build (each one also inserts).
        evictions: Artifacts dropped to respect the capacity bound.
        size: Artifacts currently held.
        capacity: The bound.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get_or_build`` calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction of all lookups; 0 when the store was never asked."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        """One-line human-readable form for CLI/report output."""
        return (
            f"{self.hits} hit(s), {self.misses} build(s), "
            f"{self.evictions} eviction(s), hit rate {self.hit_rate:.2f}"
        )


class ArtifactStore:
    """Content-addressed LRU cache of :class:`CorridorArtifacts`.

    Args:
        capacity: Maximum number of artifact sets held at once.  Sizing
            guidance: each entry costs :attr:`CorridorArtifacts.nbytes`
            (1.08 MB for US-25 at the paper's grid, 0.24 MB at the serving
            benchmark's; 12.81 and 1.57 MB while builds held their dense
            per-segment tables); a production service fronting a handful
            of corridors x grid resolutions rarely needs more than 8-16.
        name: Metric namespace for the observability counters
            (``<name>.hits`` / ``.misses`` / ``.evictions``).  The
            default preserves the historical ``engine.store.*`` names; a
            catalog corridor's store passes e.g. ``engine.store.us25`` so
            ``--metrics`` output breaks down by corridor.

    Thread-safe: lookups and insertions hold an internal lock (builds
    run outside it, so two threads racing on a cold key may both build —
    the artifacts are immutable, so the duplicate work is harmless and
    last-writer-wins).
    """

    def __init__(self, capacity: int = 8, name: str = "engine.store") -> None:
        if capacity < 1:
            raise ConfigurationError(f"store capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.name = str(name)
        self._entries: "OrderedDict[str, CorridorArtifacts]" = OrderedDict()
        self._lock = threading.Lock()
        self._counters = obs.Counters(self.name, ("hits", "misses", "evictions"))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def get(self, digest: str) -> Optional[CorridorArtifacts]:
        """The artifacts under a digest (refreshing recency), else ``None``.

        A raw ``get`` does not touch the hit/miss counters — only
        :meth:`get_or_build` lookups are serving decisions.
        """
        with self._lock:
            artifacts = self._entries.get(digest)
            if artifacts is not None:
                self._entries.move_to_end(digest)
            return artifacts

    def put(self, artifacts: CorridorArtifacts) -> None:
        """Insert (or refresh) one artifact set, evicting LRU overflow."""
        with self._lock:
            self._entries[artifacts.digest] = artifacts
            self._entries.move_to_end(artifacts.digest)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._counters.inc("evictions")

    def get_or_build(
        self,
        road: RoadSegment,
        vehicle: Optional[VehicleParams] = None,
        *,
        v_step_ms: float = 0.5,
        s_step_m: float = 10.0,
        stop_dwell_s: float = 2.0,
        enforce_min_speed: bool = True,
        environment: Optional[EnvironmentConditions] = None,
    ) -> CorridorArtifacts:
        """The artifacts for these inputs: served warm, or built and kept.

        This is the one call every consumer goes through; identical
        inputs across consumers resolve to the same digest and therefore
        the same (single) build.  The environment is part of the digest,
        so two scenarios over one road can never serve each other's
        tables (``None`` keys as — and shares builds with — nominal).
        """
        vehicle = vehicle if vehicle is not None else VehicleParams()
        digest = corridor_digest(
            road,
            vehicle,
            v_step_ms=v_step_ms,
            s_step_m=s_step_m,
            stop_dwell_s=stop_dwell_s,
            enforce_min_speed=enforce_min_speed,
            environment=environment,
        )
        cached = self.get(digest)
        if cached is not None:
            self._counters.inc("hits")
            return cached
        self._counters.inc("misses")
        with obs.get_registry().span("engine.artifacts.build") as span:
            artifacts = CorridorArtifacts.build(
                road,
                vehicle,
                v_step_ms=v_step_ms,
                s_step_m=s_step_m,
                stop_dwell_s=stop_dwell_s,
                enforce_min_speed=enforce_min_speed,
                environment=environment,
            )
            span.add(segments=artifacts.n_segments, bytes=artifacts.nbytes)
        self.put(artifacts)
        return artifacts

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> StoreStats:
        """An immutable snapshot of the counts and the size."""
        with self._lock:
            return StoreStats(
                size=len(self._entries),
                capacity=self.capacity,
                **self._counters.snapshot(),
            )
