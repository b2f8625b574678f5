"""Exact per-component event counts, mirrored into the active registry.

A serving component (a cache, the dispatcher, the plan server, …) owns
one :class:`Counters` and counts each of its events once, through
:meth:`Counters.inc`.  The counts are exact per instance whatever the
registry's state, so the component's typed ``*Stats`` snapshot is a view
of :meth:`Counters.snapshot`; when the active registry is enabled, the
same call also bumps the registry counter ``<namespace>.<event>``.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable

from repro.obs.registry import get_registry

__all__ = ["Counters"]


class Counters:
    """One component's declared events and their exact counts.

    Args:
        namespace: Registry prefix; event ``e`` mirrors as
            ``<namespace>.<e>``.
        events: The events this component counts, each starting at 0.
    """

    __slots__ = ("_counts", "_names", "_lock")

    def __init__(self, namespace: str, events: Iterable[str]) -> None:
        self._counts: Dict[str, float] = dict.fromkeys(events, 0)
        self._names = {event: f"{namespace}.{event}" for event in self._counts}
        self._lock = threading.Lock()

    def inc(self, *events: str, amount: float = 1) -> None:
        """Add ``amount`` to each named event, together.

        The registry mirror is bumped under the same lock, so it adds
        the amounts in the order the count does, and a float sum (a
        compute time, say) mirrors bit for bit.

        Raises:
            KeyError: An event this component did not declare.
        """
        registry = get_registry()
        with self._lock:
            for event in events:
                self._counts[event] += amount
            if registry.enabled:
                for event in events:
                    registry.inc(self._names[event], amount)

    def snapshot(self) -> Dict[str, float]:
        """Every event's count, all as of one instant."""
        with self._lock:
            return dict(self._counts)
