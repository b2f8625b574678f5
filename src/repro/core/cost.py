"""Transition-cost building blocks for the DP (Eq. 9 and Eq. 12).

Two pieces live here:

* :func:`price_segments` — the per-segment matrices of electrical
  energies for every (v_start, v_end) pair on the velocity grid, i.e. the
  ``zeta(v(s_i), a(s_i))`` term of Eq. 9, with infeasible accelerations
  marked infinite (the ``+inf`` branch), yielded in blocks of
  consecutive segments; :class:`SegmentEnergyTable` is one segment's
  matrix.
* :class:`WindowSet` — an ordered set of absolute time windows with a
  vectorized membership test, used to apply the ``T_q`` penalty of
  Eq. 11/12 to whole time-bin rows at once.
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.signal.queue import QueueWindow
from repro.vehicle.dynamics import LongitudinalModel

_START_OF = attrgetter("start_s")


#: Upper bound on the (segment, v, v') entries :func:`price_segments`
#: prices per block, which bounds its temporary arrays (~8 float64
#: temporaries of this many entries are alive at once) and the blocks
#: it yields.
_BLOCK_ENTRIES = 1 << 13


def price_segments(
    model: LongitudinalModel,
    v_grid: np.ndarray,
    distances_m: np.ndarray,
    grades_rad: np.ndarray,
    a_min: float,
    a_max: float,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Eq. 9 tables of constant-grade segments, block by block.

    Args:
        model: Vehicle consumption model.
        v_grid: Velocity grid values (m/s), shared across segments.
        distances_m: Length ``ds`` of each segment.
        grades_rad: Grade of each segment (evaluated at its midpoint).
        a_min: Minimum allowed acceleration (m/s^2, negative).
        a_max: Maximum allowed acceleration (m/s^2, positive).

    Yields:
        ``(energy_j, travel_s, feasible)`` of each block of consecutive
        segments, in the order given; each has shape ``(block, v, v')``,
        and the blocks together cover every segment.  ``energy_j[i, j, j2]``
        is the electrical energy (J, negative under net regen) to go from
        ``v_grid[j]`` to ``v_grid[j2]`` over the block's segment ``i`` at
        constant acceleration, and ``travel_s`` its traversal time;
        entries violating Eq. 7b or with zero average speed are ``+inf``
        in both, and ``False`` in ``feasible``.

    A block holds at most ``_BLOCK_ENTRIES`` entries (at least one
    segment): the velocity arithmetic broadcasts over a block, and every
    entry is bit-identical to pricing its segment alone, whatever else
    the block holds.  A caller that keeps only what it extracts from
    each block never holds a ``(segments, v, v')`` table.  The segments
    need not be a corridor's: :meth:`CorridorArtifacts.build
    <repro.core.engine.artifacts.CorridorArtifacts.build>` passes each
    distinct ``(length, grade)`` shape once, in order of first
    appearance.

    Raises:
        ValueError: Some segment length is not positive.
    """
    distances_m = np.asarray(distances_m, dtype=float)
    grades_rad = np.asarray(grades_rad, dtype=float)
    n_seg, n_v = distances_m.size, v_grid.size
    v0 = v_grid[:, None]
    v1 = v_grid[None, :]
    dv2 = np.square(v1) - np.square(v0)
    v_avg = 0.5 * (v0 + v1)
    moving = v_avg > 0.0
    safe_avg = np.where(moving, v_avg, 1.0)
    block = max(1, _BLOCK_ENTRIES // (n_v * n_v))
    for lo in range(0, n_seg, block):
        ds = distances_m[lo:lo + block, None, None]
        energy = model.segment_energy_j(v0, v1, ds, grades_rad[lo:lo + block, None, None])
        accel = dv2 / (2.0 * ds)
        ok = np.greater_equal(accel, a_min - 1e-12)
        ok &= accel <= a_max + 1e-12
        ok &= moving
        yield np.where(ok, energy, np.inf), np.where(ok, ds / safe_avg, np.inf), ok


class SegmentEnergyTable:
    """Energy matrix ``E[j, j2]`` for one constant-grade segment.

    Args:
        model: Vehicle consumption model.
        v_grid: Velocity grid values (m/s), shared across segments.
        distance_m: Segment length ``ds``.
        grade_rad: Road grade over the segment (evaluated at its midpoint).
        a_min: Minimum allowed acceleration (m/s^2, negative).
        a_max: Maximum allowed acceleration (m/s^2, positive).

    The table is the one block :func:`price_segments` yields for a lone
    segment: ``E[j, j2]`` is the electrical energy (J, negative under net
    regen) to go from ``v_grid[j]`` to ``v_grid[j2]`` over the segment at
    constant acceleration; entries violating Eq. 7b or with zero average
    speed are ``+inf``.
    """

    def __init__(
        self,
        model: LongitudinalModel,
        v_grid: np.ndarray,
        distance_m: float,
        grade_rad: float,
        a_min: float,
        a_max: float,
    ) -> None:
        self.distance_m = float(distance_m)
        ((energy_j, travel_s, feasible),) = price_segments(
            model, v_grid, np.asarray([distance_m]), np.asarray([grade_rad]), a_min, a_max
        )
        self.energy_j = energy_j[0]
        self.travel_s = travel_s[0]
        self.feasible = feasible[0]

    def successors(self, j: int) -> np.ndarray:
        """Indices ``j2`` reachable from grid velocity index ``j``."""
        return np.flatnonzero(self.feasible[j])


class WindowSet:
    """Sorted, disjoint absolute time windows with vectorized membership.

    The input windows are merged once into two float arrays (starts and
    ends); shrinking and membership work on those arrays and never
    re-create :class:`~repro.signal.queue.QueueWindow` objects.

    Args:
        windows: Queue-free (or green) windows; they are sorted and merged
            if overlapping or touching.
    """

    def __init__(self, windows: Sequence[QueueWindow]) -> None:
        starts: List[float] = []
        ends: List[float] = []
        for w in sorted(windows, key=_START_OF):
            if ends and w.start_s <= ends[-1]:
                ends[-1] = max(ends[-1], w.end_s)
            else:
                starts.append(w.start_s)
                ends.append(w.end_s)
        self._starts = np.asarray(starts, dtype=float)
        self._ends = np.asarray(ends, dtype=float)

    @classmethod
    def _from_arrays(cls, starts: np.ndarray, ends: np.ndarray) -> "WindowSet":
        """Adopt already sorted, disjoint window bounds as they are."""
        windows = cls.__new__(cls)
        windows._starts = starts
        windows._ends = ends
        return windows

    def __len__(self) -> int:
        return int(self._starts.size)

    @property
    def is_empty(self) -> bool:
        """True when no window exists (e.g. oversaturated signal)."""
        return self._starts.size == 0

    def contains(self, times: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``times`` fall inside any window."""
        t = np.asarray(times, dtype=float)
        if self.is_empty:
            return np.zeros(t.shape, dtype=bool)
        idx = np.searchsorted(self._starts, t, side="right") - 1
        valid = idx >= 0
        inside = np.zeros(t.shape, dtype=bool)
        safe = np.clip(idx, 0, self._starts.size - 1)
        inside[valid] = t[valid] < self._ends[safe[valid]]
        return inside

    def __contains__(self, time_s: float) -> bool:
        """Whether one absolute time falls inside any window.

        The scalar form of :meth:`contains`: the same answer for every
        time, without building a one-element array.
        """
        i = bisect.bisect_right(self._starts, time_s) - 1
        return i >= 0 and bool(time_s < self._ends[i])

    def shrunk(self, margin_s: float) -> "WindowSet":
        """A copy with every window shrunk by ``margin_s`` on both ends.

        The DP quantizes time into bins; shrinking the target windows by a
        margin larger than the accumulated rounding error guarantees the
        continuous-time profile still lands inside the true window.
        Windows that collapse disappear.  Shrinking keeps sorted,
        disjoint windows sorted and disjoint, so the survivors need no
        re-merge.
        """
        if margin_s < 0:
            raise ValueError(f"margin must be >= 0, got {margin_s}")
        starts = self._starts + margin_s
        ends = self._ends - margin_s
        keep = (ends - starts) > 1e-9
        return WindowSet._from_arrays(starts[keep], ends[keep])

    def as_queue_windows(self) -> List[QueueWindow]:
        """The merged windows as :class:`QueueWindow` objects."""
        return [QueueWindow(float(s), float(e)) for s, e in zip(self._starts, self._ends)]
