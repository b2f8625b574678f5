"""The DP's inner stage relaxation as pure array kernels.

These functions are the computational core of
:meth:`repro.core.dp.DpSolver._solve`, hoisted out so the hot path can be
benchmarked, profiled and property-tested in isolation.  They operate
only on plain numpy arrays — no solver state, no road or vehicle objects
— which makes each call a pure function of its inputs.

A stage takes the surviving labels at route point ``i`` (velocity index,
exact arrival time, exact cost-to-come) plus the feasible transition
arrays of segment ``i`` (from the corridor artifacts) and produces the
candidate labels at point ``i + 1``; selection then thins the candidates
to one cheapest and one earliest survivor per ``(velocity, time-bin)``
slot.  The kernels are exact: every value is computed by the same
floating-point operations as the pre-split solver, and the candidate
order and tie-break are part of the contract, so solutions are
bit-identical.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["expand_stage", "select_labels"]


def expand_stage(
    lab_v: np.ndarray,
    lab_t: np.ndarray,
    lab_c: np.ndarray,
    offsets: np.ndarray,
    j2_arr: np.ndarray,
    e_arr: np.ndarray,
    dt_arr: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expand every (source label, feasible successor) combination.

    Args:
        lab_v: Velocity index of each surviving label at the stage entry.
        lab_t: Exact arrival time of each label (s).
        lab_c: Exact cost-to-come of each label (J).
        offsets: The segment's CSR row offsets into the transition
            arrays: the transitions from velocity index ``j`` are
            ``offsets[j]:offsets[j + 1]`` (see
            :class:`~repro.core.engine.artifacts.TransitionPairs`).
        j2_arr: Successor velocity index of each transition.
        e_arr: Energy of each transition (J).
        dt_arr: Traversal time of each transition, including the
            departure dwell (s).

    Returns:
        ``(src, cj2, cc, ct)``: for every candidate, the index of its
        source label, its successor velocity index, its cost-to-come and
        its arrival time.  All four are empty when no label has a
        feasible continuation (the caller decides how to fail).

    Candidates are ordered by source velocity (stable over label order),
    then by that velocity's transitions in CSR order.  The order is part
    of the output: :func:`select_labels` breaks exact ties by candidate
    index.
    """
    order = lab_v.argsort(kind="stable")
    v_sorted = lab_v[order]
    starts = offsets[v_sorted]
    counts = offsets[v_sorted + 1] - starts
    ends = counts.cumsum()
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0), np.empty(0)
    src = order.repeat(counts)
    # Ragged gather: candidate k of a label maps to the k-th transition of
    # that label's velocity row.
    ends -= counts
    starts -= ends
    t_idx = starts.repeat(counts)
    t_idx += np.arange(total)
    cj2 = j2_arr[t_idx].astype(np.int64, copy=False)
    # Each label's cost and time repeated over its candidates: lab_c[src]
    # and lab_t[src], without a gather per candidate.
    cc = e_arr[t_idx]
    cc += lab_c[order].repeat(counts)
    ct = dt_arr[t_idx]
    ct += lab_t[order].repeat(counts)
    return src, cj2, cc, ct


def select_labels(
    cj2: np.ndarray,
    cc: np.ndarray,
    ct: np.ndarray,
    start_time_s: float,
    t_bin_s: float,
) -> np.ndarray:
    """Indices of the candidates surviving per-``(velocity, bin)`` selection.

    For every ``(successor velocity, time bin)`` slot BOTH the cheapest
    and the earliest candidate are kept: the cheapest slot drives energy
    optimality, the earliest preserves the fast time-frontier exactly so
    tight windows downstream stay reachable (a cheaper-but-later label
    can never displace the fastest lineage).

    The cheapest is the lexicographic minimum of ``(cc, ct, index)`` in
    its slot and the earliest that of ``(ct, cc, index)``: exact ties on
    both keys are common (symmetric paths sum to equal times), so the
    candidate order decides them.  Returns the winners' indices, sorted.
    """
    if cj2.size == 0:
        return np.empty(0, dtype=np.int64)
    k2 = ((ct - start_time_s) / t_bin_s).round().astype(np.int64)
    # Dense slot keys over the bins this stage spans, not the horizon.
    k_lo = k2.min()
    tgt = cj2.astype(np.int64, copy=False) * (int(k2.max() - k_lo) + 1)
    tgt += k2
    tgt -= k_lo
    n_slots = int(tgt.max()) + 1
    best_c = _slot_min(tgt, cc, n_slots)
    best_t = _slot_min(tgt, ct, n_slots)
    # Arrival times are finite, so an occupied slot has a finite minimum.
    occupied = int((best_t < np.inf).sum())
    cheap = cc == best_c[tgt]
    fast = ct == best_t[tgt]
    _break_ties(cheap, tgt, ct, n_slots, occupied)
    _break_ties(fast, tgt, cc, n_slots, occupied)
    cheap |= fast
    return cheap.nonzero()[0]


def _slot_min(slots: np.ndarray, values: np.ndarray, n_slots: int) -> np.ndarray:
    """Per slot, the minimum of its ``values`` (``+inf`` when empty)."""
    best = np.empty(n_slots)
    best.fill(np.inf)
    np.minimum.at(best, slots, values)
    return best


def _break_ties(
    on: np.ndarray,
    slots: np.ndarray,
    secondary: np.ndarray,
    n_slots: int,
    occupied: int,
) -> None:
    """Thin ``on`` to one candidate per slot where the primary key tied.

    ``on`` marks each slot's primary minimizers, and ``occupied`` slots
    hold candidates.  In slots with more than one minimizer, the winner
    is the one with the least ``secondary`` value and, among those, the
    least index; a slot with a single minimizer keeps it.  Works in
    place on ``on``.
    """
    if np.count_nonzero(on) == occupied:
        return
    pos = on.nonzero()[0]
    tied_slots = slots[pos]
    tied = np.bincount(tied_slots, minlength=n_slots)[tied_slots] > 1
    pos = pos[tied]
    tied_slots = tied_slots[tied]
    sec = secondary[pos]
    on_sec = sec == _slot_min(tied_slots, sec, n_slots)[tied_slots]
    n = slots.size
    first = np.empty(n_slots, dtype=np.int64)
    first.fill(n)
    np.minimum.at(first, tied_slots[on_sec], pos[on_sec])
    on[pos] = False
    on[first[first < n]] = True
