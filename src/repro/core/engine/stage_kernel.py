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
slot.  The refactor is behavior-preserving: the operations and their
order are exactly those of the pre-split solver, so solutions are
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
    j_arr: np.ndarray,
    j2_arr: np.ndarray,
    e_arr: np.ndarray,
    dt_arr: np.ndarray,
    n_levels: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expand every (source label, feasible successor) combination.

    Args:
        lab_v: Velocity index of each surviving label at the stage entry.
        lab_t: Exact arrival time of each label (s).
        lab_c: Exact cost-to-come of each label (J).
        j_arr: Source velocity index of each feasible transition, sorted
            ascending (the row-major :func:`numpy.nonzero` order the
            corridor artifacts produce).
        j2_arr: Successor velocity index of each feasible transition.
        e_arr: Energy of each feasible transition (J).
        dt_arr: Traversal time of each feasible transition, including the
            departure dwell (s).
        n_levels: Size of the velocity grid.

    Returns:
        ``(src, cj2, cc, ct)``: for every candidate, the index of its
        source label, its successor velocity index, its cost-to-come and
        its arrival time.  All four are empty when no label has a
        feasible continuation (the caller decides how to fail).

    Candidates are ordered by source velocity (stable over label order),
    then by that velocity's transitions in CSR order.  This ragged gather
    replaced a per-velocity Python loop of ``repeat``/``tile`` chunks
    that dominated warm mid-route replans.  The candidate ordering (and every value) is
    bit-identical to the chunked implementation it replaced.
    """
    trans_count = np.bincount(j_arr, minlength=n_levels)
    trans_start = np.concatenate([[0], np.cumsum(trans_count)])
    order = np.argsort(lab_v, kind="stable")
    v_sorted = lab_v[order]
    counts_per_label = trans_count[v_sorted]
    total = int(counts_per_label.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0), np.empty(0)
    src = np.repeat(order, counts_per_label)
    # Ragged gather: candidate k of a label maps to the k-th transition of
    # that label's velocity in the CSR-ordered pair arrays.
    block_starts = np.concatenate([[0], np.cumsum(counts_per_label)[:-1]])
    t_idx = np.arange(total, dtype=np.int64)
    t_idx += np.repeat(trans_start[v_sorted] - block_starts, counts_per_label)
    cj2 = j2_arr[t_idx].astype(np.int64, copy=False)
    cc = e_arr[t_idx] + lab_c[src]
    ct = dt_arr[t_idx] + lab_t[src]
    return src, cj2, cc, ct


def select_labels(
    cj2: np.ndarray,
    cc: np.ndarray,
    ct: np.ndarray,
    start_time_s: float,
    t_bin_s: float,
    n_bins: int,
) -> np.ndarray:
    """Indices of the candidates surviving per-``(velocity, bin)`` selection.

    For every ``(successor velocity, time bin)`` slot BOTH the cheapest
    and the earliest candidate are kept: the cheapest slot drives energy
    optimality, the earliest preserves the fast time-frontier exactly so
    tight windows downstream stay reachable (a cheaper-but-later label
    can never displace the fastest lineage).
    """
    k2 = np.round((ct - start_time_s) / t_bin_s).astype(np.int64)
    tgt = cj2.astype(np.int64) * n_bins + k2
    return _cheapest_and_fastest_per_group(tgt, cc, ct)


def _cheapest_and_fastest_per_group(
    tgt: np.ndarray, cc: np.ndarray, ct: np.ndarray
) -> np.ndarray:
    """Per group: the index minimizing ``(cc, ct, index)`` and ``(ct, cc, index)``.

    Equivalent to two ``lexsort`` passes over the candidates, each keeping
    the first element of every group's run, but sort-free: the group keys are small dense
    integers, so each winner is found by three O(n) scatter-min sweeps
    (:func:`numpy.minimum.at` into a dense table) — min primary, then min
    secondary among primary ties, then min index among remaining ties.
    That is the same lexicographic minimum the stable lexsort's first-
    per-group picks, so the winner set is identical; the two three-key
    float lexsorts were the solver's dominant cost.
    """
    n = tgt.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    n_dense = int(tgt.max()) + 1

    def first_min(primary: np.ndarray, secondary: np.ndarray) -> np.ndarray:
        best_p = np.full(n_dense, np.inf)
        np.minimum.at(best_p, tgt, primary)
        pos = np.flatnonzero(primary == best_p[tgt])
        # The later sweeps run on the primary-tie subset only — one
        # candidate per group in the common tie-free case.
        tgt_p = tgt[pos]
        sec_p = secondary[pos]
        best_s = np.full(n_dense, np.inf)
        np.minimum.at(best_s, tgt_p, sec_p)
        on_s = sec_p == best_s[tgt_p]
        idx = pos[on_s]
        winner = np.full(n_dense, n, dtype=np.int64)
        np.minimum.at(winner, tgt_p[on_s], idx)
        return winner

    cheap = first_min(cc, ct)
    fast = first_min(ct, cc)
    present = cheap < n  # both tables populate exactly the same groups
    cheap = cheap[present]
    fast = fast[present]
    # A candidate belongs to exactly one group, so winners are already
    # distinct; the union is cheap plus the differing fast winners.
    return np.sort(np.concatenate([cheap, fast[fast != cheap]]))

