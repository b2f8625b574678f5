"""Benchmark-side tracing: spans around each layer's public entry points.

The program itself is not instrumented.  A :class:`Tracer` replaces each
layer's public callables with wrappers that record a span (name, layer,
start, end, parent, request id, thread) and restores the originals on
:meth:`Tracer.uninstall`.  Parents come from a per-thread stack owned by
the tracer; ``repro.obs`` is never switched on.

Spans that cross threads (the server's decode-to-reply interval, the
dispatcher's queue wait) are *detached*: they sit on no thread's stack,
so the event loop's interleaved requests do not nest under each other.
A span with no same-thread parent is attached afterwards to the
innermost span of the same request id that contains it and is detached
or lives on another thread (:func:`link_parents`).  A layer's self time
is its spans' durations minus the part their children cover
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_clock = time.perf_counter


class Span:
    """One recorded interval.  ``parent`` is a span id or ``None``."""

    __slots__ = ("id", "name", "layer", "rid", "tid", "start", "end", "parent", "detached")

    def __init__(self, id, name, layer, rid, tid, start, end=None, parent=None, detached=False):
        self.id = id
        self.name = name
        self.layer = layer
        self.rid = rid
        self.tid = tid
        self.start = start
        self.end = end
        self.parent = parent
        self.detached = detached

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_tuple(self) -> tuple:
        return (self.id, self.name, self.layer, self.rid, self.tid, self.start,
                self.end, self.parent, self.detached)

    @classmethod
    def from_tuple(cls, t: tuple) -> "Span":
        return cls(*t)


class Tracer:
    """Records spans in memory; patches layer entry points while installed.

    Args:
        id_base: First span id.  Two processes whose spans are merged use
            disjoint bases.
    """

    def __init__(self, id_base: int = 1) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.sums: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(id_base)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._marks: Dict[str, float] = {}
        self._server_open: Dict[str, float] = {}
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> Tuple[int, int]:
        return (self._pid, threading.get_ident())

    def open(self, name: str, layer: str, rid: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(next(self._ids), name, layer, rid, self._tid(), _clock(),
                    parent=parent.id if parent is not None else None)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - a wrapper always closes its own span
            stack.remove(span)
        self.spans.append(span)

    def detached(self, name: str, layer: str, rid: Optional[str], start: float,
                 end: float) -> Span:
        """Record a span that belongs to no thread's stack."""
        span = Span(next(self._ids), name, layer, rid, self._tid(), start, end,
                    detached=True)
        self.spans.append(span)
        return span

    def root(self, name: str, rid: Optional[str] = None):
        """Context manager for the benchmark's own per-request root span."""
        return _RootSpan(self, name, rid)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        rid_of: Optional[Callable] = None,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        failed: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``rid_of(args)`` names the request; ``before(span, args)``,
        ``after(span, args, result)`` and ``failed(span, args, exc)`` see
        each call.  Class methods and plain functions are both handled.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        name = f"{layer}.{attr}"
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer, rid_of(args) if rid_of else None)
            if before is not None:
                before(span, args)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span)
                if failed is not None:
                    failed(span, args, exc)
                raise
            tracer.close(span)
            if after is not None:
                after(span, args, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every patched callable (last patched, first restored)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Layer sets
    # ------------------------------------------------------------------
    def install_setup(self) -> None:
        """Artifact store and artifact build: called only while setting up."""
        from repro.core.engine.artifacts import CorridorArtifacts
        from repro.core.engine.store import ArtifactStore

        def built(span, args, result):
            self.counts["artifacts.builds"] += 1
            self.sums["artifacts.bytes"] += result.nbytes
            self.sums["artifacts.build_s"] += span.duration

        self.wrap(ArtifactStore, "get_or_build", "store")
        self.wrap(CorridorArtifacts, "build", "artifacts", after=built)

    def install_core(self) -> None:
        """Router, service, plan cache, queue windows, planner, DP, kernels."""
        from repro.cloud.plan_cache import PlanCache
        from repro.cloud.router import PlanRouter
        from repro.cloud.service import CloudPlannerService
        from repro.core import dp as dp_module
        from repro.core.dp import DpSolution, DpSolver
        from repro.core.planner import DpPlannerBase
        from repro.errors import InfeasibleProblemError
        from repro.signal.queue import QueueLengthModel

        def req_rid(args):
            return args[1].vehicle_id

        def close_wait(span, args):
            start = self._marks.pop(span.rid, None)
            if start is not None:
                self.detached("dispatcher.wait", "dispatcher", span.rid, start, span.start)

        self.wrap(PlanRouter, "request", "router", rid_of=req_rid, before=close_wait)
        self.wrap(PlanRouter, "request_batch", "router")
        self.wrap(CloudPlannerService, "request", "service", rid_of=req_rid)
        self.wrap(CloudPlannerService, "request_batch", "service")
        for attr in ("get", "peek", "put"):
            self.wrap(PlanCache, attr, "plan_cache")
        self.wrap(QueueLengthModel, "empty_windows", "queue")

        def min_time_one(span, args):
            self.counts["planner.min_time_solves"] += 1

        def min_time_many(span, args):
            self.counts["planner.min_time_solves"] += len(args[1])

        self.wrap(DpPlannerBase, "plan", "planner")
        self.wrap(DpPlannerBase, "replan", "planner")
        self.wrap(DpPlannerBase, "plan_batch", "planner")
        self.wrap(DpPlannerBase, "min_trip_time", "planner", before=min_time_one)
        self.wrap(DpPlannerBase, "min_trip_time_batch", "planner", before=min_time_many)

        def solved(outcome) -> None:
            self.counts["dp.solves"] += 1
            if isinstance(outcome, DpSolution):
                self.counts["dp.solutions"] += 1
                self.sums["dp.expanded_transitions"] += outcome.expanded_transitions
            elif isinstance(outcome, InfeasibleProblemError):
                self.counts["dp.infeasible"] += 1

        def solve_done(span, args, result):
            self.counts["dp.calls"] += 1
            solved(result)

        def solve_failed(span, args, exc):
            self.counts["dp.calls"] += 1
            solved(exc)

        def batch_done(span, args, result):
            self.counts["dp.calls"] += 1
            for outcome in result:
                solved(outcome)

        self.wrap(DpSolver, "solve", "dp", after=solve_done, failed=solve_failed)
        self.wrap(DpSolver, "solve_batch", "dp", after=batch_done)
        # The solver imports the kernels by name, so wrap them where it
        # looks them up.
        for attr in ("expand_stage", "select_labels", "expand_stage_batch",
                     "select_labels_batch"):
            self.wrap(dp_module, attr, "stage_kernel")

    def install_server(self) -> None:
        """Server-side wire, framing, the server interval and dispatcher wait.

        The server span of a request runs from the start of its decode to
        the end of its response frame.  Both calls run on the event-loop
        thread with no ``await`` between the response encode and its
        frame, so the frame encoded next belongs to the last response.
        """
        from repro.cloud import server as server_module
        from repro.cloud import wire
        from repro.cloud.dispatcher import PlanDispatcher
        from repro.cloud.framing import FrameAssembler

        def decoded(span, args, result):
            kind, message, _ = result
            if kind == wire.REQUEST_KIND:
                span.rid = message.vehicle_id
                self._server_open[span.rid] = span.start

        def encoded(span, args, result):
            self._local.last_response = span.rid
            self.counts["wire.responses"] += 1
            self.sums["wire.response_bytes"] += len(result)

        def framed(span, args, result):
            rid = getattr(self._local, "last_response", None)
            self._local.last_response = None
            start = self._server_open.pop(rid, None) if rid is not None else None
            if start is not None:
                span.rid = rid
                self.detached("server.request", "server", rid, start, span.end)

        def submitted(span, args):
            self._marks[span.rid] = span.start

        self.wrap(wire, "decode_message_versioned", "wire", after=decoded)
        self.wrap(wire, "encode_response", "wire", rid_of=lambda a: a[0].vehicle_id,
                  after=encoded)
        self.wrap(server_module, "encode_frame", "framing", after=framed)
        self.wrap(FrameAssembler, "feed", "framing")
        self.wrap(PlanDispatcher, "submit", "dispatcher", rid_of=lambda a: a[1].vehicle_id,
                  before=submitted)

    def install_client(self) -> None:
        """Vehicle-side wire and framing of the network transport."""
        from repro.cloud import netclient, wire
        from repro.cloud.framing import FrameAssembler

        self.wrap(wire, "encode_request", "wire")
        self.wrap(wire, "decode_message", "wire")
        self.wrap(wire, "decode_message_versioned", "wire")
        self.wrap(netclient, "encode_frame", "framing")
        self.wrap(FrameAssembler, "feed", "framing")


class _RootSpan:
    __slots__ = ("tracer", "name", "rid", "span")

    def __init__(self, tracer: Tracer, name: str, rid: Optional[str]) -> None:
        self.tracer = tracer
        self.name = name
        self.rid = rid

    def __enter__(self) -> Span:
        self.span = self.tracer.open(self.name, "root", self.rid)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer.close(self.span)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def link_parents(spans: Sequence[Span]) -> None:
    """Attach each parentless span to its cross-thread parent, if any.

    The parent is the innermost span with the same request id that
    contains it and is either detached or on another thread (or in
    another process).  Ties on equal intervals go to the lower id, so no
    two spans can become each other's parent.
    """
    by_rid: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.rid is not None:
            by_rid[span.rid].append(span)
    for span in spans:
        if span.parent is not None or span.rid is None:
            continue
        best = None
        for cand in by_rid[span.rid]:
            if cand is span or not (cand.detached or cand.tid != span.tid):
                continue
            if not (cand.start <= span.start and span.end <= cand.end):
                continue
            if cand.duration < span.duration or (
                cand.duration == span.duration and cand.id > span.id
            ):
                continue
            if best is None or cand.duration < best.duration:
                best = cand
        if best is not None:
            span.parent = best.id


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - _covered(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer and per span name: call count and summed self time (s)."""
    link_parents(spans)
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        own = selfs[span.id]
        totals[span.layer]["calls"] += 1
        totals[span.layer]["self_s"] += own
        totals[span.layer]["span_s"] += span.duration
        totals[span.layer][f"{span.name}.calls"] += 1
        totals[span.layer][f"{span.name}.self_s"] += own
    return totals
