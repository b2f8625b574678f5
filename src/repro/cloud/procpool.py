"""Process-parallel dispatch backend: key-sharded planner workers.

Thread-pooled serving cannot scale the DP past one core — the stage
kernels are numpy-on-Python and hold the GIL for most of a solve.  This
backend puts the solves in **worker processes** instead:

* the parent exports the planner's corridor artifacts once into shared
  memory (:class:`repro.core.engine.shm.SharedCorridor`); every worker
  maps the same read-only pages instead of rebuilding (or copying) the
  tens-of-MB build;
* each worker constructs its own planner + service from a small recipe
  and the mapped artifacts, then serves requests from its task queue;
* requests are **sharded by coalesce key**: equal keys always land on
  the same worker, so that worker's phase cache serves followers exactly
  like serial serving would — the first request of a key solves, later
  ones hit the warm cache.  Uncoalescable requests round-robin.

What is shared and what is not: corridor artifacts are shared
(one mapping machine-wide); the *serving caches and counters* are
per-worker — the parent service's ``stats`` do not see process-served
requests, only the dispatcher's own counters do.  Plans remain
bit-identical to serial serving because the solver is deterministic
over identical artifacts and key-sharding preserves per-key request
order.

This backend is honest about platform limits: on a single-core host the
workers time-slice one CPU, so it cannot beat serial serving there.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time as _time
from concurrent.futures import Future
from typing import Callable, Dict, Hashable, List, Optional

from repro.cloud.messages import PlanRequest
from repro.cloud.service import CloudPlannerService
from repro.core.engine.shm import SharedCorridor
from repro.core.engine.store import ArtifactStore
from repro.errors import ConfigurationError, DispatchDeadlineError

__all__ = ["ProcessBackend"]


def _build_planner(recipe: dict, store: ArtifactStore):
    """Reconstruct the parent's planner class over pre-mapped artifacts."""
    cls = recipe["planner_cls"]
    if recipe["arrival_rates"] is not None:
        return cls(
            recipe["road"],
            recipe["arrival_rates"],
            vehicle=recipe["vehicle"],
            config=recipe["config"],
            store=store,
            environment=recipe.get("environment"),
        )
    return cls(
        recipe["road"],
        vehicle=recipe["vehicle"],
        config=recipe["config"],
        store=store,
        environment=recipe.get("environment"),
    )


def _worker_main(recipe: dict, shm_spec: dict, task_q, result_q) -> None:
    """Worker loop: map artifacts, build a service, answer tasks."""
    service = None
    init_err: Optional[Exception] = None
    shared = None
    try:
        shared = SharedCorridor.attach(shm_spec)
        # Seed a tiny store with the mapped build; the solver's
        # get_or_build finds it by digest and never re-prices a table.
        store = ArtifactStore(capacity=2)
        store.put(shared.artifacts())
        planner = _build_planner(recipe, store)
        service = CloudPlannerService(planner, **recipe["service_kwargs"])
    except Exception as exc:  # noqa: BLE001 - reported per task below
        init_err = exc
    while True:
        task = task_q.get()
        if task is None:
            break
        task_id, req, deadline_s, submitted_at = task
        if init_err is not None:
            result_q.put((task_id, init_err))
            continue
        # CLOCK_MONOTONIC is system-wide on Linux, so the parent's
        # submission stamp is comparable here.
        if deadline_s is not None and _time.monotonic() - submitted_at >= deadline_s:
            result_q.put(
                (
                    task_id,
                    DispatchDeadlineError(
                        f"request for {req.vehicle_id!r} missed its "
                        f"{deadline_s:.2f} s deadline while queued",
                        vehicle_id=req.vehicle_id,
                        deadline_s=deadline_s,
                    ),
                )
            )
            continue
        try:
            result_q.put((task_id, service.request(req)))
        except Exception as exc:  # noqa: BLE001 - outcome, not a crash
            result_q.put((task_id, exc))
    if shared is not None:
        shared.close()


class ProcessBackend:
    """Key-sharded worker processes behind a :class:`PlanDispatcher`.

    Args:
        service: The parent-side service; its planner supplies the
            corridor artifacts to export and the recipe the workers
            rebuild from.  Callable arrival rates cannot cross a spawn
            boundary; under the default Linux ``fork`` start method they
            are inherited and work fine.
        on_outcome: Called with each outcome (response or exception)
            just before its future resolves, so whatever it counts is
            already counted when a waiter wakes.
        workers: Number of worker processes (>= 1).
    """

    def __init__(
        self,
        service: CloudPlannerService,
        on_outcome: Callable[[object], None],
        workers: int = 4,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"process backend needs >= 1 worker, got {workers}")
        planner = service.planner
        solver = getattr(planner, "solver", None)
        artifacts = getattr(solver, "artifacts", None)
        if artifacts is None:
            raise ConfigurationError(
                "process backend needs a planner with solver artifacts to share"
            )
        self.workers = int(workers)
        self._on_outcome = on_outcome
        self._shared = SharedCorridor.export(artifacts)
        recipe = {
            "planner_cls": type(planner),
            "road": planner.road,
            "vehicle": planner.vehicle,
            "config": planner.config,
            "environment": getattr(planner, "environment", None),
            "arrival_rates": getattr(planner, "arrival_rates", None),
            "service_kwargs": {
                "phase_quantum_s": service.phase_quantum_s,
                "budget_quantum_s": service.budget_quantum_s,
                "default_budget_slack_s": service.default_budget_slack_s,
                "validator": service.validator,
                "cache_capacity": service.plan_cache.capacity,
                "cache_ttl_s": service.plan_cache.ttl_s,
            },
        }
        ctx = mp.get_context()
        self._tasks = [ctx.Queue() for _ in range(self.workers)]
        self._results = ctx.Queue()
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(recipe, self._shared.spec, task_q, self._results),
                daemon=True,
                name=f"plan-worker-{i}",
            )
            for i, task_q in enumerate(self._tasks)
        ]
        for proc in self._procs:
            proc.start()
        self._lock = threading.Lock()
        self._futures: Dict[int, Future] = {}
        self._task_seq = 0
        self._round_robin = 0
        self._down = False
        self._collector = threading.Thread(
            target=self._collect, name="plan-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------
    # Submission / collection
    # ------------------------------------------------------------------
    def submit(
        self,
        req: PlanRequest,
        key: Optional[Hashable],
        deadline_s: Optional[float],
        submitted_at: float,
    ) -> Future:
        """Route one request to its key's worker; returns its future."""
        future: Future = Future()
        with self._lock:
            if self._down:
                self._settle(future, RuntimeError("process backend is shut down"))
                return future
            task_id = self._task_seq
            self._task_seq += 1
            self._futures[task_id] = future
            if key is None:
                shard = self._round_robin % self.workers
                self._round_robin += 1
            else:
                shard = hash(key) % self.workers
        self._tasks[shard].put((task_id, req, deadline_s, submitted_at))
        return future

    def _settle(self, future: Future, outcome: object) -> None:
        """Hand the outcome to ``on_outcome``, then resolve its future."""
        self._on_outcome(outcome)
        try:
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)
        except Exception:  # noqa: BLE001 - future was cancelled
            pass

    def _collect(self) -> None:
        while True:
            item = self._results.get()
            if item is None:
                return
            task_id, outcome = item
            with self._lock:
                future = self._futures.pop(task_id, None)
            if future is not None:
                self._settle(future, outcome)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers, drain results, release the shared block."""
        with self._lock:
            if self._down:
                return
            self._down = True
        for task_q in self._tasks:
            task_q.put(None)
        if wait:
            for proc in self._procs:
                proc.join(timeout=30.0)
        # Workers enqueue every result before exiting, and the queue is
        # FIFO — the sentinel lands after all real results.
        self._results.put(None)
        self._collector.join(timeout=30.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        leftovers: List[Future] = []
        with self._lock:
            leftovers = list(self._futures.values())
            self._futures.clear()
        for future in leftovers:
            self._settle(
                future, RuntimeError("process backend shut down before serving")
            )
        self._shared.unlink()
