"""The plan server of the ``warm_wire`` workload, in its own process.

:func:`start` launches ``python -m servebench.server_proc FD`` and talks
to it over a socket pair wrapped as a ``multiprocessing`` connection:

* the parent sends ``(primed, setups, trace)``;
* the child builds the stack, primes its plan caches and starts the
  server ``setups`` times (the median is ``setup_s``), keeps the last one
  serving and sends ``("ready", port, setup_times)``;
* ``("trace",)`` installs the serving-path wrappers and snapshots the
  counters the traced phase is measured against;
* ``("stop",)`` drains the server and answers with its final stats
  document, the counter deltas, peak RSS and any recorded spans; then
  the child exits.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from typing import Dict, List, Tuple

from repro.cloud.messages import PlanRequest
from repro.cloud.server import serve_in_background

from servebench.common import ROOT, build_stack, peak_rss_mb
from servebench.tracing import Tracer

#: Server span ids start here so they never collide with the generator's.
SERVER_ID_BASE = 1 << 40


def prime(router, primed: List[Tuple[str, float]]) -> list:
    """Fill the plan caches with one cold solve per primed key; the plans."""
    reqs = [
        PlanRequest(vehicle_id=f"prime-{i}", depart_s=depart, corridor_id=cid)
        for i, (cid, depart) in enumerate(primed)
    ]
    outcomes = router.request_batch(reqs)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def counters(router) -> Dict[str, float]:
    """The service and plan-cache counters a phase is measured against."""
    service = router.stats_snapshot()
    cache = router.plan_cache.stats()
    return {
        "hits": service.cache_hits,
        "misses": service.cache_misses,
        "revalidation_misses": service.revalidation_misses,
        "cache_hits": cache.hits,
        "cache_lookups": cache.lookups,
    }


def start(primed: List[Tuple[str, float]], setups: int, trace: bool):
    """Launch :func:`serve` in a child process; the process and our connection."""
    ours, theirs = socket.socketpair()
    path = [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "servebench.server_proc", str(theirs.fileno())],
            pass_fds=[theirs.fileno()], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        )
    except BaseException:
        ours.close()
        raise
    finally:
        theirs.close()
    conn = Connection(ours.detach())
    try:
        conn.send((primed, setups, trace))
    except BaseException:
        proc.kill()
        proc.wait()
        conn.close()
        raise
    return proc, conn


def serve(conn, primed: List[Tuple[str, float]], setups: int, trace: bool) -> None:
    tracer = Tracer(id_base=SERVER_ID_BASE) if trace else None
    if tracer is not None:
        tracer.install_setup()
    setup_times = []
    handle = router = None
    try:
        for i in range(setups):
            if handle is not None:
                handle.drain()
                handle = router = None
            t0 = time.perf_counter()
            router = build_stack()
            prime(router, primed)
            handle = serve_in_background(router)
            setup_times.append(time.perf_counter() - t0)
        store = router.artifact_store.stats()
        conn.send(("ready", handle.address[1], setup_times))
        before = counters(router)
        while True:
            command = conn.recv()
            if command[0] == "trace":
                tracer.install_server()
                tracer.install_core()
                before = counters(router)
            elif command[0] == "stop":
                break
        document = handle.drain()
        handle = None
        after = counters(router)
        reply = {
            "document": document,
            "delta": {k: after[k] - before[k] for k in after},
            "store": {"hits": store.hits, "misses": store.misses},
            "peak_rss_mb": peak_rss_mb(),
            "spans": [],
        }
        if tracer is not None:
            tracer.uninstall()
            reply["spans"] = [span.as_tuple() for span in tracer.spans]
            reply["counts"] = dict(tracer.counts)
            reply["sums"] = dict(tracer.sums)
            reply["setups"] = setups
        conn.send(("stopped", reply))
    finally:
        if handle is not None:
            handle.drain()
        conn.close()


def main(argv=None) -> int:
    conn = Connection(int((argv or sys.argv[1:])[0]))
    primed, setups, trace = conn.recv()
    serve(conn, primed, setups, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
