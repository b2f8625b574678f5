"""The network front door: an asyncio TCP plan server.

Everything below this module already worked in-process — the versioned
wire codec, the bounded :class:`~repro.cloud.plan_cache.PlanCache`, the
coalescing :class:`~repro.cloud.dispatcher.PlanDispatcher` —
but nothing *listened*.  :class:`PlanServer` is the missing layer: a
socket endpoint speaking the wire protocol over length-prefixed frames
(:mod:`repro.cloud.framing`), built so that overload and garbage
degrade into typed, bounded failures rather than hangs:

* **Bounded admission with load shedding** — at most ``max_pending``
  plan requests are in flight; request number ``max_pending + 1`` is
  answered immediately with a typed ``busy`` error frame (surfaced
  client-side as :class:`~repro.errors.ServerOverloadError`, which
  feeds the resilient client's circuit breaker).  The server never
  queues unboundedly, so admitted-request latency stays bounded no
  matter the offered load.
* **Per-connection deadlines** — an idle read deadline reaps silent
  connections, a write deadline bounds slow consumers, and every
  admitted request carries a serving deadline through the dispatcher;
  expiry answers a retryable ``timeout`` error frame.
* **Malformed-frame containment** — a payload that fails the wire
  schema is answered with a ``protocol`` error frame and the connection
  lives on; broken *framing* (oversized/zero-length header, truncated
  stream) also gets the typed frame but then closes the connection,
  since stream framing cannot resynchronize.  One bad client never
  takes down the accept loop or other connections.
* **Health and stats kinds** — ``health_request`` answers liveness and
  drain state without touching the planner; ``stats_request`` returns
  the composed serving-stack document
  (:func:`repro.cloud.stats.compose_stats_document`) with a ``server``
  section added.
* **Graceful drain** — :meth:`PlanServer.drain` stops accepting, sheds
  not-yet-admitted requests with ``busy``, lets every admitted request
  finish and flush its response, then flushes the final stats document
  exactly once and closes what remains.

Synchronous callers (tests, benchmarks, the CLI) use
:func:`serve_in_background`, which runs the event loop in a daemon
thread and returns a :class:`ServerHandle` with the bound address and a
thread-safe :meth:`~ServerHandle.drain`.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.cloud import wire
from repro.cloud.dispatcher import PlanDispatcher
from repro.cloud.framing import DEFAULT_MAX_FRAME_BYTES, FrameAssembler, encode_frame
from repro.cloud.service import CloudPlannerService
from repro.cloud.stats import compose_stats_document
from repro.errors import (
    ConfigurationError,
    DispatchDeadlineError,
    InputValidationError,
    PlanningFailedError,
    WireProtocolError,
)

__all__ = ["PlanServer", "ServerHandle", "ServerStats", "serve_in_background"]


@dataclass
class ServerStats:
    """Operational counters of one plan server.

    Attributes:
        connections: Connections accepted.
        frames: Well-framed payloads received.
        plan_requests: Plan requests decoded (admitted or shed).
        served: Plan responses handed to the transport.  Counted before
            the frame is written, so a client holding its reply never
            reads a count that lags it; every other counter is likewise
            bumped before the frame that reports its event.
        planning_failures: Requests answered ``planning_failed``.
        busy_rejections: Requests shed with a ``busy`` frame (admission
            bound hit, or draining).
        drain_rejections: The subset of ``busy_rejections`` issued while
            draining.
        timeouts: Requests answered ``timeout`` (serving deadline).
        protocol_errors: Payloads answered with a ``protocol`` frame
            (schema violations and invalid requests).
        malformed_frames: The subset of protocol errors raised by the
            frame layer itself (bad header, truncated stream) — these
            also close the connection.
        internal_errors: Requests answered ``internal``.
        health_requests: Health probes answered.
        stats_requests: Stats probes answered.
        read_timeouts: Connections reaped by the idle read deadline.
        write_timeouts: Connections reaped by the write deadline.
        peak_in_flight: High-water mark of admitted concurrent requests.
    """

    connections: int = 0
    frames: int = 0
    plan_requests: int = 0
    served: int = 0
    planning_failures: int = 0
    busy_rejections: int = 0
    drain_rejections: int = 0
    timeouts: int = 0
    protocol_errors: int = 0
    malformed_frames: int = 0
    internal_errors: int = 0
    health_requests: int = 0
    stats_requests: int = 0
    read_timeouts: int = 0
    write_timeouts: int = 0
    peak_in_flight: int = 0


class PlanServer:
    """An asyncio TCP front door over a planning service.

    Args:
        service: The synchronous :class:`CloudPlannerService` to serve.
        host: Bind host (loopback by default).
        port: Bind port; 0 picks an ephemeral port (read
            :attr:`address` after :meth:`start`).
        dispatcher: The :class:`PlanDispatcher` that threads the
            service; built (and owned, i.e. shut down on drain) when
            ``None``.
        workers: Pool size for an owned dispatcher.
        max_pending: Admission bound — admitted-but-unfinished plan
            requests above this are shed with ``busy``.
        request_timeout_s: Serving deadline per admitted request; also
            the dispatcher deadline, so queued work expires typed.
        idle_timeout_s: Per-connection read deadline between frames.
        write_timeout_s: Per-response write (drain) deadline.
        max_frame_bytes: Frame-size cap enforced before allocation.
        stats_path: When set, the drain flushes the final stats
            document to this JSON file.
        name: Metrics namespace for :mod:`repro.obs` counters.
    """

    def __init__(
        self,
        service: CloudPlannerService,
        host: str = "127.0.0.1",
        port: int = 0,
        dispatcher: Optional[PlanDispatcher] = None,
        workers: int = 2,
        max_pending: int = 16,
        request_timeout_s: float = 30.0,
        idle_timeout_s: float = 30.0,
        write_timeout_s: float = 10.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        stats_path: Optional[str] = None,
        name: str = "cloud.server",
    ) -> None:
        if max_pending < 1:
            raise ConfigurationError(
                f"admission bound must be >= 1, got {max_pending}"
            )
        if request_timeout_s <= 0 or idle_timeout_s <= 0 or write_timeout_s <= 0:
            raise ConfigurationError("server deadlines must be positive")
        self.service = service
        self.host = host
        self.port = int(port)
        self.max_pending = int(max_pending)
        self.request_timeout_s = float(request_timeout_s)
        self.idle_timeout_s = float(idle_timeout_s)
        self.write_timeout_s = float(write_timeout_s)
        self.max_frame_bytes = int(max_frame_bytes)
        self.stats_path = stats_path
        self.name = name
        self._owns_dispatcher = dispatcher is None
        self.dispatcher = dispatcher or PlanDispatcher(
            service, workers=workers, name=f"{name}.dispatch"
        )
        self.stats = ServerStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._flushed = False
        self.final_stats: Optional[Dict[str, Any]] = None
        self._in_flight = 0
        self._idle: Optional[asyncio.Event] = None
        self._writers: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None or self._draining:
            raise ConfigurationError("server already started")
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        obs.get_registry().inc(f"{self.name}.started")

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return (self.host, self.port)

    @property
    def draining(self) -> bool:
        """Whether the graceful drain has begun."""
        return self._draining

    @property
    def in_flight(self) -> int:
        """Admitted-but-unfinished plan requests."""
        return self._in_flight

    async def drain(self, timeout_s: float = 30.0) -> Dict[str, Any]:
        """Graceful shutdown: shed new work, finish in-flight, flush once.

        Idempotent — a second drain returns the already-flushed stats
        document.  Sequence: stop accepting (new connects are refused at
        the socket), mark draining (plan requests arriving on live
        connections are shed with ``busy``), wait for every admitted
        request's response to be written, flush the final stats document
        exactly once, close remaining connections, and shut down an
        owned dispatcher.

        Returns:
            The final composed stats document.
        """
        if self._flushed:
            return self.final_stats
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            # The asyncio server holds our connection handler, and with it
            # this server: drop it, so a drained server and the service it
            # fronts are freed on the last reference, not at the next
            # cyclic collection.
            self._server = None
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout_s)
        except asyncio.TimeoutError:
            pass  # flush what we have; stragglers get their sockets closed
        document = self._flush_stats()
        for writer in list(self._writers):
            writer.close()
        if self._owns_dispatcher:
            self.dispatcher.shutdown(wait=False)
        obs.get_registry().inc(f"{self.name}.drained")
        return document

    def _flush_stats(self) -> Dict[str, Any]:
        """Compose and (once) persist the final stats document."""
        if self._flushed:
            return self.final_stats
        self._flushed = True
        document = self.stats_document()
        self.final_stats = document
        if self.stats_path:
            with open(self.stats_path, "w", encoding="utf-8") as fh:
                json.dump(document, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return document

    def stats_document(self) -> Dict[str, Any]:
        """The composed serving-stack document plus a ``server`` section."""
        document = compose_stats_document(
            service=self.service, dispatcher=self.dispatcher
        )
        document["server"] = {
            **self.stats.__dict__,
            "in_flight": self._in_flight,
            "max_pending": self.max_pending,
            "draining": self._draining,
        }
        return document

    def stats_snapshot(self) -> ServerStats:
        """A point-in-time copy of the counters.

        Consistent only on the event-loop thread, which bumps them; from
        other threads use :meth:`ServerHandle.stats_snapshot`.
        """
        return replace(self.stats)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _send(
        self, writer: asyncio.StreamWriter, payload: bytes, served: bool = False
    ) -> bool:
        """Write one frame under the write deadline; False closes the conn.

        ``served`` counts the frame as a served plan response once it is
        framed and before it reaches the transport: the write may put the
        bytes on the socket at once, and the peer may read them (and this
        server's stats) before the drain below returns.
        """
        frame = encode_frame(payload, self.max_frame_bytes)
        if served:
            self.stats.served += 1
            obs.get_registry().inc(f"{self.name}.served")
        try:
            writer.write(frame)
            await asyncio.wait_for(writer.drain(), timeout=self.write_timeout_s)
            return True
        except asyncio.TimeoutError:
            self.stats.write_timeouts += 1
            obs.get_registry().inc(f"{self.name}.write_timeouts")
            return False
        except (ConnectionError, OSError):
            return False

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        code: str,
        message: str,
        retryable: bool,
        vehicle_id: str = "",
        queue_depth: Optional[int] = None,
        capacity: Optional[int] = None,
    ) -> bool:
        return await self._send(
            writer,
            wire.encode_error(
                wire.ErrorFrame(
                    code=code,
                    message=message,
                    retryable=retryable,
                    vehicle_id=vehicle_id,
                    queue_depth=queue_depth,
                    capacity=capacity,
                ),
            ),
        )

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        registry = obs.get_registry()
        self.stats.connections += 1
        registry.inc(f"{self.name}.connections")
        self._writers.add(writer)
        peer = writer.get_extra_info("peername")
        assembler = FrameAssembler(
            max_frame_bytes=self.max_frame_bytes, what=f"connection {peer}"
        )
        try:
            while True:
                try:
                    chunk = await asyncio.wait_for(
                        reader.read(65536), timeout=self.idle_timeout_s
                    )
                except asyncio.TimeoutError:
                    self.stats.read_timeouts += 1
                    registry.inc(f"{self.name}.read_timeouts")
                    return
                except (ConnectionError, OSError):
                    return
                if not chunk:
                    # EOF.  A partial buffered frame is a truncation the
                    # peer will never complete; count it, then drop the
                    # connection (there is no one left to answer).
                    try:
                        assembler.finish()
                    except WireProtocolError:
                        self.stats.malformed_frames += 1
                        self.stats.protocol_errors += 1
                        registry.inc(f"{self.name}.malformed_frames")
                    return
                try:
                    frames = assembler.feed(chunk)
                except WireProtocolError as exc:
                    # Broken framing poisons the stream: answer typed,
                    # then close — resync is impossible.
                    self.stats.malformed_frames += 1
                    self.stats.protocol_errors += 1
                    registry.inc(f"{self.name}.malformed_frames")
                    await self._send_error(
                        writer, wire.ERROR_PROTOCOL, str(exc), retryable=False
                    )
                    return
                for payload in frames:
                    self.stats.frames += 1
                    if not await self._handle_frame(payload, writer, registry):
                        return
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _handle_frame(
        self,
        payload: bytes,
        writer: asyncio.StreamWriter,
        registry: obs.MetricsRegistry,
    ) -> bool:
        """Serve one well-framed payload; False tears down the connection."""
        try:
            kind, message, _ = wire.decode_message_versioned(payload)
        except WireProtocolError as exc:
            # Payload-level garbage is contained: typed answer, and the
            # connection (whose framing is intact) lives on.
            self.stats.protocol_errors += 1
            registry.inc(f"{self.name}.protocol_errors")
            return await self._send_error(
                writer, wire.ERROR_PROTOCOL, str(exc), retryable=False
            )
        if kind == wire.HEALTH_REQUEST_KIND:
            self.stats.health_requests += 1
            registry.inc(f"{self.name}.health_requests")
            status = wire.HEALTH_DRAINING if self._draining else wire.HEALTH_OK
            return await self._send(
                writer,
                wire.encode_health_response(
                    wire.HealthStatus(
                        status=status,
                        in_flight=self._in_flight,
                        capacity=self.max_pending,
                    ),
                ),
            )
        if kind == wire.STATS_REQUEST_KIND:
            self.stats.stats_requests += 1
            registry.inc(f"{self.name}.stats_requests")
            return await self._send(
                writer,
                wire.encode_stats_response(self.stats_document()),
            )
        if kind == wire.REQUEST_KIND:
            return await self._handle_plan_request(message, writer, registry)
        # A client pushing server->client kinds (responses, errors) is
        # off-protocol; answer typed and keep listening.
        self.stats.protocol_errors += 1
        registry.inc(f"{self.name}.protocol_errors")
        return await self._send_error(
            writer,
            wire.ERROR_PROTOCOL,
            f"unexpected {kind!r} message sent to a server",
            retryable=False,
        )

    async def _handle_plan_request(
        self,
        req,
        writer: asyncio.StreamWriter,
        registry: obs.MetricsRegistry,
    ) -> bool:
        self.stats.plan_requests += 1
        registry.inc(f"{self.name}.plan_requests")
        if self._draining or self._in_flight >= self.max_pending:
            self.stats.busy_rejections += 1
            registry.inc(f"{self.name}.busy_rejections")
            if self._draining:
                self.stats.drain_rejections += 1
                registry.inc(f"{self.name}.drain_rejections")
                detail = "server is draining"
            else:
                detail = (
                    f"admission queue full ({self._in_flight}/{self.max_pending})"
                )
            return await self._send_error(
                writer,
                wire.ERROR_BUSY,
                f"request for {req.vehicle_id!r} shed: {detail}",
                retryable=True,
                vehicle_id=req.vehicle_id,
                queue_depth=self._in_flight,
                capacity=self.max_pending,
            )
        self._in_flight += 1
        self.stats.peak_in_flight = max(self.stats.peak_in_flight, self._in_flight)
        self._idle.clear()
        try:
            future = self.dispatcher.submit(req, deadline_s=self.request_timeout_s)
            try:
                response = await asyncio.wait_for(
                    asyncio.wrap_future(future), timeout=self.request_timeout_s
                )
            except asyncio.TimeoutError:
                future.cancel()
                self.stats.timeouts += 1
                registry.inc(f"{self.name}.timeouts")
                return await self._send_error(
                    writer,
                    wire.ERROR_TIMEOUT,
                    f"request for {req.vehicle_id!r} missed the server's "
                    f"{self.request_timeout_s:.2f} s serving deadline",
                    retryable=True,
                    vehicle_id=req.vehicle_id,
                )
            except DispatchDeadlineError as exc:
                self.stats.timeouts += 1
                registry.inc(f"{self.name}.timeouts")
                return await self._send_error(
                    writer,
                    wire.ERROR_TIMEOUT,
                    str(exc),
                    retryable=True,
                    vehicle_id=req.vehicle_id,
                )
            except PlanningFailedError as exc:
                self.stats.planning_failures += 1
                registry.inc(f"{self.name}.planning_failures")
                return await self._send_error(
                    writer,
                    wire.ERROR_PLANNING_FAILED,
                    str(exc),
                    retryable=False,
                    vehicle_id=req.vehicle_id,
                )
            except InputValidationError as exc:
                # The request parsed but violated the service contract
                # (position beyond the route, say) — the client's fault.
                self.stats.protocol_errors += 1
                registry.inc(f"{self.name}.protocol_errors")
                return await self._send_error(
                    writer,
                    wire.ERROR_PROTOCOL,
                    str(exc),
                    retryable=False,
                    vehicle_id=req.vehicle_id,
                )
            except Exception as exc:  # noqa: BLE001 - contained per-request
                self.stats.internal_errors += 1
                registry.inc(f"{self.name}.internal_errors")
                return await self._send_error(
                    writer,
                    wire.ERROR_INTERNAL,
                    f"{type(exc).__name__}: {exc}",
                    retryable=False,
                    vehicle_id=req.vehicle_id,
                )
            return await self._send(
                writer, wire.encode_response(response), served=True
            )
        finally:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.set()


class ServerHandle:
    """Thread-safe handle to a :class:`PlanServer` running in a thread.

    Usable as a context manager; exiting drains the server.
    """

    def __init__(
        self, server: PlanServer, loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        # Orders snapshot copies before the drain's ``loop.stop``, so a
        # copy scheduled on the loop always runs.
        self._lock = threading.Lock()
        self._stopping = False

    @property
    def address(self) -> Tuple[str, int]:
        """The server's bound ``(host, port)``."""
        return self.server.address

    def stats_snapshot(self) -> ServerStats:
        """A copy of the server's counters in which no two disagree.

        The counters are bumped on the event-loop thread, so the copy is
        taken there.  Called on that thread, or once the drain has
        stopped the loop, it copies directly.
        """
        if threading.current_thread() is not self._thread:
            copied: "Future[ServerStats]" = Future()
            with self._lock:
                on_loop = not self._stopping and self._thread.is_alive()
                if on_loop:
                    self._loop.call_soon_threadsafe(
                        lambda: copied.set_result(self.server.stats_snapshot())
                    )
            if on_loop:
                return copied.result()
            # Stopping: once the loop thread exits, nothing bumps them.
            self._thread.join(timeout=10.0)
        return self.server.stats_snapshot()

    @property
    def final_stats(self) -> Optional[Dict[str, Any]]:
        """The flushed stats document (``None`` before the drain)."""
        return self.server.final_stats

    def drain(self, timeout_s: float = 30.0) -> Dict[str, Any]:
        """Run the graceful drain and stop the loop thread (idempotent)."""
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.drain(timeout_s=timeout_s), self._loop
            )
            document = future.result(timeout=timeout_s + 10.0)
            with self._lock:
                self._stopping = True
                self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            return document
        return self.server.final_stats

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()


def serve_in_background(service: CloudPlannerService, **kwargs) -> ServerHandle:
    """Start a :class:`PlanServer` on a daemon thread; returns its handle.

    The server is fully started (bound, accepting) when this returns, so
    ``handle.address`` is immediately connectable.  Any other keyword
    argument is passed through to :class:`PlanServer`.
    """
    started = threading.Event()
    holder: Dict[str, Any] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            server = PlanServer(service, **kwargs)
            loop.run_until_complete(server.start())
            holder["server"] = server
            holder["loop"] = loop
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            holder["error"] = exc
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="plan-server", daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise ConfigurationError("plan server failed to start within 30 s")
    if "error" in holder:
        raise holder["error"]
    return ServerHandle(holder["server"], holder["loop"], thread)
