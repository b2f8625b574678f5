"""Socket transport for the plan-serving wire protocol.

:class:`NetworkPlanTransport` is the vehicle side of the front door: it
speaks length-prefixed wire frames to a :class:`~repro.cloud.server.
PlanServer` over TCP and presents the same synchronous ``request(req)``
surface as :class:`~repro.cloud.service.CloudPlannerService` — so it
drops straight into :class:`~repro.resilience.client.ResilientPlanClient`
(as its ``service``), the :class:`~repro.cloud.fleet.FleetStudy` (via
``via=``) and the degradation ladder behind them, no call-site changes.

Failure mapping is the whole point.  Every way the network can betray a
request becomes one of the typed errors the resilience stack already
understands:

* a ``busy`` error frame → :class:`~repro.errors.ServerOverloadError`
  (a :class:`~repro.errors.CloudUnavailableError`, so the client's
  retry/backoff/breaker machinery absorbs it);
* connect failures, socket timeouts, resets, EOF mid-frame, garbled or
  out-of-sync response bytes → :class:`CloudUnavailableError` with a
  typed ``reason`` (``connect``/``timeout``/``connection_reset``/
  ``protocol``/``desync``) — all retryable transport failures;
* a ``planning_failed`` error frame → :class:`~repro.errors.
  PlanningFailedError` (the wire worked; the problem is infeasible —
  this must *not* trip the breaker);
* a ``protocol`` or ``internal`` error frame →
  :class:`~repro.errors.WireProtocolError` (the server answered; our
  request was the defect — retrying identical bytes cannot help).

The transport keeps one connection open across requests (``persistent=
True``) and transparently reconnects after any failure; the connection
is a cache, never state the protocol depends on.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.cloud import wire
from repro.cloud.framing import DEFAULT_MAX_FRAME_BYTES, FrameAssembler
from repro.cloud.framing import encode_frame
from repro.cloud.messages import PlanRequest, PlanResponse
from repro.errors import (
    CloudUnavailableError,
    ConfigurationError,
    PlanningFailedError,
    ServerOverloadError,
    WireProtocolError,
)

__all__ = ["NetworkPlanTransport", "TransportStats"]


@dataclass
class TransportStats:
    """Operational counters of one network transport.

    Attributes:
        connects: Successful TCP connects (includes reconnects).
        requests: Plan requests sent.
        responses: Plan responses received.
        busy: ``busy`` frames received (shed by admission control).
        planning_failures: ``planning_failed`` frames received.
        protocol_rejections: ``protocol``/``internal`` frames received.
        timeouts: Socket-level receive timeouts.
        resets: Connects refused, resets, and mid-frame EOFs.
        desyncs: Responses that decoded but did not match the request.
        bytes_sent: Frame bytes written.
        bytes_received: Frame bytes read.
    """

    connects: int = 0
    requests: int = 0
    responses: int = 0
    busy: int = 0
    planning_failures: int = 0
    protocol_rejections: int = 0
    timeouts: int = 0
    resets: int = 0
    desyncs: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


class NetworkPlanTransport:
    """A synchronous TCP client for the plan server.

    Args:
        host: Server (or chaos-proxy) host.
        port: Server (or chaos-proxy) port.
        timeout_s: Socket deadline for connect, send and each receive.
        max_frame_bytes: Frame cap (must be >= the server's).
        persistent: Reuse one connection across requests; any failure
            closes it and the next call reconnects.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 10.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        persistent: bool = True,
    ) -> None:
        if timeout_s <= 0:
            raise ConfigurationError("transport timeout must be positive")
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self.max_frame_bytes = int(max_frame_bytes)
        self.persistent = bool(persistent)
        self.stats = TransportStats()
        self._sock: Optional[socket.socket] = None
        self._assembler: Optional[FrameAssembler] = None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
        except OSError as exc:
            self.stats.resets += 1
            obs.get_registry().inc("netclient.connect_failures")
            raise CloudUnavailableError(
                f"cannot connect to plan server at {self.host}:{self.port}: {exc}",
                reason="connect",
            ) from exc
        sock.settimeout(self.timeout_s)
        self._sock = sock
        self._assembler = FrameAssembler(
            max_frame_bytes=self.max_frame_bytes,
            what=f"server {self.host}:{self.port}",
        )
        self.stats.connects += 1
        obs.get_registry().inc("netclient.connects")
        return sock

    def close(self) -> None:
        """Drop the cached connection (the next request reconnects)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._assembler = None

    def __enter__(self) -> "NetworkPlanTransport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats_snapshot(self) -> TransportStats:
        """A point-in-time copy of the transport counters."""
        return replace(self.stats)

    # ------------------------------------------------------------------
    # Frame exchange
    # ------------------------------------------------------------------
    def _exchange(self, payload: bytes, vehicle_id: str = "") -> Tuple[str, Any]:
        """Send one frame, read one frame, decode it.

        Any socket-level failure closes the connection and raises the
        matching typed :class:`CloudUnavailableError`.
        """
        sock = self._connect()
        frame = encode_frame(payload, self.max_frame_bytes)
        try:
            sock.sendall(frame)
            self.stats.bytes_sent += len(frame)
            reply = self._read_frame(sock)
        except socket.timeout as exc:
            self.close()
            self.stats.timeouts += 1
            obs.get_registry().inc("netclient.timeouts")
            raise CloudUnavailableError(
                f"plan server at {self.host}:{self.port} did not answer within "
                f"{self.timeout_s:.1f} s",
                vehicle_id=vehicle_id,
                attempts=1,
                reason="timeout",
            ) from exc
        except OSError as exc:
            self.close()
            self.stats.resets += 1
            obs.get_registry().inc("netclient.resets")
            raise CloudUnavailableError(
                f"connection to plan server at {self.host}:{self.port} failed: {exc}",
                vehicle_id=vehicle_id,
                attempts=1,
                reason="connection_reset",
            ) from exc
        try:
            kind, message = wire.decode_message(reply)
        except WireProtocolError as exc:
            # The server's bytes were garbage (or a chaos proxy mangled
            # them): the connection can no longer be trusted — drop it
            # and report a retryable transport failure.
            self.close()
            self.stats.desyncs += 1
            obs.get_registry().inc("netclient.desyncs")
            raise CloudUnavailableError(
                f"undecodable reply from plan server: {exc}",
                vehicle_id=vehicle_id,
                attempts=1,
                reason="protocol",
            ) from exc
        finally:
            if not self.persistent:
                self.close()
        return kind, message

    def _read_frame(self, sock: socket.socket) -> bytes:
        """Read until one whole frame is assembled.

        Raises:
            ConnectionResetError: EOF before the frame completed (the
                typed truncation detail from
                :meth:`FrameAssembler.finish` is chained as the cause).
        """
        while True:
            data = sock.recv(65536)
            if not data:
                try:
                    self._assembler.finish()
                    raise ConnectionResetError("server closed the connection")
                except WireProtocolError as exc:
                    raise ConnectionResetError(
                        f"connection closed mid-frame: {exc}"
                    ) from exc
            self.stats.bytes_received += len(data)
            frames = self._assembler.feed(data)
            if frames:
                # One request is in flight per connection, so the first
                # completed frame is the answer; any extra frame (a
                # chaos duplicate) desynchronizes the stream.
                if len(frames) > 1:
                    raise ConnectionResetError(
                        f"{len(frames)} frames answered a single request"
                    )
                return frames[0]

    # ------------------------------------------------------------------
    # Service surface
    # ------------------------------------------------------------------
    def request(self, req: PlanRequest) -> PlanResponse:
        """Serve one plan request over the wire.

        Raises:
            ServerOverloadError: The server shed the request (BUSY).
            CloudUnavailableError: Transport-level failure (typed
                ``reason``); retryable.
            PlanningFailedError: The server answered: infeasible.
            WireProtocolError: The server answered: our request was
                invalid (not retryable).
        """
        registry = obs.get_registry()
        self.stats.requests += 1
        registry.inc("netclient.requests")
        kind, message = self._exchange(wire.encode_request(req), req.vehicle_id)
        if kind == wire.RESPONSE_KIND:
            if message.vehicle_id != req.vehicle_id:
                # A stale (duplicated or reordered) response: the stream
                # is out of sync — reconnect and let the caller retry.
                self.close()
                self.stats.desyncs += 1
                registry.inc("netclient.desyncs")
                raise CloudUnavailableError(
                    f"response for {message.vehicle_id!r} answered a request "
                    f"for {req.vehicle_id!r}",
                    vehicle_id=req.vehicle_id,
                    attempts=1,
                    reason="desync",
                )
            self.stats.responses += 1
            registry.inc("netclient.responses")
            return message
        if kind == wire.ERROR_KIND:
            return self._raise_error_frame(message, req)
        self.close()
        self.stats.desyncs += 1
        registry.inc("netclient.desyncs")
        raise CloudUnavailableError(
            f"unexpected {kind!r} reply to a plan request",
            vehicle_id=req.vehicle_id,
            attempts=1,
            reason="desync",
        )

    def _raise_error_frame(self, err: wire.ErrorFrame, req: PlanRequest):
        registry = obs.get_registry()
        if err.code == wire.ERROR_BUSY:
            self.stats.busy += 1
            registry.inc("netclient.busy")
            raise ServerOverloadError(
                err.message,
                vehicle_id=req.vehicle_id,
                queue_depth=err.queue_depth,
                capacity=err.capacity,
            )
        if err.code == wire.ERROR_TIMEOUT:
            self.stats.timeouts += 1
            registry.inc("netclient.server_timeouts")
            raise CloudUnavailableError(
                err.message, vehicle_id=req.vehicle_id, attempts=1, reason="timeout"
            )
        if err.code == wire.ERROR_PLANNING_FAILED:
            self.stats.planning_failures += 1
            registry.inc("netclient.planning_failures")
            raise PlanningFailedError(
                err.message, vehicle_id=req.vehicle_id, depart_s=req.depart_s
            )
        # protocol / internal: the server answered and judged our request
        # defective; identical retries cannot succeed.
        self.stats.protocol_rejections += 1
        registry.inc("netclient.protocol_rejections")
        raise WireProtocolError(err.message, source=f"server error ({err.code})")

    def health(self) -> wire.HealthStatus:
        """Probe the server's liveness and drain state."""
        kind, message = self._exchange(wire.encode_health_request())
        if kind != wire.HEALTH_RESPONSE_KIND:
            self.close()
            raise CloudUnavailableError(
                f"unexpected {kind!r} reply to a health probe", reason="desync"
            )
        return message

    def server_stats(self) -> Dict[str, Any]:
        """Fetch the server's composed stats document."""
        kind, message = self._exchange(wire.encode_stats_request())
        if kind != wire.STATS_RESPONSE_KIND:
            self.close()
            raise CloudUnavailableError(
                f"unexpected {kind!r} reply to a stats probe", reason="desync"
            )
        return message
