"""Wire-level chaos: a seeded fault-injecting TCP proxy.

:class:`ChaosProxy` sits between :class:`~repro.cloud.netclient.
NetworkPlanTransport` and :class:`~repro.cloud.server.PlanServer` and
corrupts the stream *at frame granularity* — it reassembles frames with
the production :class:`~repro.cloud.framing.FrameAssembler` and then,
per frame, decides to drop it, delay it, truncate it mid-payload (and
kill the connection, as a real RST mid-send would), or duplicate it.

Chaos must be reproducible or it is noise.  Every decision is a pure
function of ``(seed, direction, connection index, frame index)`` through
:func:`~repro.resilience.faults.hash_uniform` — the same machinery the
in-process fault injector uses — so a failing chaos run replays
byte-for-byte from its seed, and CI can pin a fault schedule.

The proxy exists to prove two properties of the serving stack:

* **containment** — mangled bytes surface as typed errors
  (:class:`~repro.errors.WireProtocolError` server-side,
  :class:`~repro.errors.CloudUnavailableError` client-side), never as
  hangs or unhandled exceptions;
* **recovery** — behind a :class:`~repro.resilience.client.
  ResilientPlanClient` and a degradation ladder, a fleet drives through
  heavy wire faults to completion with zero guard violations.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass
from typing import List, Tuple

from repro import obs
from repro.cloud.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER_BYTES,
    FrameAssembler,
    encode_frame,
)
from repro.errors import ConfigurationError, WireProtocolError
from repro.resilience.faults import hash_uniform

__all__ = ["ChaosProxy", "NetFaultSpec", "ProxyStats"]

#: Frame pump directions (used in fault-draw keys and stats).
_CLIENT_TO_SERVER = "c2s"
_SERVER_TO_CLIENT = "s2c"


@dataclass(frozen=True)
class NetFaultSpec:
    """A seeded schedule of wire-level faults.

    Rates are per *frame*, not per byte, so a fault hits a whole
    protocol message — the unit the stack must contain.  Draws for the
    four fault kinds are independent; when several fire on one frame,
    precedence is drop > truncate > duplicate (delay composes with any
    survivor).

    Attributes:
        drop_rate: Probability a frame silently vanishes.
        delay_rate: Probability a frame is held for ``delay_s`` first.
        delay_s: Hold duration for delayed frames.
        truncate_rate: Probability a frame is cut mid-payload and the
            connection torn down (the classic reset-mid-send).
        duplicate_rate: Probability a frame is delivered twice.
        seed: Root of every draw; same seed → same fault schedule.
    """

    drop_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.05
    truncate_rate: float = 0.0
    duplicate_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "delay_rate", "truncate_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")
        if self.delay_s < 0:
            raise ConfigurationError(f"delay must be >= 0, got {self.delay_s}")

    @classmethod
    def uniform(cls, rate: float, seed: int = 0, delay_s: float = 0.02) -> "NetFaultSpec":
        """All four fault kinds at the same per-frame ``rate``."""
        return cls(
            drop_rate=rate,
            delay_rate=rate,
            delay_s=delay_s,
            truncate_rate=rate,
            duplicate_rate=rate,
            seed=seed,
        )

    def decide(self, direction: str, conn_idx: int, frame_idx: int) -> Tuple[str, bool]:
        """The fate of one frame: ``(action, delayed)``.

        ``action`` is ``"pass"``, ``"drop"``, ``"truncate"`` or
        ``"duplicate"``; ``delayed`` composes with pass/duplicate.
        Deterministic in the spec's seed and the frame's identity.
        """

        def draw(fault: str) -> float:
            return hash_uniform(self.seed, "net", direction, conn_idx, frame_idx, fault)

        if draw("drop") < self.drop_rate:
            return "drop", False
        delayed = draw("delay") < self.delay_rate and self.delay_s > 0
        if draw("truncate") < self.truncate_rate:
            return "truncate", delayed
        if draw("duplicate") < self.duplicate_rate:
            return "duplicate", delayed
        return "pass", delayed


@dataclass(frozen=True)
class ProxyStats:
    """Immutable view of what the proxy did to the stream.

    Each field is counted by the proxy's :class:`~repro.obs.Counters`
    and mirrored as ``netfaults.<field>``.
    """

    connections: int = 0
    frames: int = 0
    passed: int = 0
    dropped: int = 0
    delayed: int = 0
    truncated: int = 0
    duplicated: int = 0
    upstream_failures: int = 0

    @property
    def faults(self) -> int:
        """Frames that did not pass through untouched."""
        return self.dropped + self.delayed + self.truncated + self.duplicated


class ChaosProxy:
    """A threaded TCP proxy that injects seeded frame-level faults.

    Accepts on its own ephemeral port and pumps each connection to the
    upstream server through two frame-reassembling relay threads (one
    per direction).  Point a :class:`~repro.cloud.netclient.
    NetworkPlanTransport` at :attr:`address` instead of the server.

    Args:
        upstream: ``(host, port)`` of the real plan server.
        spec: The fault schedule.
        host: Interface to listen on.
        port: Listening port (0 → ephemeral).
        max_frame_bytes: Frame cap for the relay assemblers; match the
            server's so the proxy never rejects what the server accepts.
    """

    def __init__(
        self,
        upstream: Tuple[str, int],
        spec: NetFaultSpec,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.upstream = (upstream[0], int(upstream[1]))
        self.spec = spec
        self.max_frame_bytes = int(max_frame_bytes)
        self._counters = obs.Counters(
            "netfaults",
            (
                "connections", "frames", "passed", "dropped", "delayed",
                "truncated", "duplicated", "upstream_failures",
            ),
        )
        self._mutex = threading.Lock()
        self._closing = threading.Event()
        self._threads: List[threading.Thread] = []
        self._conn_count = 0
        self._listener = socket.create_server((host, int(port)), backlog=32)
        self._listener.settimeout(0.2)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting and wait for the relay threads to finish."""
        if self._closing.is_set():
            return
        self._closing.set()
        self._accept_thread.join(timeout=5.0)
        try:
            self._listener.close()
        except OSError:
            pass
        with self._mutex:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats_snapshot(self) -> ProxyStats:
        """The fault counts as of one instant."""
        return ProxyStats(**self._counters.snapshot())

    stats = property(stats_snapshot, doc="The counts as of now (read-only).")

    # ------------------------------------------------------------------
    # Relay machinery
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                client, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._mutex:
                conn_idx = self._conn_count
                self._conn_count += 1
            self._counters.inc("connections")
            try:
                server = socket.create_connection(self.upstream, timeout=5.0)
            except OSError:
                self._counters.inc("upstream_failures")
                client.close()
                continue
            # One shared teardown flag per connection: a truncation in
            # either direction must kill both pumps, like a real RST.
            dead = threading.Event()
            for direction, src, dst in (
                (_CLIENT_TO_SERVER, client, server),
                (_SERVER_TO_CLIENT, server, client),
            ):
                thread = threading.Thread(
                    target=self._pump,
                    args=(direction, conn_idx, src, dst, dead),
                    name=f"chaos-proxy-{direction}-{conn_idx}",
                    daemon=True,
                )
                with self._mutex:
                    self._threads.append(thread)
                thread.start()

    def _pump(
        self,
        direction: str,
        conn_idx: int,
        src: socket.socket,
        dst: socket.socket,
        dead: threading.Event,
    ) -> None:
        assembler = FrameAssembler(
            max_frame_bytes=self.max_frame_bytes,
            what=f"chaos relay {direction}#{conn_idx}",
        )
        frame_idx = 0
        try:
            # The mirror pump may already have torn the sockets down
            # (a truncation in the other direction) — that is a normal
            # exit, not an error.
            src.settimeout(0.2)
            while not dead.is_set() and not self._closing.is_set():
                try:
                    data = src.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    break
                try:
                    frames = assembler.feed(data)
                except WireProtocolError:
                    # The endpoint itself sent garbage framing — relay
                    # cannot resync; tear the connection down.
                    break
                for payload in frames:
                    if not self._relay_frame(
                        direction, conn_idx, frame_idx, payload, dst
                    ):
                        dead.set()
                        break
                    frame_idx += 1
        except OSError:
            pass
        finally:
            dead.set()
            for sock in (src, dst):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def _relay_frame(
        self,
        direction: str,
        conn_idx: int,
        frame_idx: int,
        payload: bytes,
        dst: socket.socket,
    ) -> bool:
        """Apply the seeded fate to one frame; False tears down."""
        action, delayed = self.spec.decide(direction, conn_idx, frame_idx)
        self._counters.inc("frames")
        if delayed:
            self._counters.inc("delayed")
            if self._closing.wait(self.spec.delay_s):
                return False
        if action == "drop":
            self._counters.inc("dropped")
            return True
        frame = encode_frame(payload, self.max_frame_bytes)
        if action == "truncate":
            self._counters.inc("truncated")
            # Half the payload after an intact header, then a hard stop
            # — the receiver must see "stream ended mid-frame".
            cut = HEADER_BYTES + max(1, len(payload) // 2)
            try:
                dst.sendall(frame[:cut])
            except OSError:
                pass
            return False
        copies = 2 if action == "duplicate" else 1
        self._counters.inc("duplicated" if action == "duplicate" else "passed")
        try:
            dst.sendall(frame * copies)
        except OSError:
            return False
        return True
