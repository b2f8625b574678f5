"""The TCP front door: admission, containment, deadlines, drain."""

import asyncio
import gc
import json
import socket
import struct
import threading
import weakref
from concurrent.futures import Future
from dataclasses import replace

import pytest

from repro.cloud import wire
from repro.cloud.framing import encode_frame
from repro.cloud.messages import PlanRequest, PlanResponse
from repro.cloud.netclient import NetworkPlanTransport
from repro.cloud.server import PlanServer, serve_in_background
from repro.cloud.service import CloudPlannerService
from repro.core.planner import QueueAwareDpPlanner
from repro.core.profile import VelocityProfile
from repro.errors import (
    CloudUnavailableError,
    ConfigurationError,
    PlanningFailedError,
    ServerOverloadError,
    WireProtocolError,
)
from repro.units import vehicles_per_hour_to_per_second

RATE = vehicles_per_hour_to_per_second(300.0)


def _profile(depart_s: float) -> VelocityProfile:
    return VelocityProfile(
        positions_m=[0.0, 100.0],
        speeds_ms=[10.0, 10.0],
        dwell_s=[0.0, 0.0],
        start_time_s=depart_s,
    )


class StubPlannerService:
    """A dispatcher-compatible service answering canned plans.

    ``gate`` (when set) blocks every request until released, letting
    tests hold work in flight; ``fail_ids`` answer
    :class:`PlanningFailedError` instead.
    """

    cache_enabled = False
    artifact_store = None

    def __init__(self):
        self.calls = 0
        self.gate = None
        self.entered = threading.Event()
        self.fail_ids = set()
        self._mutex = threading.Lock()

    def coalesce_key(self, req):
        # Unique per request: these tests want no coalescing.
        return (req.vehicle_id, req.depart_s, req.position_m)

    def request(self, req):
        with self._mutex:
            self.calls += 1
        if req.vehicle_id in self.fail_ids:
            raise PlanningFailedError(
                "infeasible", vehicle_id=req.vehicle_id, depart_s=req.depart_s
            )
        if self.gate is not None:
            self.entered.set()
            assert self.gate.wait(10.0), "test forgot to release the gate"
        return PlanResponse(
            vehicle_id=req.vehicle_id,
            profile=_profile(req.depart_s),
            energy_mah=123.0,
            trip_time_s=45.0,
            cache_hit=False,
            compute_time_s=0.001,
        )

    # stats_document() composition hooks
    def stats_snapshot(self):
        from repro.cloud.service import ServiceStats

        return ServiceStats()

    def cache_stats(self):
        from repro.cloud.plan_cache import CacheStats

        return CacheStats(), CacheStats(), CacheStats()


def _raw_exchange(address, payload: bytes, timeout=5.0) -> bytes:
    """One frame out, one frame back, over a fresh socket."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(encode_frame(payload))
        return _read_one_frame(sock)


def _read_one_frame(sock) -> bytes:
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        assert chunk, "connection closed before a frame arrived"
        header += chunk
    (size,) = struct.unpack(">I", header)
    body = b""
    while len(body) < size:
        chunk = sock.recv(size - len(body))
        assert chunk, "connection closed mid-frame"
        body += chunk
    return body


class TestValidation:
    def test_bad_parameters(self):
        service = StubPlannerService()
        with pytest.raises(ConfigurationError):
            PlanServer(service, max_pending=0)
        with pytest.raises(ConfigurationError):
            PlanServer(service, request_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            PlanServer(service, idle_timeout_s=-1.0)


class TestServing:
    def test_plan_roundtrip_and_counters(self):
        service = StubPlannerService()
        with serve_in_background(service) as handle:
            transport = NetworkPlanTransport(*handle.address)
            resp = transport.request(PlanRequest("ev0", depart_s=3.0))
            assert resp.vehicle_id == "ev0"
            assert resp.energy_mah == 123.0
            assert resp.profile.start_time_s == 3.0
            transport.close()
            # ``served`` is counted before the reply is handed to the
            # transport, so a client holding it reads the count at once.
            stats = handle.stats_snapshot()
            assert stats.plan_requests == 1
            assert stats.served == 1
            assert stats.busy_rejections == 0

    def test_served_never_lags_a_reply_the_client_holds(self):
        service = StubPlannerService()
        with serve_in_background(service) as handle:
            with NetworkPlanTransport(*handle.address) as transport:
                for i in range(250):
                    resp = transport.request(PlanRequest(f"ev{i}", depart_s=float(i)))
                    assert resp.vehicle_id == f"ev{i}"
                    # No sleep, no poll: the count is already there.
                    assert handle.stats_snapshot().served == i + 1

    def test_stats_snapshot_never_tears_across_a_loop_callback(self):
        """Two counters bumped in one loop callback are read together."""
        service = StubPlannerService()
        with serve_in_background(service) as handle:
            counters = handle.server._counters
            halfway, release = threading.Event(), threading.Event()

            def bump_two_counters():
                counters.inc("frames")
                halfway.set()
                assert release.wait(10.0)
                counters.inc("plan_requests")

            handle._loop.call_soon_threadsafe(bump_two_counters)
            assert halfway.wait(10.0)
            snaps = []
            reader = threading.Thread(
                target=lambda: snaps.append(handle.stats_snapshot())
            )
            reader.start()
            reader.join(timeout=0.2)  # an off-loop copy would be back by now
            release.set()
            reader.join(timeout=10.0)
            (snap,) = snaps
            assert (snap.frames, snap.plan_requests) == (1, 1)

    def test_stats_snapshot_copies_on_the_loop_thread_without_deadlock(self):
        service = StubPlannerService()
        handle = serve_in_background(service)
        copied_on = []
        server_copy = handle.server.stats_snapshot

        def recording_copy():
            copied_on.append(threading.current_thread())
            return server_copy()

        handle.server.stats_snapshot = recording_copy
        handle.stats_snapshot()
        assert copied_on == [handle._thread]
        # Called on the loop thread itself, it copies in place.
        from_loop = Future()
        handle._loop.call_soon_threadsafe(
            lambda: from_loop.set_result(handle.stats_snapshot())
        )
        assert from_loop.result(timeout=10.0).served == 0
        handle.drain()
        assert handle.stats_snapshot().served == 0  # after the drain, too

    def test_health_and_stats_kinds(self):
        service = StubPlannerService()
        with serve_in_background(service, max_pending=7) as handle:
            transport = NetworkPlanTransport(*handle.address)
            health = transport.health()
            assert health.status == wire.HEALTH_OK
            assert not health.draining
            assert health.capacity == 7
            document = transport.server_stats()
            assert document["schema"] == "repro.cloud.stats/v3"
            assert document["server"]["health_requests"] == 1
            assert document["server"]["max_pending"] == 7
            transport.close()

    def test_planning_failure_is_typed_not_fatal(self):
        service = StubPlannerService()
        service.fail_ids.add("doomed")
        with serve_in_background(service) as handle:
            transport = NetworkPlanTransport(*handle.address)
            with pytest.raises(PlanningFailedError):
                transport.request(PlanRequest("doomed", depart_s=0.0))
            # Same connection still serves the next vehicle.
            resp = transport.request(PlanRequest("fine", depart_s=0.0))
            assert resp.vehicle_id == "fine"
            transport.close()
            assert handle.stats_snapshot().planning_failures == 1


class TestContainment:
    def test_garbage_payload_answers_typed_and_connection_survives(self):
        service = StubPlannerService()
        with serve_in_background(service) as handle:
            with socket.create_connection(handle.address, timeout=5.0) as sock:
                sock.sendall(encode_frame(b"this is not json"))
                err = wire.decode_message(_read_one_frame(sock))
                assert err[0] == wire.ERROR_KIND
                assert err[1].code == wire.ERROR_PROTOCOL
                assert err[1].retryable is False
                # The framing was intact, so the connection lives on.
                sock.sendall(
                    encode_frame(wire.encode_request(PlanRequest("ev1", depart_s=0.0)))
                )
                kind, resp = wire.decode_message(_read_one_frame(sock))
                assert kind == wire.RESPONSE_KIND
                assert resp.vehicle_id == "ev1"
            stats = handle.stats_snapshot()
            assert stats.protocol_errors == 1
            assert stats.malformed_frames == 0

    def test_out_of_range_number_answers_typed_and_connection_survives(self):
        service = StubPlannerService()
        text = wire.encode_request(PlanRequest("ev1", depart_s=10.0)).decode("ascii")
        huge = text.replace('"depart_s":10.0', '"depart_s":' + "9" * 400)
        assert huge != text
        with serve_in_background(service) as handle:
            with socket.create_connection(handle.address, timeout=5.0) as sock:
                sock.sendall(encode_frame(huge.encode("ascii")))
                kind, err = wire.decode_message(_read_one_frame(sock))
                assert kind == wire.ERROR_KIND
                assert err.code == wire.ERROR_PROTOCOL
                assert "depart_s" in err.message
                sock.sendall(encode_frame(text.encode("ascii")))
                kind, resp = wire.decode_message(_read_one_frame(sock))
                assert kind == wire.RESPONSE_KIND
                assert resp.vehicle_id == "ev1"
            stats = handle.stats_snapshot()
            assert stats.protocol_errors == 1
            assert stats.served == 1
        assert service.calls == 1

    def test_broken_framing_answers_typed_then_closes(self):
        service = StubPlannerService()
        with serve_in_background(service, max_frame_bytes=1024) as handle:
            with socket.create_connection(handle.address, timeout=5.0) as sock:
                sock.sendall(struct.pack(">I", 0xFFFFFFFF))  # hostile header
                err = wire.decode_message(_read_one_frame(sock))
                assert err[1].code == wire.ERROR_PROTOCOL
                assert sock.recv(1) == b""  # server closed the stream
            # One bad client never takes down the accept loop.
            transport = NetworkPlanTransport(*handle.address)
            assert transport.request(PlanRequest("ev2", depart_s=0.0)).vehicle_id == "ev2"
            transport.close()
            stats = handle.stats_snapshot()
            assert stats.malformed_frames == 1

    def test_truncated_stream_counted_on_eof(self):
        service = StubPlannerService()
        with serve_in_background(service) as handle:
            sock = socket.create_connection(handle.address, timeout=5.0)
            sock.sendall(struct.pack(">I", 100) + b"only-part")
            sock.close()  # EOF mid-frame
            deadline = threading.Event()
            for _ in range(50):
                if handle.stats_snapshot().malformed_frames:
                    break
                deadline.wait(0.1)
            assert handle.stats_snapshot().malformed_frames == 1

    def test_client_pushing_server_kinds_is_off_protocol(self):
        service = StubPlannerService()
        with serve_in_background(service) as handle:
            payload = wire.encode_health_response(
                wire.HealthStatus(status="ok", in_flight=0, capacity=1)
            )
            kind, err = wire.decode_message(_raw_exchange(handle.address, payload))
            assert kind == wire.ERROR_KIND
            assert err.code == wire.ERROR_PROTOCOL


class TestAdmissionControl:
    def test_overload_sheds_typed_busy(self):
        service = StubPlannerService()
        service.gate = threading.Event()
        with serve_in_background(service, max_pending=1, workers=2) as handle:
            blocker = NetworkPlanTransport(*handle.address)
            holder = {}

            def occupy():
                try:
                    holder["resp"] = blocker.request(PlanRequest("slow", depart_s=0.0))
                except Exception as exc:  # pragma: no cover - failure detail
                    holder["err"] = exc

            thread = threading.Thread(target=occupy)
            thread.start()
            assert service.entered.wait(5.0)
            # The admission slot is held: the next request is shed.
            shed = NetworkPlanTransport(*handle.address)
            with pytest.raises(ServerOverloadError) as excinfo:
                shed.request(PlanRequest("extra", depart_s=1.0))
            assert excinfo.value.reason == "busy"
            assert excinfo.value.capacity == 1
            assert excinfo.value.queue_depth == 1
            shed.close()
            service.gate.set()
            thread.join(timeout=5.0)
            assert holder["resp"].vehicle_id == "slow"
            blocker.close()
            stats = handle.stats_snapshot()
            assert stats.busy_rejections == 1
            assert stats.drain_rejections == 0
            assert stats.peak_in_flight == 1

    def test_busy_feeds_the_circuit_breaker(self):
        from repro.resilience.client import BREAKER_OPEN, ResilientPlanClient

        service = StubPlannerService()
        service.gate = threading.Event()
        with serve_in_background(service, max_pending=1, workers=2) as handle:
            blocker = NetworkPlanTransport(*handle.address)
            thread = threading.Thread(
                target=lambda: blocker.request(PlanRequest("slow", depart_s=0.0))
            )
            thread.start()
            assert service.entered.wait(5.0)
            transport = NetworkPlanTransport(*handle.address)
            client = ResilientPlanClient(
                transport, max_attempts=2, breaker_threshold=1, deadline_s=60.0
            )
            with pytest.raises(CloudUnavailableError) as excinfo:
                client.request(PlanRequest("ev", depart_s=0.0), now_s=0.0)
            assert excinfo.value.reason == "busy"
            assert client.stats.busy_rejections == 2  # both attempts shed
            assert client.stats.breaker_state == BREAKER_OPEN
            transport.close()
            service.gate.set()
            thread.join(timeout=5.0)
            blocker.close()


class TestGracefulDrain:
    def test_drain_protocol(self, tmp_path):
        """In-flight completes; drain-time requests get BUSY; new
        connects are refused; the stats document flushes exactly once."""
        stats_path = tmp_path / "server_stats.json"
        service = StubPlannerService()
        service.gate = threading.Event()
        handle = serve_in_background(
            service, max_pending=4, workers=2, stats_path=str(stats_path)
        )
        address = handle.address

        # Hold one admitted request in flight inside the planner.
        in_flight = NetworkPlanTransport(*address)
        holder = {}

        def occupy():
            try:
                holder["resp"] = in_flight.request(PlanRequest("held", depart_s=0.0))
            except Exception as exc:  # pragma: no cover - failure detail
                holder["err"] = exc

        occupier = threading.Thread(target=occupy)
        occupier.start()
        assert service.entered.wait(5.0)

        # A second, live connection opened BEFORE the drain begins.
        survivor = NetworkPlanTransport(*address)
        assert survivor.health().status == wire.HEALTH_OK

        # Start the drain concurrently; it must wait for the held plan.
        drainer = threading.Thread(target=lambda: holder.update(doc=handle.drain()))
        drainer.start()
        for _ in range(100):
            if handle.server.draining:
                break
            threading.Event().wait(0.05)
        assert handle.server.draining

        # 1. Queued-but-unadmitted work is shed with a typed BUSY.
        with pytest.raises(ServerOverloadError):
            survivor.request(PlanRequest("late", depart_s=1.0))
        # Health on the live connection reports the drain.
        assert survivor.health().status == wire.HEALTH_DRAINING

        # 2. New connects are refused (the listener is closed).
        fresh = NetworkPlanTransport(*address, timeout_s=1.0)
        with pytest.raises(CloudUnavailableError):
            fresh.request(PlanRequest("new", depart_s=2.0))

        # 3. The in-flight request completes and its response is written.
        service.gate.set()
        occupier.join(timeout=10.0)
        assert holder.get("resp") is not None, holder.get("err")
        assert holder["resp"].vehicle_id == "held"

        drainer.join(timeout=10.0)
        document = holder["doc"]
        assert document["server"]["served"] == 1
        assert document["server"]["drain_rejections"] == 1

        # 4. The stats document flushed exactly once, to the file too.
        on_disk = json.loads(stats_path.read_text())
        assert on_disk["server"]["served"] == 1
        first_flush = handle.final_stats
        assert handle.drain() is first_flush  # idempotent: same document
        assert json.loads(stats_path.read_text()) == on_disk

        in_flight.close()
        survivor.close()

    def test_context_manager_drains(self):
        service = StubPlannerService()
        with serve_in_background(service) as handle:
            transport = NetworkPlanTransport(*handle.address)
            transport.request(PlanRequest("ev", depart_s=0.0))
            transport.close()
        assert handle.final_stats is not None
        assert handle.final_stats["server"]["served"] == 1


    def test_drain_ends_idle_connection_handlers(self):
        """Regression: the drain closed its writers but did not await the
        connection handlers, so a handler parked in its idle read was
        still pending when the drain returned, and was destroyed with the
        loop without running its ``finally``."""

        async def scenario():
            server = PlanServer(StubPlannerService())
            await server.start()
            _, writer = await asyncio.open_connection(*server.address)
            for _ in range(500):
                if server.stats.connections:
                    break
                await asyncio.sleep(0.01)
            await server.drain(timeout_s=5.0)
            pending = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
            writer.close()
            return server.stats.connections, pending

        connections, pending = asyncio.run(scenario())
        assert connections == 1
        assert pending == []

    def test_drained_server_is_freed_without_the_cycle_collector(self):
        """Regression: the asyncio server kept a reference to the plan
        server's connection handler, so a drained server — and the
        service, router and corridor artifacts behind it — lived until
        the next cyclic collection, however long the caller had dropped
        it."""
        service = StubPlannerService()
        gc.disable()
        try:
            handle = serve_in_background(service)
            handle.drain()
            server = weakref.ref(handle.server)
            del handle
            assert server() is None
        finally:
            gc.enable()


class CachedStubService(StubPlannerService):
    """A stub whose every plan request is a warm hit answered on the loop."""

    def request_cached(self, req):
        return self.request(req)


async def _read_frame(reader) -> bytes:
    (size,) = struct.unpack(">I", await reader.readexactly(4))
    return await reader.readexactly(size)


class TestIdleDeadline:
    @pytest.mark.parametrize(
        "sent", [b"", struct.pack(">I", 100) + b"only-part"], ids=["silent", "partial-frame"]
    )
    def test_idle_connection_is_closed_and_counted_once(self, sent):
        """A connection that sends nothing more is reaped once.  A frame
        it had begun is cut off by the reap: a read timeout, not a
        malformed frame."""

        async def scenario():
            server = PlanServer(StubPlannerService(), idle_timeout_s=0.2)
            await server.start()
            loop = asyncio.get_running_loop()
            opened = loop.time()  # before the server's first read can begin
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(sent)
            assert await asyncio.wait_for(reader.read(1), timeout=10.0) == b""
            waited = loop.time() - opened
            # The reaped handler is gone, so nothing can count it again.
            await asyncio.sleep(0.5)
            stats = replace(server.stats)
            writer.close()
            await server.drain(timeout_s=5.0)
            return waited, stats

        waited, stats = asyncio.run(scenario())
        assert waited >= 0.2
        assert stats.connections == 1
        assert stats.read_timeouts == 1
        assert stats.malformed_frames == 0
        assert stats.protocol_errors == 0

    def test_probing_connection_outlives_several_deadlines(self):
        """Each frame restarts the deadline: probes every third of it keep
        one connection alive for several deadlines."""
        deadline_s = 0.9

        async def scenario():
            server = PlanServer(StubPlannerService(), idle_timeout_s=deadline_s)
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)
            loop = asyncio.get_running_loop()
            opened = loop.time()
            probes = 0
            while loop.time() - opened < 3.5 * deadline_s:
                await asyncio.sleep(deadline_s / 3)
                writer.write(encode_frame(wire.encode_health_request()))
                kind, _ = wire.decode_message(await _read_frame(reader))
                assert kind == wire.HEALTH_RESPONSE_KIND
                probes += 1
            stats = replace(server.stats)
            writer.close()
            await server.drain(timeout_s=5.0)
            return probes, stats

        probes, stats = asyncio.run(scenario())
        assert probes >= 10
        assert stats.connections == 1
        assert stats.health_requests == probes
        assert stats.read_timeouts == 0

    def test_hits_on_one_connection_create_no_task_per_frame(self):
        """Regression: each read ran under ``asyncio.wait_for``, which
        creates a task (with a timer and a future) for every frame."""
        n_hits = 200

        async def scenario():
            loop = asyncio.get_running_loop()
            server = PlanServer(CachedStubService())
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)

            async def hit(i):
                writer.write(encode_frame(wire.encode_request(
                    PlanRequest(f"ev{i}", depart_s=float(i))
                )))
                kind, resp = wire.decode_message(await _read_frame(reader))
                assert kind == wire.RESPONSE_KIND and resp.vehicle_id == f"ev{i}"

            await hit(n_hits)  # the connection and its handler exist from here on
            created = []

            def counting_factory(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(counting_factory)
            try:
                for i in range(n_hits):
                    await hit(i)
            finally:
                loop.set_task_factory(None)
            stats = replace(server.stats)
            writer.close()
            await server.drain(timeout_s=5.0)
            return len(created), stats

        tasks, stats = asyncio.run(scenario())
        assert stats.served == n_hits + 1
        assert tasks == 0


class TestWireIdentity:
    """Over-the-wire serving is bit-identical to in-process serving."""

    def test_responses_bit_identical_to_in_process(self, us25, coarse_config):
        def build():
            planner = QueueAwareDpPlanner(us25, arrival_rates=RATE, config=coarse_config)
            return CloudPlannerService(planner)

        requests = [
            PlanRequest(f"ev{i}", depart_s=float(7 * i % 40), max_trip_time_s=320.0)
            for i in range(6)
        ]
        in_process = build()
        expected = [in_process.request(req) for req in requests]

        served_service = build()
        with serve_in_background(served_service) as handle:
            transport = NetworkPlanTransport(*handle.address, timeout_s=60.0)
            got = [transport.request(req) for req in requests]
            transport.close()

        for want, have in zip(expected, got):
            assert have.vehicle_id == want.vehicle_id
            assert have.energy_mah == want.energy_mah
            assert have.trip_time_s == want.trip_time_s
            assert have.cache_hit == want.cache_hit
            assert list(have.profile.positions_m) == list(want.profile.positions_m)
            assert list(have.profile.speeds_ms) == list(want.profile.speeds_ms)
            assert list(have.profile.dwell_s) == list(want.profile.dwell_s)
            assert have.profile.start_time_s == want.profile.start_time_s


class TestCorridorServing:
    """Sharded serving behind the front door; v1 frames are refused."""

    def _routed_stack(self, coarse_config):
        from repro.cloud.registry import builtin_catalog
        from repro.cloud.router import PlanRouter

        return PlanRouter(builtin_catalog(config=coarse_config))

    def test_v1_frame_refused_typed_and_connection_serves_v2(self):
        service = StubPlannerService()
        v2 = wire.request_to_dict(PlanRequest("ev1", depart_s=10.0))
        v1 = dict(v2, wire_version=1)
        del v1["corridor_id"]
        with serve_in_background(service) as handle:
            with socket.create_connection(handle.address, timeout=5.0) as sock:
                sock.sendall(encode_frame(json.dumps(v1).encode("ascii")))
                kind, err = wire.decode_message(_read_one_frame(sock))
                assert kind == wire.ERROR_KIND
                assert err.code == wire.ERROR_PROTOCOL
                assert err.retryable is False
                assert "wire_version" in err.message
                # The same connection then serves a v2 request.
                sock.sendall(encode_frame(json.dumps(v2).encode("ascii")))
                kind, resp = wire.decode_message(_read_one_frame(sock))
                assert kind == wire.RESPONSE_KIND
                assert resp.vehicle_id == "ev1"
            stats = handle.stats_snapshot()
        assert stats.protocol_errors == 1
        assert stats.served == 1
        assert service.calls == 1

    def test_v2_clients_address_corridors_through_one_server(
        self, coarse_config
    ):
        router = self._routed_stack(coarse_config)
        with serve_in_background(router) as handle:
            transport = NetworkPlanTransport(handle.address[0], handle.address[1])
            with transport:
                a = transport.request(
                    PlanRequest(
                        vehicle_id="a", depart_s=30.0, corridor_id="elm-street"
                    )
                )
                b = transport.request(
                    PlanRequest(
                        vehicle_id="b", depart_s=30.0, corridor_id="airport-loop"
                    )
                )
            document = handle.drain()
        assert a.corridor_id == "elm-street"
        assert b.corridor_id == "airport-loop"
        assert a.energy_mah != b.energy_mah
        assert document["router"]["routed"] == 2
        assert set(document["corridors"]) == {"elm-street", "airport-loop"}

    def test_unknown_corridor_is_a_typed_wire_rejection(self, coarse_config):
        router = self._routed_stack(coarse_config)
        with serve_in_background(router) as handle:
            transport = NetworkPlanTransport(handle.address[0], handle.address[1])
            with transport:
                with pytest.raises(WireProtocolError) as excinfo:
                    transport.request(
                        PlanRequest(
                            vehicle_id="x", depart_s=30.0, corridor_id="route-66"
                        )
                    )
                # The connection survives the rejection.
                ok = transport.request(
                    PlanRequest(vehicle_id="y", depart_s=30.0)
                )
            stats = handle.stats_snapshot()
        assert "route-66" in str(excinfo.value)
        assert ok.corridor_id == "us25"
        assert stats.protocol_errors == 1
        assert stats.served == 1
