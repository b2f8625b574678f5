"""Every serving ``*Stats`` field reads the registry counter it mirrors.

One scripted stream runs under an enabled registry through the whole
serving stack: a :class:`ResilientPlanClient` over a
:class:`NetworkPlanTransport`, and a raw socket, into a plan server with
a two-worker dispatcher over a :class:`PlanRouter` on the built-in
catalog.  It holds cold, warm and budget-less requests on every
corridor, an unknown corridor, a minimum-time request, a mid-route
replan, an infeasible budget, health and stats probes, an undecodable
payload and an oversized frame header.  Then each field of each typed
view equals its ``<namespace>.<field>`` registry counter, or the sum the
view documents for it.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import fields

import pytest

from repro import obs
from repro.cloud.dispatcher import PlanDispatcher
from repro.cloud.framing import encode_frame
from repro.cloud.messages import PlanRequest
from repro.cloud.netclient import NetworkPlanTransport
from repro.cloud.registry import builtin_catalog
from repro.cloud.router import PlanRouter
from repro.cloud.server import serve_in_background
from repro.errors import PlanningFailedError, WireProtocolError
from repro.resilience.client import ResilientPlanClient

PERIOD_S = 60.0  # every built-in corridor's common signal period


def _drive(client, address, corridor_ids):
    for cid in corridor_ids:
        free = client.request(PlanRequest(f"{cid}-free", 30.0, corridor_id=cid))
        warm = client.request(
            PlanRequest(f"{cid}-free-warm", 30.0 + PERIOD_S, corridor_id=cid)
        )
        assert (free.cache_hit, warm.cache_hit) == (False, True)
        budget = round(free.trip_time_s) + 20.0
        cold = client.request(PlanRequest(f"{cid}-cold", 45.0, budget, corridor_id=cid))
        warm = client.request(
            PlanRequest(f"{cid}-warm", 45.0 + 2 * PERIOD_S, budget, corridor_id=cid)
        )
        assert (cold.cache_hit, warm.cache_hit) == (False, True)
    with pytest.raises(WireProtocolError):
        client.request(PlanRequest("lost", 30.0, corridor_id="route-66"))
    client.request(PlanRequest("fastest", 30.0, minimize="time"))
    client.request(PlanRequest("mid-route", 100.0, position_m=1000.0, speed_ms=10.0))
    with pytest.raises(PlanningFailedError):
        client.request(PlanRequest("too-late", 30.0, 30.0))
    client.service.health()
    client.service.server_stats()
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(encode_frame(b"{not json"))
        assert sock.recv(65536)  # a protocol frame; the connection lives on
        sock.sendall(struct.pack(">I", 2**31))
        while sock.recv(65536):  # a protocol frame, then the server closes
            pass


@pytest.fixture(scope="module")
def stack(coarse_config):
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        router = PlanRouter(builtin_catalog(config=coarse_config))
        dispatcher = PlanDispatcher(router, workers=2)
        handle = serve_in_background(router, dispatcher=dispatcher)
        client = ResilientPlanClient(NetworkPlanTransport(*handle.address))
        try:
            _drive(client, handle.address, router.catalog.ids())
        finally:
            client.service.close()
            handle.drain()
            dispatcher.shutdown()
    return registry, router, dispatcher, handle, client


def _counts(registry, namespace, *events):
    return [registry.counter_value(f"{namespace}.{event}") for event in events]


def _assert_mirrors(view, namespace, registry, derived=(), state=()):
    """Each field of ``view`` but ``state`` equals its counter or derivation."""
    derived = dict(derived)
    for field in fields(view):
        if field.name in state:
            continue
        want = derived.pop(field.name, None)
        if want is None:
            want = registry.counter_value(f"{namespace}.{field.name}")
        assert getattr(view, field.name) == want, f"{namespace}: {field.name}"
    assert not derived, f"derived fields missing from the view: {sorted(derived)}"


def test_server_view_mirrors_its_counters(stack):
    registry, _, _, handle, _ = stack
    protocol, malformed = _counts(
        registry, "cloud.server", "protocol_errors", "malformed_frames"
    )
    # Both halves of the derived field: two payload errors (the bad
    # payload, the unknown corridor) and one malformed frame (the
    # oversized header).
    assert (protocol, malformed) == (2, 1)
    _assert_mirrors(
        handle.stats_snapshot(),
        "cloud.server",
        registry,
        derived={"protocol_errors": protocol + malformed},
        state=("peak_in_flight",),
    )


def test_dispatcher_and_router_views_mirror_their_counters(stack):
    registry, router, dispatcher, _, _ = stack
    stats = dispatcher.stats()
    assert stats.submitted == stats.completed + stats.errors
    assert stats.leaders > 0
    _assert_mirrors(stats, "cloud.dispatch", registry, state=("workers",))
    routed = router.router_stats()
    assert routed.routed > 0 and routed.rejected == 1
    _assert_mirrors(
        routed,
        "cloud.router",
        registry,
        state=("corridors_registered", "corridors_built"),
    )


def test_each_corridor_service_cache_and_store_mirror_their_counters(stack):
    registry, router, _, _, _ = stack
    services = router.per_corridor_services()
    assert set(services) == set(router.catalog.ids())
    for service in services.values():
        stats = service.stats_snapshot()
        assert stats.requests == stats.cache_hits + stats.cache_misses + stats.errors
        assert stats.cache_hits > 0 and stats.total_compute_s > 0.0
        hits, misses = _counts(registry, service.name, "hits", "misses")
        _assert_mirrors(
            stats,
            service.name,
            registry,
            derived={"cache_hits": hits, "cache_misses": misses},
        )
        for cache in (service.plan_cache, service.min_time_cache, service.min_time_exact):
            _assert_mirrors(
                cache.stats(), cache.name, registry, state=("name", "size", "capacity")
            )
        store = service.artifact_store
        _assert_mirrors(store.stats(), store.name, registry, state=("size", "capacity"))
    assert _counts(registry, services["us25"].name, "replans", "uncached") == [1, 1]


def test_transport_and_client_views_mirror_their_counters(stack):
    registry, _, _, _, client = stack
    transport = client.service.stats_snapshot()
    assert transport.bytes_sent > 0 and transport.bytes_received > 0
    resets, refused, timeouts, timeout_frames = _counts(
        registry, "netclient", "resets", "connect_failures", "timeouts", "server_timeouts"
    )
    _assert_mirrors(
        transport,
        "netclient",
        registry,
        derived={"resets": resets + refused, "timeouts": timeouts + timeout_frames},
    )
    served, infeasible = _counts(registry, "resilience", "served", "infeasible")
    assert served > 0 and infeasible == 1
    _assert_mirrors(
        client.stats,
        "resilience",
        registry,
        derived={"served": served + infeasible},
        state=("breaker_state", "transitions"),
    )
