"""Wire layer: a versioned, schema-checked codec for the serving stack.

The deployment model of [6, 7] has vehicles exchanging plan requests and
velocity profiles with the cloud over wireless — which means a real
serialization boundary, not in-process object passing.  This module is
that boundary: :class:`~repro.cloud.messages.PlanRequest`,
:class:`~repro.cloud.messages.PlanResponse` and
:class:`~repro.core.profile.VelocityProfile` convert to plain dicts and
to canonical JSON bytes, and back, **bit-exactly**:

* floats are emitted with Python's shortest-repr rendering, which
  round-trips every finite IEEE-754 double exactly (including ``-0.0``);
* NaN/inf are rejected at encode time (``allow_nan=False``) and the
  decoder refuses the ``NaN``/``Infinity`` JSON extensions, so
  non-finite values can never cross the wire in either direction;
* dict keys are sorted and separators minimal, so equal messages encode
  to equal bytes (safe to hash, dedupe, or diff);
* profile arrays are validated whole — one type screen, one conversion
  to a float64 array, one finiteness check — and only an array that
  fails falls back to the element-by-element check, which names the
  rejected element (``field="speeds_ms[3]"``).  Numbers too large for a
  double (a 400-digit integer literal) are rejected as typed errors
  like any other non-finite value.

Every payload carries ``wire_version`` (:data:`WIRE_VERSION`) and a
``kind`` tag.  Decoding is strict: broken JSON, an unknown version, a
wrong kind, missing or unknown keys, and mistyped fields all raise the
typed :class:`~repro.errors.WireProtocolError` (a
:class:`~repro.errors.InputValidationError`, so the guard layer's
handlers apply unchanged).  Payloads that parse but violate the request
contract (negative departure, unknown objective, …) are re-raised as
:class:`WireProtocolError` too — the wire is one boundary with one
error type.

Version policy: ``wire_version`` is bumped only for **incompatible**
schema changes (a removed/renamed key, a semantic change to an existing
key).  The decoder accepts exactly the version it implements and
rejects everything else loudly — there is no silent best-effort parsing
of foreign versions.  Version 2 added ``corridor_id`` to plan requests
and responses (the routing key of the sharded serving stack); a
version-1 payload is refused like any other unknown version, with a
typed error naming ``wire_version``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.profile import VelocityProfile
from repro.cloud.messages import PlanRequest, PlanResponse
from repro.errors import ConfigurationError, WireProtocolError

__all__ = [
    "WIRE_VERSION",
    "ERROR_BUSY",
    "ERROR_INTERNAL",
    "ERROR_PLANNING_FAILED",
    "ERROR_PROTOCOL",
    "ERROR_TIMEOUT",
    "ErrorFrame",
    "HealthStatus",
    "decode_message",
    "decode_message_versioned",
    "decode_request",
    "decode_response",
    "encode_error",
    "encode_health_request",
    "encode_health_response",
    "encode_request",
    "encode_response",
    "encode_stats_request",
    "encode_stats_response",
    "profile_from_dict",
    "profile_to_dict",
    "request_from_dict",
    "request_to_dict",
    "response_from_dict",
    "response_to_dict",
    "roundtrip_request",
    "roundtrip_response",
]

#: The wire schema version, the only one this codec speaks; see the module
#: docstring for the bump policy.
WIRE_VERSION = 2

#: ``kind`` tags distinguishing the message types on the wire.
REQUEST_KIND = "plan_request"
RESPONSE_KIND = "plan_response"
ERROR_KIND = "error"
HEALTH_REQUEST_KIND = "health_request"
HEALTH_RESPONSE_KIND = "health_response"
STATS_REQUEST_KIND = "stats_request"
STATS_RESPONSE_KIND = "stats_response"

#: Error-frame codes.  ``retryable`` travels alongside the code so a
#: client does not need a table of which failures are transient.
ERROR_BUSY = "busy"                       # shed by admission control
ERROR_PLANNING_FAILED = "planning_failed"  # served, but infeasible
ERROR_PROTOCOL = "protocol"               # the peer's bytes were invalid
ERROR_TIMEOUT = "timeout"                 # server-side deadline expired
ERROR_INTERNAL = "internal"               # unexpected server failure
_ERROR_CODES = (
    ERROR_BUSY, ERROR_PLANNING_FAILED, ERROR_PROTOCOL, ERROR_TIMEOUT,
    ERROR_INTERNAL,
)

#: Health statuses a server reports.
HEALTH_OK = "ok"
HEALTH_DRAINING = "draining"

_REQUEST_KEYS = {
    "wire_version", "kind", "vehicle_id", "depart_s", "max_trip_time_s",
    "position_m", "speed_ms", "minimize", "corridor_id",
}
_RESPONSE_KEYS = {
    "wire_version", "kind", "vehicle_id", "profile", "energy_mah",
    "trip_time_s", "cache_hit", "compute_time_s", "corridor_id",
}
_PROFILE_KEYS = {"positions_m", "speeds_ms", "dwell_s", "start_time_s"}
_ERROR_KEYS = {
    "wire_version", "kind", "code", "message", "retryable", "vehicle_id",
    "queue_depth", "capacity",
}
_HEALTH_REQUEST_KEYS = {"wire_version", "kind"}
_HEALTH_RESPONSE_KEYS = {"wire_version", "kind", "status", "in_flight", "capacity"}
_STATS_REQUEST_KEYS = {"wire_version", "kind"}
_STATS_RESPONSE_KEYS = {"wire_version", "kind", "document"}


# ----------------------------------------------------------------------
# Schema checking helpers
# ----------------------------------------------------------------------
def _reject_nonfinite_token(token: str) -> None:
    """``parse_constant`` hook: refuse the NaN/Infinity JSON extensions."""
    raise WireProtocolError(f"non-finite JSON constant {token!r} is not allowed")


def _require_mapping(payload: Any, what: str) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise WireProtocolError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _check_keys(payload: Dict[str, Any], expected: set, what: str) -> None:
    missing = expected - payload.keys()
    if missing:
        raise WireProtocolError(
            f"{what} is missing key(s) {sorted(missing)}", field=sorted(missing)[0]
        )
    unknown = payload.keys() - expected
    if unknown:
        raise WireProtocolError(
            f"{what} carries unknown key(s) {sorted(unknown)}", field=sorted(unknown)[0]
        )


def _check_version(payload: Dict[str, Any], what: str) -> None:
    version = payload.get("wire_version")
    if version != WIRE_VERSION:
        raise WireProtocolError(
            f"{what} has wire_version {version!r}; this decoder speaks "
            f"version {WIRE_VERSION} only",
            field="wire_version",
            version=version,
        )


def _check_version_and_kind(payload: Dict[str, Any], kind: str, what: str) -> None:
    _check_version(payload, what)
    if payload.get("kind") != kind:
        raise WireProtocolError(
            f"{what} has kind {payload.get('kind')!r}, expected {kind!r}",
            field="kind",
        )


def _finite_float(value: Any, field: str, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireProtocolError(
            f"{what}.{field} must be a number, got {type(value).__name__}",
            field=field,
        )
    try:
        value = float(value)
    except OverflowError:
        # JSON integer literals are unbounded; past ~1.8e308 no double holds them.
        raise WireProtocolError(
            f"{what}.{field} must be finite, got an integer beyond the float range",
            field=field,
        ) from None
    if not math.isfinite(value):
        raise WireProtocolError(f"{what}.{field} must be finite, got {value!r}", field=field)
    return value


#: Element types the array screen passes; ``bool`` is its own type, so
#: ``true``/``false`` fall through to the element check and are refused.
_JSON_NUMBER_TYPES = frozenset((float, int))


def _float_array(value: Any, field: str, what: str) -> np.ndarray:
    """A JSON array of finite numbers as a float64 array, strictly.

    One type screen, one conversion and one finiteness check cover the
    whole array.  Whatever that does not accept is re-checked element by
    element with :func:`_finite_float`, which raises the typed error
    naming the first rejected element — so the array path accepts and
    rejects exactly what the element check does.
    """
    if not isinstance(value, list):
        raise WireProtocolError(
            f"{what}.{field} must be an array, got {type(value).__name__}",
            field=field,
        )
    if set(map(type, value)) <= _JSON_NUMBER_TYPES:
        try:
            array = np.array(value, dtype=float)
        except OverflowError:
            array = None
        if array is not None and np.isfinite(array).all():
            return array
    return np.array(
        [_finite_float(v, f"{field}[{i}]", what) for i, v in enumerate(value)],
        dtype=float,
    )


# The canonical encoder, shared by every call as ``json.dumps`` shares its
# default one: it holds settings only.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _dumps(document: Dict[str, Any], what: str) -> bytes:
    try:
        text = _ENCODER.encode(document)
    except ValueError as exc:
        # json's own refusal of NaN/inf — surface it as the wire error.
        raise WireProtocolError(f"{what} carries a non-finite value: {exc}") from exc
    return text.encode("ascii")


def _loads(data: Union[bytes, bytearray, str], what: str) -> Any:
    if isinstance(data, (bytes, bytearray)):
        try:
            data = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireProtocolError(f"{what} is not valid UTF-8: {exc}") from exc
    try:
        return json.loads(data, parse_constant=_reject_nonfinite_token)
    except WireProtocolError:
        raise
    except (ValueError, TypeError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past the
        # interpreter's digit limit; RecursionError, absurdly deep nesting.
        raise WireProtocolError(f"{what} is not valid JSON: {exc}") from exc


# ----------------------------------------------------------------------
# VelocityProfile <-> dict
# ----------------------------------------------------------------------
def profile_to_dict(profile: VelocityProfile) -> Dict[str, Any]:
    """A :class:`VelocityProfile` as a plain JSON-ready dict.

    The profile's arrays are float64, so ``tolist()`` yields exactly the
    Python floats an element-by-element ``float()`` would.
    """
    return {
        "positions_m": profile.positions_m.tolist(),
        "speeds_ms": profile.speeds_ms.tolist(),
        "dwell_s": profile.dwell_s.tolist(),
        "start_time_s": float(profile.start_time_s),
    }


def profile_from_dict(payload: Dict[str, Any]) -> VelocityProfile:
    """Rebuild a :class:`VelocityProfile` from its dict form, strictly.

    Raises:
        WireProtocolError: Missing/unknown keys, mistyped or non-finite
            entries, or arrays the profile's own invariants reject
            (non-increasing positions, negative speeds, …).
    """
    payload = _require_mapping(payload, "profile")
    _check_keys(payload, _PROFILE_KEYS, "profile")
    positions = _float_array(payload["positions_m"], "positions_m", "profile")
    speeds = _float_array(payload["speeds_ms"], "speeds_ms", "profile")
    dwell = _float_array(payload["dwell_s"], "dwell_s", "profile")
    start = _finite_float(payload["start_time_s"], "start_time_s", "profile")
    try:
        return VelocityProfile(
            positions_m=positions, speeds_ms=speeds, dwell_s=dwell, start_time_s=start
        )
    except ConfigurationError as exc:
        raise WireProtocolError(f"profile violates its invariants: {exc}") from exc


# ----------------------------------------------------------------------
# PlanRequest <-> dict <-> bytes
# ----------------------------------------------------------------------
def request_to_dict(req: PlanRequest) -> Dict[str, Any]:
    """A :class:`PlanRequest` as a plain, versioned JSON-ready dict."""
    return {
        "wire_version": WIRE_VERSION,
        "kind": REQUEST_KIND,
        "vehicle_id": req.vehicle_id,
        "depart_s": float(req.depart_s),
        "max_trip_time_s": (
            None if req.max_trip_time_s is None else float(req.max_trip_time_s)
        ),
        "position_m": float(req.position_m),
        "speed_ms": float(req.speed_ms),
        "minimize": req.minimize,
        "corridor_id": req.corridor_id,
    }


def request_from_dict(payload: Dict[str, Any]) -> PlanRequest:
    """Rebuild a :class:`PlanRequest` from its dict form, strictly."""
    payload = _require_mapping(payload, "plan request")
    _check_version_and_kind(payload, REQUEST_KIND, "plan request")
    _check_keys(payload, _REQUEST_KEYS, "plan request")
    corridor_id = payload["corridor_id"]
    if not isinstance(corridor_id, str):
        raise WireProtocolError(
            f"plan request corridor_id must be a string, got {type(corridor_id).__name__}",
            field="corridor_id",
        )
    vehicle_id = payload["vehicle_id"]
    if not isinstance(vehicle_id, str):
        raise WireProtocolError(
            f"plan request vehicle_id must be a string, got {type(vehicle_id).__name__}",
            field="vehicle_id",
        )
    minimize = payload["minimize"]
    if not isinstance(minimize, str):
        raise WireProtocolError(
            f"plan request minimize must be a string, got {type(minimize).__name__}",
            field="minimize",
        )
    budget: Optional[float] = None
    if payload["max_trip_time_s"] is not None:
        budget = _finite_float(payload["max_trip_time_s"], "max_trip_time_s", "plan request")
    # Field checks run before the contract try below, so their typed
    # errors keep their ``field`` instead of being re-wrapped.
    depart = _finite_float(payload["depart_s"], "depart_s", "plan request")
    position = _finite_float(payload["position_m"], "position_m", "plan request")
    speed = _finite_float(payload["speed_ms"], "speed_ms", "plan request")
    try:
        return PlanRequest(
            vehicle_id=vehicle_id,
            depart_s=depart,
            max_trip_time_s=budget,
            position_m=position,
            speed_ms=speed,
            minimize=minimize,
            corridor_id=corridor_id,
        )
    except ConfigurationError as exc:
        # Includes InputValidationError from the request's own contract.
        raise WireProtocolError(f"plan request violates its contract: {exc}") from exc


def encode_request(req: PlanRequest) -> bytes:
    """Canonical JSON bytes of a request (equal requests → equal bytes)."""
    return _dumps(request_to_dict(req), "plan request")


def decode_request(data: Union[bytes, bytearray, str]) -> PlanRequest:
    """Parse and validate wire bytes into a :class:`PlanRequest`.

    Raises:
        WireProtocolError: Broken JSON, unknown ``wire_version``, wrong
            ``kind``, missing/unknown keys, mistyped or non-finite
            fields, or a payload violating the request contract.
    """
    return request_from_dict(_loads(data, "plan request"))


# ----------------------------------------------------------------------
# PlanResponse <-> dict <-> bytes
# ----------------------------------------------------------------------
def response_to_dict(resp: PlanResponse) -> Dict[str, Any]:
    """A :class:`PlanResponse` as a plain, versioned JSON-ready dict.

    ``profile`` may be ``None`` (degraded tiers can answer without one);
    it is encoded as JSON ``null``.
    """
    return {
        "wire_version": WIRE_VERSION,
        "kind": RESPONSE_KIND,
        "vehicle_id": resp.vehicle_id,
        "profile": None if resp.profile is None else profile_to_dict(resp.profile),
        "energy_mah": float(resp.energy_mah),
        "trip_time_s": float(resp.trip_time_s),
        "cache_hit": bool(resp.cache_hit),
        "compute_time_s": float(resp.compute_time_s),
        "corridor_id": resp.corridor_id,
    }


def response_from_dict(payload: Dict[str, Any]) -> PlanResponse:
    """Rebuild a :class:`PlanResponse` from its dict form, strictly."""
    payload = _require_mapping(payload, "plan response")
    _check_version_and_kind(payload, RESPONSE_KIND, "plan response")
    _check_keys(payload, _RESPONSE_KEYS, "plan response")
    corridor_id = payload["corridor_id"]
    if not isinstance(corridor_id, str) or not corridor_id:
        raise WireProtocolError(
            "plan response corridor_id must be a non-empty string",
            field="corridor_id",
        )
    vehicle_id = payload["vehicle_id"]
    if not isinstance(vehicle_id, str) or not vehicle_id:
        raise WireProtocolError(
            "plan response vehicle_id must be a non-empty string", field="vehicle_id"
        )
    if not isinstance(payload["cache_hit"], bool):
        raise WireProtocolError(
            "plan response cache_hit must be a boolean", field="cache_hit"
        )
    profile = (
        None if payload["profile"] is None else profile_from_dict(payload["profile"])
    )
    return PlanResponse(
        vehicle_id=vehicle_id,
        profile=profile,
        energy_mah=_finite_float(payload["energy_mah"], "energy_mah", "plan response"),
        trip_time_s=_finite_float(payload["trip_time_s"], "trip_time_s", "plan response"),
        cache_hit=payload["cache_hit"],
        compute_time_s=_finite_float(
            payload["compute_time_s"], "compute_time_s", "plan response"
        ),
        corridor_id=corridor_id,
    )


def encode_response(resp: PlanResponse) -> bytes:
    """Canonical JSON bytes of a response (equal responses → equal bytes)."""
    return _dumps(response_to_dict(resp), "plan response")


def decode_response(data: Union[bytes, bytearray, str]) -> PlanResponse:
    """Parse and validate wire bytes into a :class:`PlanResponse`.

    Raises:
        WireProtocolError: Broken JSON, unknown ``wire_version``, wrong
            ``kind``, missing/unknown keys, or mistyped/non-finite fields.
    """
    return response_from_dict(_loads(data, "plan response"))


# ----------------------------------------------------------------------
# Error frames
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorFrame:
    """A server's typed failure answer to one frame.

    Attributes:
        code: One of the ``ERROR_*`` codes.
        message: Human-readable detail.
        retryable: Whether the sender may usefully retry (BUSY and
            server-side timeouts are transient; protocol and planning
            failures are not).
        vehicle_id: The request's vehicle, when the server could read it
            (lets a pipelining client correlate; empty otherwise).
        queue_depth: Admission-queue depth at rejection, for ``busy``.
        capacity: Admission bound, for ``busy``.
    """

    code: str
    message: str
    retryable: bool
    vehicle_id: str = ""
    queue_depth: Optional[int] = None
    capacity: Optional[int] = None


def error_to_dict(err: ErrorFrame) -> Dict[str, Any]:
    """An :class:`ErrorFrame` as a plain, versioned JSON-ready dict."""
    return {
        "wire_version": WIRE_VERSION,
        "kind": ERROR_KIND,
        "code": err.code,
        "message": err.message,
        "retryable": bool(err.retryable),
        "vehicle_id": err.vehicle_id,
        "queue_depth": err.queue_depth,
        "capacity": err.capacity,
    }


def error_from_dict(payload: Dict[str, Any]) -> ErrorFrame:
    """Rebuild an :class:`ErrorFrame` from its dict form, strictly."""
    payload = _require_mapping(payload, "error frame")
    _check_keys(payload, _ERROR_KEYS, "error frame")
    _check_version_and_kind(payload, ERROR_KIND, "error frame")
    code = payload["code"]
    if code not in _ERROR_CODES:
        raise WireProtocolError(
            f"error frame has unknown code {code!r}", field="code"
        )
    if not isinstance(payload["message"], str):
        raise WireProtocolError("error frame message must be a string", field="message")
    if not isinstance(payload["retryable"], bool):
        raise WireProtocolError(
            "error frame retryable must be a boolean", field="retryable"
        )
    if not isinstance(payload["vehicle_id"], str):
        raise WireProtocolError(
            "error frame vehicle_id must be a string", field="vehicle_id"
        )
    for field in ("queue_depth", "capacity"):
        value = payload[field]
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise WireProtocolError(
                f"error frame {field} must be an integer or null", field=field
            )
    return ErrorFrame(
        code=code,
        message=payload["message"],
        retryable=payload["retryable"],
        vehicle_id=payload["vehicle_id"],
        queue_depth=payload["queue_depth"],
        capacity=payload["capacity"],
    )


def encode_error(err: ErrorFrame) -> bytes:
    """Canonical JSON bytes of an error frame."""
    return _dumps(error_to_dict(err), "error frame")


# ----------------------------------------------------------------------
# Health and stats frames
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HealthStatus:
    """A server's liveness answer.

    Attributes:
        status: ``"ok"`` while serving, ``"draining"`` once shutdown
            began (new work is shed, in-flight work completes).
        in_flight: Admitted-but-unfinished plan requests.
        capacity: The admission bound.
    """

    status: str
    in_flight: int
    capacity: int

    @property
    def draining(self) -> bool:
        """Whether the server has begun its graceful drain."""
        return self.status == HEALTH_DRAINING


def encode_health_request() -> bytes:
    """Canonical JSON bytes of a health probe."""
    return _dumps(
        {"wire_version": WIRE_VERSION, "kind": HEALTH_REQUEST_KIND}, "health request"
    )


def health_to_dict(health: HealthStatus) -> Dict[str, Any]:
    """A :class:`HealthStatus` as a plain, versioned JSON-ready dict."""
    return {
        "wire_version": WIRE_VERSION,
        "kind": HEALTH_RESPONSE_KIND,
        "status": health.status,
        "in_flight": int(health.in_flight),
        "capacity": int(health.capacity),
    }


def health_from_dict(payload: Dict[str, Any]) -> HealthStatus:
    """Rebuild a :class:`HealthStatus` from its dict form, strictly."""
    payload = _require_mapping(payload, "health response")
    _check_keys(payload, _HEALTH_RESPONSE_KEYS, "health response")
    _check_version_and_kind(payload, HEALTH_RESPONSE_KIND, "health response")
    status = payload["status"]
    if status not in (HEALTH_OK, HEALTH_DRAINING):
        raise WireProtocolError(
            f"health response has unknown status {status!r}", field="status"
        )
    for field in ("in_flight", "capacity"):
        value = payload[field]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise WireProtocolError(
                f"health response {field} must be a non-negative integer",
                field=field,
            )
    return HealthStatus(
        status=status, in_flight=payload["in_flight"], capacity=payload["capacity"]
    )


def encode_health_response(health: HealthStatus) -> bytes:
    """Canonical JSON bytes of a health answer."""
    return _dumps(health_to_dict(health), "health response")


def encode_stats_request() -> bytes:
    """Canonical JSON bytes of a stats probe."""
    return _dumps(
        {"wire_version": WIRE_VERSION, "kind": STATS_REQUEST_KIND}, "stats request"
    )


def encode_stats_response(document: Dict[str, Any]) -> bytes:
    """Canonical JSON bytes wrapping one composed stats document.

    The document itself is schema-tagged
    (:data:`repro.cloud.stats.STATS_SCHEMA`); the wire only checks that
    it is a JSON object with finite numbers.
    """
    _require_mapping(document, "stats document")
    return _dumps(
        {
            "wire_version": WIRE_VERSION,
            "kind": STATS_RESPONSE_KIND,
            "document": document,
        },
        "stats response",
    )


def stats_from_dict(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The stats document out of a stats-response dict, strictly."""
    payload = _require_mapping(payload, "stats response")
    _check_keys(payload, _STATS_RESPONSE_KEYS, "stats response")
    _check_version_and_kind(payload, STATS_RESPONSE_KIND, "stats response")
    return _require_mapping(payload["document"], "stats document")


# ----------------------------------------------------------------------
# Generic dispatch
# ----------------------------------------------------------------------
def decode_message_versioned(
    data: Union[bytes, bytearray, str],
) -> Tuple[str, Any, int]:
    """Parse any wire payload; dispatch on ``kind``, report the version.

    The server's per-frame entry point: one JSON parse, one version
    check, then the kind-specific strict decoder.

    Returns:
        ``(kind, message, version)`` where ``message`` is a
        :class:`PlanRequest`, :class:`PlanResponse`, :class:`ErrorFrame`,
        :class:`HealthStatus`, a stats document dict, or ``None`` for
        the bodyless request kinds (``health_request``,
        ``stats_request``), and ``version`` is the payload's
        ``wire_version`` — always :data:`WIRE_VERSION`, the only one
        that decodes.

    Raises:
        WireProtocolError: Broken JSON, a ``wire_version`` other than
            :data:`WIRE_VERSION`, unknown ``kind``, or a payload failing
            its kind's schema.
    """
    payload = _require_mapping(_loads(data, "wire message"), "wire message")
    _check_version(payload, "wire message")
    kind = payload.get("kind")
    if kind == REQUEST_KIND:
        return kind, request_from_dict(payload), WIRE_VERSION
    if kind == RESPONSE_KIND:
        return kind, response_from_dict(payload), WIRE_VERSION
    if kind == ERROR_KIND:
        return kind, error_from_dict(payload), WIRE_VERSION
    if kind == HEALTH_RESPONSE_KIND:
        return kind, health_from_dict(payload), WIRE_VERSION
    if kind == STATS_RESPONSE_KIND:
        return kind, stats_from_dict(payload), WIRE_VERSION
    if kind == HEALTH_REQUEST_KIND:
        _check_keys(payload, _HEALTH_REQUEST_KEYS, "health request")
        return kind, None, WIRE_VERSION
    if kind == STATS_REQUEST_KIND:
        _check_keys(payload, _STATS_REQUEST_KEYS, "stats request")
        return kind, None, WIRE_VERSION
    raise WireProtocolError(
        f"wire message has unknown kind {kind!r}", field="kind"
    )


def decode_message(data: Union[bytes, bytearray, str]) -> Tuple[str, Any]:
    """:func:`decode_message_versioned` without the version."""
    kind, message, _ = decode_message_versioned(data)
    return kind, message


def roundtrip_request(req: PlanRequest) -> PlanRequest:
    """``decode(encode(req))`` — the full serialization boundary, bit-exact."""
    return decode_request(encode_request(req))


def roundtrip_response(resp: PlanResponse) -> PlanResponse:
    """``decode(encode(resp))`` — the full serialization boundary, bit-exact."""
    return decode_response(encode_response(resp))
