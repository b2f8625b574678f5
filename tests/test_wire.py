"""Wire-layer codec: bit-exact round trips and strict schema rejection."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import wire
from repro.cloud.messages import DEFAULT_CORRIDOR_ID, PlanRequest, PlanResponse
from repro.core.profile import VelocityProfile
from repro.errors import InputValidationError, WireProtocolError

finite_double = st.floats(allow_nan=False, allow_infinity=False, width=64)
speed = st.floats(min_value=0.5, max_value=30.0, width=64)
dwell = st.floats(min_value=0.0, max_value=120.0, width=64)


@st.composite
def profiles(draw):
    """Random valid profiles: increasing positions, positive speeds."""
    n = draw(st.integers(min_value=2, max_value=8))
    steps = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=500.0, width=64),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    positions = [0.0]
    for step in steps:
        positions.append(positions[-1] + step)
    speeds = draw(st.lists(speed, min_size=n, max_size=n))
    dwells = draw(st.lists(dwell, min_size=n, max_size=n))
    start = draw(st.floats(min_value=0.0, max_value=1e6, width=64))
    return VelocityProfile(
        positions_m=positions, speeds_ms=speeds, dwell_s=dwells, start_time_s=start
    )


@st.composite
def requests(draw):
    budget = draw(st.none() | st.floats(min_value=1.0, max_value=1e5, width=64))
    return PlanRequest(
        vehicle_id=draw(st.text(min_size=1, max_size=12)),
        depart_s=draw(st.floats(min_value=0.0, max_value=1e6, width=64)),
        max_trip_time_s=budget,
        position_m=draw(st.floats(min_value=0.0, max_value=1e5, width=64)),
        speed_ms=draw(st.floats(min_value=0.0, max_value=30.0, width=64)),
        minimize=draw(st.sampled_from(["energy", "time"])),
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(req=requests())
    def test_request_roundtrip_bit_exact(self, req):
        back = wire.roundtrip_request(req)
        assert back == req
        # Canonical encoding: equal messages -> equal bytes.
        assert wire.encode_request(back) == wire.encode_request(req)

    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(), energy=finite_double, hit=st.booleans())
    def test_response_roundtrip_bit_exact(self, profile, energy, hit):
        resp = PlanResponse(
            vehicle_id="ev1",
            profile=profile,
            energy_mah=energy,
            trip_time_s=123.456,
            cache_hit=hit,
            compute_time_s=0.25,
        )
        back = wire.roundtrip_response(resp)
        assert back.vehicle_id == resp.vehicle_id
        # Bit-exact float round trips, including the arrays.
        assert back.energy_mah == resp.energy_mah
        np.testing.assert_array_equal(back.profile.positions_m, profile.positions_m)
        np.testing.assert_array_equal(back.profile.speeds_ms, profile.speeds_ms)
        np.testing.assert_array_equal(back.profile.dwell_s, profile.dwell_s)
        assert back.profile.start_time_s == profile.start_time_s
        assert wire.encode_response(back) == wire.encode_response(resp)

    def test_negative_zero_and_tiny_floats_survive(self):
        req = PlanRequest(vehicle_id="z", depart_s=0.0, speed_ms=5e-324)
        back = wire.roundtrip_request(req)
        assert math.copysign(1.0, back.position_m) == math.copysign(1.0, 0.0)
        assert back.speed_ms == 5e-324

    def test_profile_none_encodes_as_null(self):
        resp = PlanResponse(
            vehicle_id="ev1",
            profile=None,
            energy_mah=0.0,
            trip_time_s=10.0,
            cache_hit=False,
            compute_time_s=0.0,
        )
        payload = json.loads(wire.encode_response(resp))
        assert payload["profile"] is None
        assert wire.roundtrip_response(resp).profile is None


class TestRejection:
    def _request_payload(self, **overrides):
        payload = wire.request_to_dict(PlanRequest(vehicle_id="a", depart_s=10.0))
        payload.update(overrides)
        return payload

    def test_unknown_version_rejected(self):
        payload = self._request_payload(wire_version=wire.WIRE_VERSION + 1)
        with pytest.raises(WireProtocolError) as excinfo:
            wire.request_from_dict(payload)
        assert excinfo.value.version == wire.WIRE_VERSION + 1

    def test_wrong_kind_rejected(self):
        payload = self._request_payload(kind="plan_response")
        with pytest.raises(WireProtocolError):
            wire.request_from_dict(payload)

    def test_missing_and_unknown_keys_rejected(self):
        payload = self._request_payload()
        del payload["depart_s"]
        with pytest.raises(WireProtocolError):
            wire.request_from_dict(payload)
        payload = self._request_payload(surprise=1)
        with pytest.raises(WireProtocolError):
            wire.request_from_dict(payload)

    def test_malformed_json_rejected(self):
        with pytest.raises(WireProtocolError):
            wire.decode_request(b"{not json")
        with pytest.raises(WireProtocolError):
            wire.decode_request(b"\xff\xfe")
        with pytest.raises(WireProtocolError):
            wire.decode_request(b"[1, 2, 3]")

    def test_nan_inf_rejected_both_directions(self):
        # Decode: the NaN/Infinity JSON extensions are refused.
        payload = self._request_payload()
        text = json.dumps(payload).replace("10.0", "NaN")
        with pytest.raises(WireProtocolError):
            wire.decode_request(text)
        # Dict path: a NaN float field is refused.
        with pytest.raises(WireProtocolError):
            wire.request_from_dict(self._request_payload(depart_s=float("nan")))
        with pytest.raises(WireProtocolError):
            wire.request_from_dict(self._request_payload(speed_ms=float("inf")))

    def test_mistyped_fields_rejected(self):
        with pytest.raises(WireProtocolError):
            wire.request_from_dict(self._request_payload(vehicle_id=7))
        with pytest.raises(WireProtocolError):
            wire.request_from_dict(self._request_payload(depart_s="10"))
        with pytest.raises(WireProtocolError):
            # bool is not an acceptable number.
            wire.request_from_dict(self._request_payload(depart_s=True))

    def test_contract_violations_surface_as_wire_errors(self):
        payload = self._request_payload(minimize="comfort")
        with pytest.raises(WireProtocolError):
            wire.request_from_dict(payload)
        payload = self._request_payload(depart_s=-5.0)
        with pytest.raises(WireProtocolError):
            wire.request_from_dict(payload)

    def test_wire_error_is_an_input_validation_error(self):
        # The guard layer's handlers catch wire errors unchanged.
        assert issubclass(WireProtocolError, InputValidationError)

    @settings(max_examples=40, deadline=None)
    @given(blob=st.binary(max_size=64))
    def test_random_bytes_never_escape_the_typed_error(self, blob):
        try:
            wire.decode_request(blob)
        except WireProtocolError:
            pass

    def test_bad_profile_arrays_rejected(self):
        good = wire.profile_to_dict(
            VelocityProfile(
                positions_m=[0.0, 100.0],
                speeds_ms=[5.0, 6.0],
                dwell_s=[0.0, 0.0],
                start_time_s=0.0,
            )
        )
        bad = dict(good, positions_m=[100.0, 0.0])  # non-increasing
        with pytest.raises(WireProtocolError):
            wire.profile_from_dict(bad)
        bad = dict(good, speeds_ms=[5.0, float("nan")])
        with pytest.raises(WireProtocolError):
            wire.profile_from_dict(bad)
        bad = dict(good, speeds_ms="fast")
        with pytest.raises(WireProtocolError):
            wire.profile_from_dict(bad)


class TestVersioning:
    """Version 2 carries the corridor; version 1 is refused, typed."""

    def _v1_payload(self, **overrides):
        """A version-1 request: the v2 payload without ``corridor_id``."""
        payload = wire.request_to_dict(PlanRequest(vehicle_id="a", depart_s=10.0))
        del payload["corridor_id"]
        payload["wire_version"] = 1
        payload.update(overrides)
        return payload

    def test_current_version_and_support_window(self):
        assert wire.WIRE_VERSION == 2
        v3 = wire.request_to_dict(PlanRequest(vehicle_id="a", depart_s=10.0))
        v3["wire_version"] = 3
        for payload in (self._v1_payload(), v3):
            for decode in (
                wire.request_from_dict,
                lambda p: wire.decode_request(json.dumps(p)),
                lambda p: wire.decode_message(json.dumps(p)),
            ):
                with pytest.raises(WireProtocolError) as excinfo:
                    decode(payload)
                assert excinfo.value.field == "wire_version"
                assert excinfo.value.version == payload["wire_version"]

    def test_v1_payload_carrying_corridor_id_rejected(self):
        payload = self._v1_payload(corridor_id="us25")
        with pytest.raises(WireProtocolError) as excinfo:
            wire.request_from_dict(payload)
        assert excinfo.value.field == "wire_version"

    def test_v2_payload_missing_corridor_id_rejected(self):
        payload = wire.request_to_dict(PlanRequest(vehicle_id="a", depart_s=1.0))
        assert payload["corridor_id"] == DEFAULT_CORRIDOR_ID
        del payload["corridor_id"]
        with pytest.raises(WireProtocolError):
            wire.request_from_dict(payload)

    @settings(max_examples=40, deadline=None)
    @given(
        req=requests(),
        corridor=st.text(min_size=1, max_size=16),
    )
    def test_v2_roundtrip_bit_exact_for_any_corridor(self, req, corridor):
        import dataclasses

        req = dataclasses.replace(req, corridor_id=corridor)
        back = wire.roundtrip_request(req)
        assert back == req
        assert back.corridor_id == corridor

    def test_decode_message_versioned_reports_the_dialect(self):
        req = PlanRequest(vehicle_id="a", depart_s=1.0)
        kind, message, got = wire.decode_message_versioned(wire.encode_request(req))
        assert (kind, got) == (wire.REQUEST_KIND, wire.WIRE_VERSION)
        assert message == req
        kind, message = wire.decode_message(wire.encode_request(req))
        assert kind == wire.REQUEST_KIND
        for blob in (
            wire.encode_health_request(),
            wire.encode_stats_request(),
            wire.encode_stats_response({"schema": "x"}),
        ):
            assert json.loads(blob)["wire_version"] == wire.WIRE_VERSION
            assert wire.decode_message_versioned(blob)[2] == wire.WIRE_VERSION


# ----------------------------------------------------------------------
# Fast paths pinned to the per-element algorithms they replaced
# ----------------------------------------------------------------------
def per_element_floats(value, field, what="profile"):
    """Reference array check: one scalar check per element, as before."""
    if not isinstance(value, list):
        raise WireProtocolError(
            f"{what}.{field} must be an array, got {type(value).__name__}",
            field=field,
        )
    return [wire._finite_float(v, f"{field}[{i}]", what) for i, v in enumerate(value)]


def per_float_response_bytes(resp):
    """Reference encoder: every profile float through ``float()``, as before."""
    profile = resp.profile
    document = {
        "wire_version": wire.WIRE_VERSION,
        "kind": wire.RESPONSE_KIND,
        "vehicle_id": resp.vehicle_id,
        "profile": None if profile is None else {
            "positions_m": [float(v) for v in profile.positions_m],
            "speeds_ms": [float(v) for v in profile.speeds_ms],
            "dwell_s": [float(v) for v in profile.dwell_s],
            "start_time_s": float(profile.start_time_s),
        },
        "energy_mah": float(resp.energy_mah),
        "trip_time_s": float(resp.trip_time_s),
        "cache_hit": bool(resp.cache_hit),
        "compute_time_s": float(resp.compute_time_s),
        "corridor_id": resp.corridor_id,
    }
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("ascii")


HUGE_INT = 10**400  # parses from JSON, but no double holds it

element = st.one_of(
    st.floats(width=64),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from(
        [0, -0.0, 5e-324, 1.7976931348623157e308, 2**53 + 1, HUGE_INT, -HUGE_INT,
         True, False, None, "1.0", "", [1.0], {}, 1e400]
    ),
)


class TestArrayDecodeMatchesPerElement:
    def _assert_same(self, value, field="speeds_ms"):
        try:
            want = per_element_floats(value, field)
        except WireProtocolError as ref_exc:
            with pytest.raises(WireProtocolError) as excinfo:
                wire._float_array(value, field, "profile")
            assert str(excinfo.value) == str(ref_exc)
            assert excinfo.value.field == ref_exc.field
            return
        got = wire._float_array(value, field, "profile")
        assert got.dtype == np.float64
        assert got.tobytes() == np.asarray(want, dtype=float).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(value=st.lists(element, max_size=12))
    def test_random_arrays(self, value):
        self._assert_same(value)

    @pytest.mark.parametrize(
        "value",
        [
            [],
            [1.5],
            [0],
            [True],
            [False, 1.0],
            ["1.0"],
            [None],
            [[1.0, 2.0]],
            [HUGE_INT],
            [1.0, -HUGE_INT],
            [1e400],
            [1.0, float("nan")],
            [-0.0, 0.0, -0.0],
            [2**63, 2**64 + 1, -(2**63) - 1],
            [np.float64(2.5), 3.0],  # dict path: float subclasses are numbers
            "1.0, 2.0",
            {"a": 1.0},
            None,
        ],
    )
    def test_edge_arrays(self, value):
        self._assert_same(value)

    def test_rejection_names_the_element_through_the_public_decoder(self):
        good = VelocityProfile([0.0, 100.0, 200.0], [5.0, 6.0, 7.0], start_time_s=3.0)
        text = wire.encode_response(
            PlanResponse(
                vehicle_id="ev", profile=good, energy_mah=1.0, trip_time_s=2.0,
                cache_hit=True, compute_time_s=0.0,
            )
        ).decode("ascii")
        for literal, field in (
            (str(HUGE_INT), "speeds_ms[1]"),
            ("1e400", "speeds_ms[1]"),
            ("true", "speeds_ms[1]"),
            ('"6"', "speeds_ms[1]"),
        ):
            blob = text.replace('"speeds_ms":[5.0,6.0,7.0]', f'"speeds_ms":[5.0,{literal},7.0]')
            assert blob != text
            with pytest.raises(WireProtocolError) as excinfo:
                wire.decode_message(blob)
            assert excinfo.value.field == field


class TestEncodeMatchesPerFloat:
    @settings(max_examples=80, deadline=None)
    @given(
        profile=profiles(),
        energy=finite_double,
        hit=st.booleans(),
        corridor=st.sampled_from([DEFAULT_CORRIDOR_ID, "elm-street"]),
        new_start=st.floats(min_value=0.0, max_value=1e6, width=64),
    )
    def test_bytes_equal_the_per_float_encoder(self, profile, energy, hit, corridor, new_start):
        for plan in (profile, profile.shifted_to(new_start), None):
            resp = PlanResponse(
                vehicle_id="ev-7",
                profile=plan,
                energy_mah=energy,
                trip_time_s=123.456,
                cache_hit=hit,
                compute_time_s=0.0,
                corridor_id=corridor,
            )
            assert wire.encode_response(resp) == per_float_response_bytes(resp)

    def test_negative_zero_and_extremes_render_identically(self):
        profile = VelocityProfile(
            [-0.0, 5e-324, 1.0, 1e300], [0.1, 0.0, 1e-300, 30.0], [-0.0, 0.0, 2.0, 0.0],
            start_time_s=-0.0,
        )
        resp = PlanResponse(
            vehicle_id="v", profile=profile, energy_mah=-0.0, trip_time_s=1.0,
            cache_hit=False, compute_time_s=0.0,
        )
        assert wire.encode_response(resp) == per_float_response_bytes(resp)


class TestRenderedOncePerPlan:
    """The profile's array text is rendered once and spliced into every reply."""

    @staticmethod
    def _response(plan, vehicle_id="ev-7", corridor="elm-street", energy=12.5):
        return PlanResponse(
            vehicle_id=vehicle_id,
            profile=plan,
            energy_mah=energy,
            trip_time_s=123.456,
            cache_hit=True,
            compute_time_s=0.0,
            corridor_id=corridor,
        )

    def test_cached_plan_and_shifted_copies_cold_then_warm(self):
        cached = VelocityProfile(
            [0.0, 120.5, 300.25, 512.0], [8.0, 11.5, 0.0, 9.75], [0.0, 0.0, 4.5, 0.0],
            start_time_s=17.5,
        )
        copies = [cached.shifted_to(s) for s in (0.0, 1234.5, 99_999.125)]
        assert wire._ARRAYS_TEXT not in cached._renders
        first = self._response(copies[0])
        assert wire.encode_response(first) == per_float_response_bytes(first)
        # The copy's rendering landed in the memo the cached plan shares.
        assert wire._ARRAYS_TEXT in cached._renders
        for plan in [cached, *copies]:
            resp = self._response(plan)
            assert wire.encode_response(resp) == per_float_response_bytes(resp)
        # A plan rebuilt from the same arrays has a memo of its own.
        rebuilt = VelocityProfile(
            cached.positions_m, cached.speeds_ms, cached.dwell_s, start_time_s=17.5
        )
        assert wire._ARRAYS_TEXT not in rebuilt._renders

    @settings(max_examples=80, deadline=None)
    @given(
        profile=profiles(),
        vehicle_id=st.text(min_size=1, max_size=12),
        corridor=st.text(min_size=1, max_size=8),
        energy=finite_double,
        starts=st.lists(
            st.floats(min_value=0.0, max_value=1e6, width=64), min_size=1, max_size=4
        ),
    )
    def test_any_ids_and_copies_match_the_per_float_encoder(
        self, profile, vehicle_id, corridor, energy, starts
    ):
        copies = [profile.shifted_to(s) for s in starts]
        # The first copy encodes with the memo cold, the rest with it warm.
        for plan in [*copies, profile]:
            resp = self._response(plan, vehicle_id, corridor, energy)
            assert wire.encode_response(resp) == per_float_response_bytes(resp)

    def test_quotes_and_non_ascii_ids_render_identically(self):
        plan = VelocityProfile([0.0, 50.0, 75.5], [5.0, 6.25, 7.0], start_time_s=3.0)
        for vehicle_id in ('ev "7"', "véhicule-ü", "车辆\\n", "\u2028\x00", "\\\""):
            resp = self._response(plan.shifted_to(10.0), vehicle_id, vehicle_id)
            assert wire.encode_response(resp) == per_float_response_bytes(resp)
            assert wire.decode_response(wire.encode_response(resp)).vehicle_id == vehicle_id

    def test_non_finite_values_still_refused_typed(self):
        plan = VelocityProfile([0.0, 50.0, 75.5], [5.0, 6.25, 7.0], start_time_s=3.0)
        # The profile's own checks let a NaN speed through.
        broken = VelocityProfile([0.0, 50.0, 75.5], [5.0, float("nan"), 7.0])
        for resp in (
            self._response(plan, energy=float("inf")),
            self._response(plan.shifted_to(float("nan"))),
            self._response(broken),
            self._response(broken.shifted_to(2.0)),
        ):
            with pytest.raises(WireProtocolError, match="non-finite"):
                wire.encode_response(resp)


class TestOutOfRangeNumbers:
    """A number no double holds is a typed wire error, never an OverflowError."""

    def _request_payload(self, **overrides):
        payload = wire.request_to_dict(PlanRequest(vehicle_id="a", depart_s=10.0))
        payload.update(overrides)
        return payload

    @pytest.mark.parametrize("field", ["depart_s", "position_m", "speed_ms", "max_trip_time_s"])
    def test_scalar_request_field_keeps_its_field(self, field):
        for bad in (HUGE_INT, -HUGE_INT, float("nan"), float("inf")):
            with pytest.raises(WireProtocolError) as excinfo:
                wire.request_from_dict(self._request_payload(**{field: bad}))
            assert excinfo.value.field == field
            # One typed error from the field check, not re-wrapped as a
            # contract violation around it.
            assert str(excinfo.value).startswith(f"wire: {field}: plan request.{field} ")

    def test_contract_violations_are_still_wrapped(self):
        with pytest.raises(WireProtocolError) as excinfo:
            wire.request_from_dict(self._request_payload(depart_s=-5.0))
        assert "violates its contract" in str(excinfo.value)

    def test_huge_integer_literal_in_request_bytes(self):
        text = wire.encode_request(PlanRequest(vehicle_id="a", depart_s=10.0)).decode()
        blob = text.replace('"depart_s":10.0', f'"depart_s":{HUGE_INT}')
        assert blob != text
        with pytest.raises(WireProtocolError) as excinfo:
            wire.decode_message_versioned(blob)
        assert excinfo.value.field == "depart_s"

    def test_huge_scalar_in_response_bytes(self):
        resp = PlanResponse(
            vehicle_id="ev", profile=None, energy_mah=1.0, trip_time_s=2.0,
            cache_hit=True, compute_time_s=0.0,
        )
        text = wire.encode_response(resp).decode()
        blob = text.replace('"energy_mah":1.0', f'"energy_mah":{HUGE_INT}')
        with pytest.raises(WireProtocolError) as excinfo:
            wire.decode_message(blob)
        assert excinfo.value.field == "energy_mah"

    def test_profile_start_time_out_of_range(self):
        payload = wire.profile_to_dict(VelocityProfile([0.0, 1.0], [1.0, 1.0]))
        payload["start_time_s"] = HUGE_INT
        with pytest.raises(WireProtocolError) as excinfo:
            wire.profile_from_dict(payload)
        assert excinfo.value.field == "start_time_s"

    def test_parser_limits_are_typed(self):
        # Integer literals past the interpreter's digit limit, and nesting
        # deeper than the recursion limit, fail inside json itself.
        digits = "9" * 5000
        with pytest.raises(WireProtocolError):
            wire.decode_message_versioned(f'{{"wire_version":2,"depart_s":{digits}}}')
        with pytest.raises(WireProtocolError):
            wire.decode_message_versioned("[" * 100_000 + "]" * 100_000)
