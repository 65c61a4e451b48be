"""Tests for the JSON-lines protocol layer."""

import json
import math

import pytest

from repro.core import CheckpointCosts, OptimalInterval
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    OPS,
    ProtocolError,
    costs_from_payload,
    costs_to_payload,
    dumps,
    error_response,
    interval_to_payload,
    ok_response,
    parse_request,
)


class TestParseRequest:
    def test_valid_request(self):
        req = parse_request('{"op": "ping", "id": 7}')
        assert req == {"op": "ping", "id": 7}

    def test_every_op_accepted(self):
        for op in OPS:
            assert parse_request(json.dumps({"op": op}))["op"] == op

    def test_bad_json(self):
        with pytest.raises(ProtocolError) as err:
            parse_request("{nope")
        assert err.value.code == "bad-json"

    def test_non_object(self):
        with pytest.raises(ProtocolError) as err:
            parse_request('["op"]')
        assert err.value.code == "bad-request"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as err:
            parse_request('{"op": "frobnicate"}')
        assert err.value.code == "unknown-op"
        assert "frobnicate" in err.value.message

    def test_missing_op(self):
        with pytest.raises(ProtocolError) as err:
            parse_request('{"id": 1}')
        assert err.value.code == "unknown-op"

    def test_line_too_long(self):
        huge = '{"op": "ping", "pad": "' + "x" * MAX_LINE_BYTES + '"}'
        with pytest.raises(ProtocolError) as err:
            parse_request(huge)
        assert err.value.code == "line-too-long"


class TestResponses:
    def test_ok_echoes_id(self):
        assert ok_response(3, pong=True) == {"ok": True, "id": 3, "pong": True}

    def test_ok_without_id(self):
        assert "id" not in ok_response(None)

    def test_error_shape(self):
        response = error_response("a", "bad-json", "nope")
        assert response["ok"] is False
        assert response["error"] == {"code": "bad-json", "message": "nope"}

    def test_dumps_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps(ok_response(1, result={"gamma": math.inf}))

    def test_dumps_single_line(self):
        text = dumps(ok_response(1, result={"T_opt": 1.0}))
        assert "\n" not in text
        assert json.loads(text)["ok"] is True


class TestIntervalPayload:
    def test_faithful_fields(self):
        opt = OptimalInterval(
            T_opt=100.0,
            gamma=120.0,
            overhead_ratio=1.2,
            expected_efficiency=1.0 / 1.2,
            age=5.0,
            converged=True,
        )
        payload = interval_to_payload(opt)
        assert payload["T_opt"] == 100.0
        assert payload["age"] == 5.0
        assert payload["converged"] is True
        assert OptimalInterval(**payload) == opt

    def test_infinite_gamma_written_as_null(self):
        opt = OptimalInterval(
            T_opt=1e-3,
            gamma=math.inf,
            overhead_ratio=1e300,
            expected_efficiency=0.0,
            age=0.0,
            converged=False,
        )
        payload = interval_to_payload(opt)
        assert payload["gamma"] is None
        assert json.loads(dumps(payload))["gamma"] is None


class TestCosts:
    def test_full_payload(self):
        costs = costs_from_payload({"checkpoint": 110, "recovery": 90, "latency": 5})
        assert costs == CheckpointCosts(110.0, 90.0, 5.0)

    def test_latency_defaults_to_zero(self):
        costs = costs_from_payload({"checkpoint": 1, "recovery": 2})
        assert costs.latency == 0.0

    def test_partial_override_of_default(self):
        default = CheckpointCosts(110.0, 110.0, 10.0)
        costs = costs_from_payload({"latency": 0}, default)
        assert costs == CheckpointCosts(110.0, 110.0, 0.0)

    def test_none_payload_uses_default(self):
        default = CheckpointCosts(1.0, 2.0, 3.0)
        assert costs_from_payload(None, default) is default

    def test_none_payload_without_default_rejected(self):
        with pytest.raises(ProtocolError) as err:
            costs_from_payload(None)
        assert err.value.code == "bad-costs"

    def test_missing_field_without_default_rejected(self):
        with pytest.raises(ProtocolError) as err:
            costs_from_payload({"checkpoint": 1})
        assert err.value.code == "bad-costs"
        assert "recovery" in err.value.message

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError) as err:
            costs_from_payload({"checkpoint": 1, "recovery": 1, "restore": 2})
        assert "restore" in err.value.message

    def test_non_numeric_rejected(self):
        with pytest.raises(ProtocolError):
            costs_from_payload({"checkpoint": "x", "recovery": 1})

    def test_negative_costs_rejected(self):
        with pytest.raises(ProtocolError):
            costs_from_payload({"checkpoint": -1, "recovery": 1})

    @pytest.mark.parametrize("field", ["checkpoint", "recovery", "latency"])
    def test_non_finite_costs_rejected(self, field):
        payload = {"checkpoint": 1.0, "recovery": 1.0, field: math.inf}
        with pytest.raises(ProtocolError) as err:
            costs_from_payload(payload)
        assert err.value.code == "bad-costs"

    def test_round_trip(self):
        costs = CheckpointCosts(110.0, 90.0, 5.0)
        assert costs_from_payload(costs_to_payload(costs)) == costs
