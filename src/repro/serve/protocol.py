"""The JSON-lines request/response protocol of ``repro serve``.

One request per line, one response per line, both JSON objects.  The
protocol is intentionally transport-agnostic: the same dicts travel over
a TCP connection, the stdio loop used by tests, or a direct in-process
:meth:`~repro.serve.server.ScheduleServer.handle_request` call.

Requests carry an ``op`` plus op-specific fields and an optional ``id``
(any JSON value) that the response echoes, so pipelined clients can
match out-of-order completions.  The full op catalogue with examples
lives in ``docs/SERVING.md``; the core query is::

    {"op": "solve", "id": 1, "pool": "campus", "age": 3600.0}
    -> {"ok": true, "id": 1, "result": {"T_opt": ..., "gamma": ..., ...}}

Responses always contain ``ok``; failures carry an ``error`` object with
a machine-readable ``code`` and a human-readable ``message``.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.core.markov import CheckpointCosts
from repro.core.optimizer import OptimalInterval

__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_SCHEMA",
    "ProtocolError",
    "costs_from_payload",
    "costs_to_payload",
    "dumps",
    "error_response",
    "finite_or_inf",
    "interval_to_payload",
    "ok_response",
    "parse_request",
]

#: protocol identifier reported by the ``ping`` and ``stats`` ops
PROTOCOL_SCHEMA = "repro.serve/1"

#: hard per-line bound: a request larger than this is an error, not a
#: buffering hazard (a hyperexponential spec with dozens of phases fits
#: in a few hundred bytes)
MAX_LINE_BYTES = 1_048_576

#: every operation the server answers
OPS = (
    "ping",
    "solve",
    "register",
    "unregister",
    "pools",
    "stats",
    "metrics",
    "health",
    "snapshot",
    "shutdown",
)


class ProtocolError(ValueError):
    """A malformed or unserviceable request.

    ``code`` is the machine-readable error identifier that ends up in
    the response's ``error.code`` field.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def parse_request(line: str) -> dict[str, Any]:
    """Decode and structurally validate one request line."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            "line-too-long", f"request exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad-json", f"request is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(
            "bad-request", f"request must be a JSON object, got {type(data).__name__}"
        )
    op = data.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(
            "unknown-op", f"unknown op {op!r} (known: {', '.join(OPS)})"
        )
    return data


def dumps(obj: dict[str, Any]) -> str:
    """Canonical one-line encoding of a response object: strict JSON, so
    a non-finite float raises instead of emitting ``NaN``/``Infinity``."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True, allow_nan=False)


def ok_response(request_id: Any, **fields: Any) -> dict[str, Any]:
    response: dict[str, Any] = {"ok": True, **fields}
    if request_id is not None:
        response["id"] = request_id
    return response


def error_response(request_id: Any, code: str, message: str) -> dict[str, Any]:
    response: dict[str, Any] = {
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if request_id is not None:
        response["id"] = request_id
    return response


def interval_to_payload(interval: OptimalInterval) -> dict[str, Any]:
    """The JSON-ready form of one optimizer result.

    Hand-rolled rather than :func:`dataclasses.asdict`: this runs once
    per served solve and ``asdict``'s recursive copy machinery costs
    more than the rest of response serialisation combined.  An
    unschedulable solve's infinite ``gamma`` is written as ``null``.
    """
    gamma = interval.gamma
    return {
        "T_opt": interval.T_opt,
        "gamma": gamma if gamma < math.inf else None,
        "overhead_ratio": interval.overhead_ratio,
        "expected_efficiency": interval.expected_efficiency,
        "age": interval.age,
        "converged": interval.converged,
    }


def costs_to_payload(costs: CheckpointCosts) -> dict[str, float]:
    return {
        "checkpoint": costs.checkpoint,
        "recovery": costs.recovery,
        "latency": costs.latency,
    }


def finite_or_inf(value: float) -> float:
    """A JSON number as a float; an integer beyond the float range (JSON
    integers have no bound) is an infinity of its sign, which every range
    check rejects, where ``float()`` would raise ``OverflowError``."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def costs_from_payload(
    payload: Any, default: CheckpointCosts | None = None
) -> CheckpointCosts:
    """Build :class:`CheckpointCosts` from a request's ``costs`` object.

    Keys absent from ``payload`` fall back to ``default`` (the pool's
    registered costs), so a query can override just ``latency`` while
    keeping the tenant's ``C``/``R``.  With no default, all three keys
    ``checkpoint``/``recovery``/``latency`` may be given; ``latency``
    alone defaults to 0.
    """
    if payload is None:
        if default is None:
            raise ProtocolError(
                "bad-costs", "no costs given and the request names no pool"
            )
        return default
    if not isinstance(payload, dict):
        raise ProtocolError(
            "bad-costs", f"costs must be an object, got {type(payload).__name__}"
        )
    unknown = set(payload) - {"checkpoint", "recovery", "latency"}
    if unknown:
        raise ProtocolError(
            "bad-costs", f"unknown cost fields: {', '.join(sorted(unknown))}"
        )

    def field(name: str, fallback: float | None) -> float:
        value = payload.get(name)
        if value is None:
            if fallback is None:
                raise ProtocolError("bad-costs", f"costs object is missing {name!r}")
            return fallback
        if isinstance(value, bool) or not isinstance(value, int | float):
            raise ProtocolError(
                "bad-costs", f"cost {name!r} must be numeric, got {value!r}"
            )
        return finite_or_inf(value)

    try:
        return CheckpointCosts(
            checkpoint=field(
                "checkpoint", default.checkpoint if default is not None else None
            ),
            recovery=field(
                "recovery", default.recovery if default is not None else None
            ),
            latency=field(
                "latency", default.latency if default is not None else 0.0
            ),
        )
    except ValueError as exc:
        raise ProtocolError("bad-costs", str(exc)) from exc
