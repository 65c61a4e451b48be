"""The ``repro serve`` daemon: an asyncio schedule-query service.

A single-process, dependency-free asyncio server that turns the
checkpoint-interval optimizer into infrastructure: JSON-lines requests
over TCP (or stdio for tests and scripting), answered through the
micro-batcher so concurrent queries share solver work, with the
process-global solver cache persisted to disk so restarts begin hot.

Layering::

    transport (TCP connections / stdio loop)
        -> ScheduleServer                  (parse, op dispatch, admin ops)
            -> MicroBatcher.enqueue        (solve path: flush per loop turn)
                -> optimize_intervals_batch (one call per flush)
                    -> SolverCache          (process-global, snapshotted)

Connections are *pipelined*: a connection keeps reading while earlier
requests wait in the batcher, which is what gives the micro-batcher
concurrent in-flight queries to batch even over a single connection.
Responses are written as they complete (out of order; clients match on
``id``).  A flush answers its queries through callbacks and the
replies it queued on one connection leave in one write when it ends.
Control-plane ops (``ping``, ``register``, ``shutdown``, ...) are
answered in read order, each reply written as soon as it is made;
``snapshot``, which waits on the disk, runs as its own task.

Metrics (``serve.*``, catalogued in ``docs/OBSERVABILITY.md``) and one
``serve``/``request`` trace span per request report what the daemon is
doing; ``docs/SERVING.md`` documents the protocol and lifecycle.  The
labeled per-tenant series (``serve.tenant.*`` with ``tenant``/``op``
labels), the request-lifecycle histograms (``serve.lifecycle.*``), the
``metrics``/``health`` introspection ops, and the ``--metrics-port``
Prometheus scrape endpoint make the running daemon observable without
restarting it; requests slower than ``slow_request_s`` additionally
emit one structured (JSON) log line on the ``repro.serve`` logger.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import os
import time
from dataclasses import dataclass
from typing import Any, NamedTuple, TextIO

from repro.core.optimizer import OptimalInterval
from repro.core.solver_cache import active_cache
from repro.obs.metrics import active as _metrics
from repro.obs.metrics import disable as _metrics_disable
from repro.obs.metrics import enable as _metrics_enable
from repro.obs.prometheus import render_prometheus
from repro.obs.tracing import active as _trace_active
from repro.serve.batcher import DEFAULT_BATCH_WINDOW_S, MicroBatcher, SolveQuery
from repro.serve.models import distribution_from_spec, distribution_to_spec
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_SCHEMA,
    ProtocolError,
    costs_from_payload,
    costs_to_payload,
    dumps,
    error_response,
    finite_or_inf,
    interval_to_payload,
    ok_response,
    parse_request,
)
from repro.serve.metrics_http import MetricsHttpEndpoint
from repro.serve.registry import TenantRegistry, UnknownPoolError
from repro.serve.snapshot import (
    SnapshotError,
    apply_snapshot_payload,
    read_snapshot_payload,
    record_snapshot_error,
    record_snapshot_saved,
    snapshot_payload,
    write_snapshot_payload,
)

__all__ = ["ScheduleServer", "ServerConfig"]

#: slow-request structured log lines land here (stdlib logging; the CLI
#: leaves configuration to the operator, so they are silent by default)
_logger = logging.getLogger("repro.serve")

#: a write is a single synchronous buffer append; once one leaves the
#: transport buffer above this many bytes (a slow or stalled client), the
#: connection waits in ``drain()`` before it reads another request
_DRAIN_WATERMARK = 1 << 16

#: a connection reads ahead at most this many batches (``max_batch``
#: requests each) before it waits for answers, so a pipelined client that
#: outpaces the daemon queues in the socket buffers, not in its memory.
#: Solves alone never reach it (a full batch flushes at once); it bounds
#: the ``snapshot`` tasks a connection can pile up
_READ_AHEAD_BATCHES = 4


def _encode(response: dict[str, Any]) -> str:
    """``response`` as one strict-JSON line.  Results are always finite;
    a non-finite number echoed from the request (an ``Infinity`` id)
    turns the answer into an id-less ``bad-request`` error."""
    try:
        return dumps(response)
    except ValueError:
        return dumps(
            error_response(None, "bad-request", "request carries a non-finite number")
        )


def _request_envelope_of(line: str) -> tuple[Any, str | None]:
    """Best-effort ``(id, op)`` extraction for the backpressure fast
    path: a rejected request still gets its id echoed when the line
    parses (``None`` -- an id-less ``busy`` response -- when it does
    not), and the op decides whether the cap applies at all."""
    try:
        data = json.loads(line)
    except ValueError:
        return None, None
    if not isinstance(data, dict):
        return None, None
    op = data.get("op")
    return data.get("id"), op if isinstance(op, str) else None


#: what a request may raise that becomes an error response rather than
#: a failure of the daemon
_ANSWERABLE = (ProtocolError, UnknownPoolError, ValueError, OverflowError, ArithmeticError)


def _failure(request_id: Any, exc: Exception) -> dict[str, Any]:
    """The error response for an exception raised answering a request."""
    if isinstance(exc, ProtocolError):
        return error_response(request_id, exc.code, exc.message)
    if isinstance(exc, UnknownPoolError):
        return error_response(request_id, "unknown-pool", str(exc))
    # solver/domain failures: the query was structurally fine but
    # unanswerable (e.g. age beyond the distribution's support)
    return error_response(request_id, "solver-error", str(exc))


class _Begun(NamedTuple):
    """An accepted request's identity and start time (see ``_begin``)."""

    request_id: Any
    op: str
    op_key: str
    tenant: str
    started: float


class _Connection:
    """The reply side of one TCP connection.

    Replies a flush answers are queued here and written in one
    ``write`` when the flush ends; every other reply is written as it
    is made.  Each reply is one complete line, so writes never split
    one.  ``outstanding`` counts queued solves not yet answered.
    """

    __slots__ = ("writer", "replies", "outstanding", "room", "backlogged", "_unwritten")

    def __init__(self, writer: asyncio.StreamWriter, unwritten: list[_Connection]) -> None:
        self.writer = writer
        self.replies: list[str] = []
        self.outstanding = 0
        #: set whenever an answer frees read-ahead room
        self.room = asyncio.Event()
        #: a write left the transport buffer above the drain watermark
        self.backlogged = False
        self._unwritten = unwritten

    def send(self, response: dict[str, Any]) -> None:
        """Write one reply now."""
        self.writer.write((_encode(response) + "\n").encode())
        self._check_watermark()

    def queue(self, response: dict[str, Any]) -> None:
        """Queue a flush's reply for the flush's one write."""
        if not self.replies:
            self._unwritten.append(self)
        self.replies.append(_encode(response) + "\n")
        self.outstanding -= 1
        self.room.set()

    def write_queued(self) -> None:
        self.writer.write("".join(self.replies).encode())
        self.replies.clear()
        self._check_watermark()

    def _check_watermark(self) -> None:
        transport = self.writer.transport
        if transport is not None and transport.get_write_buffer_size() > _DRAIN_WATERMARK:
            self.backlogged = True


@dataclass(frozen=True)
class ServerConfig:
    """Static configuration of one :class:`ScheduleServer`.

    ``port=0`` binds an ephemeral port (the bound port is published as
    :attr:`ScheduleServer.port` once started -- used by tests and the
    in-process bench).  ``snapshot_interval_s`` only matters when
    ``snapshot_path`` is set.  ``metrics_port`` (``None`` = off, ``0``
    = ephemeral) adds the HTTP scrape endpoint; ``slow_request_s`` is
    the structured-log threshold for slow requests.
    ``batch_window_s`` is the batcher's ``window_s``: ``0`` (the
    default) flushes queued solves at the end of the event-loop turn
    that queued them, a positive value holds each burst that long.

    Worker-pool fields (see :mod:`repro.serve.workers`):
    ``reuse_port`` binds the listener with ``SO_REUSEPORT`` so several
    worker processes share one TCP port; ``snapshot_source_path`` warm-
    loads from a different file than periodic snapshots write to (a
    worker boots from the pool's *merged* snapshot but persists its own
    per-worker file); ``worker_index`` stamps ``stats``/``health``
    responses so a client can tell which worker answered.
    ``max_inflight`` is the backpressure cap: a ``solve`` request
    arriving while the server already has that many requests in flight
    gets an immediate ``busy`` error response instead of unbounded
    queueing (``None`` = no cap; control-plane ops are never shed, so
    health probes keep answering under saturation).
    """

    host: str = "127.0.0.1"
    port: int = 0
    batch_window_s: float = DEFAULT_BATCH_WINDOW_S
    max_batch: int = 256
    snapshot_path: str | None = None
    snapshot_interval_s: float = 30.0
    metrics_port: int | None = None
    slow_request_s: float = 1.0
    max_inflight: int | None = None
    reuse_port: bool = False
    snapshot_source_path: str | None = None
    worker_index: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(
                f"max in-flight cap must be >= 1, got {self.max_inflight}"
            )
        if self.worker_index is not None and self.worker_index < 0:
            raise ValueError(
                f"worker index must be >= 0, got {self.worker_index}"
            )
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ValueError(
                f"metrics port must be in [0, 65535], got {self.metrics_port}"
            )
        if self.slow_request_s <= 0:
            raise ValueError(
                f"slow-request threshold must be positive, got {self.slow_request_s}"
            )
        if self.batch_window_s < 0:
            raise ValueError(f"batch window must be >= 0, got {self.batch_window_s}")
        if self.max_batch < 1:
            raise ValueError(f"max batch must be >= 1, got {self.max_batch}")
        if self.snapshot_interval_s <= 0:
            raise ValueError(
                f"snapshot interval must be positive, got {self.snapshot_interval_s}"
            )


class ScheduleServer:
    """The daemon: registry + batcher + snapshot lifecycle + transports."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        *,
        registry: TenantRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.registry = registry if registry is not None else TenantRegistry()
        self._epoch = time.perf_counter()
        #: connections a flush in progress has queued replies on
        self._unwritten: list[_Connection] = []
        self.batcher = MicroBatcher(
            window_s=self.config.batch_window_s,
            max_batch=self.config.max_batch,
            clock=self._now,
            on_flush=self._write_replies,
        )
        self.port: int | None = None if self.config.port == 0 else self.config.port
        self.metrics_port: int | None = None
        self.requests = 0
        self.errors = 0
        self.rejected = 0
        self._inflight = 0
        self.warm_loaded_entries = 0
        #: why the last warm load refused an existing snapshot file
        self.warm_load_refused: str | None = None
        self.op_counts: dict[str, int] = {}
        self._server: asyncio.AbstractServer | None = None
        self._stop: asyncio.Event | None = None
        self._snapshot_task: asyncio.Task[None] | None = None
        self._snapshot_lock = asyncio.Lock()
        self._connections: dict[asyncio.Task[None], asyncio.StreamWriter] = {}
        self._metrics_endpoint: MetricsHttpEndpoint | None = None
        self._owns_metrics = False
        self._last_snapshot_wall: float | None = None

    # ------------------------------------------------------------------
    def _now(self) -> float:
        """Wall-clock seconds since the server object was created (the
        trace timeline of the daemon)."""
        return time.perf_counter() - self._epoch

    def _warm_load_failed(self, path: str, exc: SnapshotError) -> None:
        """A warm load fell back to a cold start: counted always; a file
        that exists but was refused (torn, foreign or an older schema) is
        also logged with the reason and kept in :attr:`warm_load_refused`
        for the startup banner, so it does not pass for an empty one."""
        reg = _metrics()
        if reg is not None:
            reg.inc("serve.snapshot.load_failures")
        self.warm_loaded_entries = 0
        if os.path.exists(path):
            self.warm_load_refused = str(exc)
            _logger.warning(
                "%s",
                json.dumps(
                    {"event": "snapshot_load_failed", "path": path, "reason": str(exc)},
                    sort_keys=True,
                ),
            )

    def _warm_source(self) -> str | None:
        """The file warm loads read: the explicit source path when set
        (worker mode: boot from the pool's merged snapshot), else the
        snapshot path itself."""
        return self.config.snapshot_source_path or self.config.snapshot_path

    async def load_snapshot(self) -> int:
        """Load the warm-start snapshot into the active solver cache.

        The disk read runs off the event loop.  Returns the number of
        entries inserted; a missing or invalid snapshot file is a *cold
        start*, not an error (counted in ``serve.snapshot.load_failures``;
        the daemon serves anyway).
        """
        path = self._warm_source()
        if path is None:
            return 0
        self.warm_load_refused = None
        try:
            payload = await asyncio.to_thread(read_snapshot_payload, path)
            self.warm_loaded_entries = apply_snapshot_payload(
                payload, source=f"snapshot {path!r}"
            )
        except SnapshotError as exc:
            self._warm_load_failed(path, exc)
        return self.warm_loaded_entries

    def _snapshot_target(self, path: str | None) -> str:
        target = path if path is not None else self.config.snapshot_path
        if target is None:
            raise SnapshotError(
                "no snapshot path configured (start with --snapshot or pass 'path')"
            )
        return target

    async def write_snapshot(self, path: str | None = None) -> int:
        """Write a snapshot to ``path`` (default: the configured path)
        without stalling the event loop; returns the entries written.

        The cache view is captured *on* the loop (a consistent snapshot,
        since all mutation happens there too) and the file write runs in
        a worker thread.  The lock serialises concurrent snapshot
        requests so two writers never race on the same temp file.
        """
        target = self._snapshot_target(path)
        async with self._snapshot_lock:
            payload = snapshot_payload()
            try:
                entries = await asyncio.to_thread(
                    write_snapshot_payload, target, payload
                )
            except SnapshotError:
                record_snapshot_error()
                raise
        self._last_snapshot_wall = time.perf_counter()
        record_snapshot_saved(entries)
        return entries

    # ------------------------------------------------------------------
    # request handling (transport-independent)
    # ------------------------------------------------------------------
    async def handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Answer one parsed request object."""
        begun = self._begin(request)
        try:
            response = await self._dispatch(begun.op, request, begun.request_id)
        except _ANSWERABLE as exc:
            response = _failure(begun.request_id, exc)
        return self._finish(begun, response)

    def _begin(self, request: dict[str, Any]) -> _Begun:
        """Count an arriving request and start its clock."""
        started = self._now()
        self.requests += 1
        reg = _metrics()
        if reg is not None:
            reg.inc("serve.requests")
        op = str(request.get("op"))
        op_key = op if op in _OP_COUNTERS else "invalid"
        self.op_counts[op_key] = self.op_counts.get(op_key, 0) + 1
        pool = request.get("pool")
        tenant = pool if isinstance(pool, str) and pool else "-"
        return _Begun(request.get("id"), op, op_key, tenant, started)

    def _finish(self, begun: _Begun, response: dict[str, Any]) -> dict[str, Any]:
        """Account for an answered request; returns ``response``."""
        reg = _metrics()
        trace = _trace_active()
        ok = bool(response.get("ok", False))
        if not ok:
            self.errors += 1
            if reg is not None:
                reg.inc("serve.errors")
        elapsed = self._now() - begun.started
        op, op_key, tenant = begun.op, begun.op_key, begun.tenant
        if reg is not None:
            reg.observe("serve.request_seconds", elapsed)
            reg.inc(f"serve.op.{op}" if op in _OP_COUNTERS else "serve.op.invalid")
            labels = {"tenant": tenant, "op": op_key}
            reg.inc("serve.tenant.requests", labels=labels)
            if not ok:
                reg.inc("serve.tenant.errors", labels=labels)
            reg.observe("serve.tenant.request_seconds", elapsed, labels=labels)
        if elapsed > self.config.slow_request_s:
            if reg is not None:
                reg.inc("serve.requests.slow")
            _logger.warning(
                "%s",
                json.dumps(
                    {
                        "event": "slow_request",
                        "op": op_key,
                        "tenant": tenant,
                        "elapsed_s": round(elapsed, 6),
                        "threshold_s": self.config.slow_request_s,
                        "ok": ok,
                    },
                    sort_keys=True,
                ),
            )
        if trace is not None:
            trace.span(
                "serve",
                "request",
                begun.started,
                elapsed,
                args={"op": op, "ok": ok},
            )
        return response

    async def handle_line(self, line: str) -> dict[str, Any]:
        """Parse one request line and answer it (stdio / test helper)."""
        request, failure = self._parse_line(line)
        if request is None:
            return failure
        return await self.handle_request(request)

    def _parse_line(self, line: str) -> tuple[dict[str, Any] | None, dict[str, Any]]:
        """``(request, {})`` for a line that parses, else ``(None, error
        response)`` with the failed request already counted."""
        reg = _metrics()
        parse0 = time.perf_counter()
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.requests += 1
            self.errors += 1
            self.op_counts["invalid"] = self.op_counts.get("invalid", 0) + 1
            if reg is not None:
                reg.observe(
                    "serve.lifecycle.parse_seconds", time.perf_counter() - parse0
                )
                reg.inc("serve.requests")
                reg.inc("serve.errors")
            return None, error_response(None, exc.code, exc.message)
        if reg is not None:
            reg.observe("serve.lifecycle.parse_seconds", time.perf_counter() - parse0)
        return request, {}

    async def _dispatch(
        self, op: str, request: dict[str, Any], request_id: Any
    ) -> dict[str, Any]:
        if op == "ping":
            return ok_response(request_id, pong=True, schema=PROTOCOL_SCHEMA)
        if op == "solve":
            return await self._op_solve(request, request_id)
        if op in ("register", "unregister") and self.config.worker_index is not None:
            # a pool worker holds one of several registries: the op would
            # reach only the worker the kernel routed this connection to
            raise ProtocolError(
                "unsupported-op",
                f"{op!r} is not supported by a multi-worker pool; "
                "preload shared pools with --pools or --demo",
            )
        if op == "register":
            return self._op_register(request, request_id)
        if op == "unregister":
            pool = self._pool_name(request)
            self.registry.unregister(pool)
            return ok_response(request_id, pool=pool, unregistered=True)
        if op == "pools":
            return ok_response(
                request_id,
                pools=[
                    {
                        "pool": entry.name,
                        "model": distribution_to_spec(entry.distribution),
                        "costs": costs_to_payload(entry.costs),
                    }
                    for entry in self.registry.entries()
                ],
            )
        if op == "stats":
            return ok_response(request_id, stats=self.stats())
        if op == "metrics":
            reg = _metrics()
            return ok_response(
                request_id,
                enabled=reg is not None,
                metrics=reg.as_dict()
                if reg is not None
                else {"counters": {}, "gauges": {}, "histograms": {}},
            )
        if op == "health":
            return ok_response(request_id, health=self.health())
        if op == "snapshot":
            path = request.get("path")
            if path is not None and not isinstance(path, str):
                raise ProtocolError("bad-request", "'path' must be a string")
            try:
                entries = await self.write_snapshot(path)
            except SnapshotError as exc:
                return error_response(request_id, "snapshot-failed", str(exc))
            target = path if path is not None else self.config.snapshot_path
            return ok_response(request_id, entries=entries, path=target)
        if op == "shutdown":
            if self._stop is not None:
                self._stop.set()
            return ok_response(request_id, stopping=True)
        raise ProtocolError("unknown-op", f"unknown op {op!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    @staticmethod
    def _pool_name(request: dict[str, Any]) -> str:
        pool = request.get("pool")
        if not isinstance(pool, str) or not pool:
            raise ProtocolError("bad-request", "'pool' must be a non-empty string")
        return pool

    async def _op_solve(self, request: dict[str, Any], request_id: Any) -> dict[str, Any]:
        result = await self.batcher.submit(self._solve_query(request))
        return ok_response(request_id, result=interval_to_payload(result))

    def _solve_query(self, request: dict[str, Any]) -> SolveQuery:
        """Validate a ``solve`` request into the query the batcher runs."""
        age = request.get("age")
        if isinstance(age, bool) or not isinstance(age, int | float):
            raise ProtocolError("bad-request", f"'age' must be numeric, got {age!r}")
        age = finite_or_inf(age)
        if not 0 <= age < math.inf:
            raise ProtocolError(
                "bad-request", f"'age' must be finite and non-negative, got {age}"
            )
        pool = request.get("pool")
        model = request.get("model")
        if pool is not None and model is not None:
            raise ProtocolError(
                "bad-request", "give either 'pool' or an inline 'model', not both"
            )
        if pool is not None:
            entry = self.registry.get(self._pool_name(request))
            distribution = entry.distribution
            costs = costs_from_payload(request.get("costs"), entry.costs)
            tenant = entry.name
        elif model is not None:
            try:
                distribution = distribution_from_spec(model)
            except ValueError as exc:
                raise ProtocolError("bad-model", str(exc)) from exc
            costs = costs_from_payload(request.get("costs"))
            tenant = "-"
        else:
            raise ProtocolError(
                "bad-request", "a solve needs a 'pool' name or an inline 'model'"
            )
        return SolveQuery(
            distribution=distribution,
            costs=costs,
            age=float(age),
            tenant=tenant,
        )

    def _op_register(self, request: dict[str, Any], request_id: Any) -> dict[str, Any]:
        pool = self._pool_name(request)
        model = request.get("model")
        if model is None:
            raise ProtocolError("bad-request", "register needs a 'model' spec")
        try:
            distribution = distribution_from_spec(model)
        except ValueError as exc:
            raise ProtocolError("bad-model", str(exc)) from exc
        costs = costs_from_payload(request.get("costs"))
        replaced = self.registry.register(pool, distribution, costs)
        return ok_response(request_id, pool=pool, replaced=replaced)

    def stats(self) -> dict[str, Any]:
        """The daemon's cumulative accounting (the ``stats`` op body)."""
        cache = active_cache()
        cache_stats: dict[str, Any] = {"enabled": cache is not None}
        if cache is not None:
            lookups = cache.hits + cache.misses
            cache_stats.update(
                entries=len(cache),
                capacity=cache.capacity,
                hits=cache.hits,
                misses=cache.misses,
                evictions=cache.evictions,
                hit_rate=cache.hits / lookups if lookups else None,
            )
        batch = self.batcher.stats
        return {
            "schema": PROTOCOL_SCHEMA,
            "uptime_s": self._now(),
            "worker": self.config.worker_index,
            "port": self.port,
            "requests": self.requests,
            "errors": self.errors,
            "rejected": self.rejected,
            "ops": dict(sorted(self.op_counts.items())),
            "pools": len(self.registry),
            "batch": batch.as_dict(),
            "solves_per_request": batch.solves / batch.queries if batch.queries else None,
            "cache": cache_stats,
            "warm_loaded_entries": self.warm_loaded_entries,
        }

    def health(self) -> dict[str, Any]:
        """The daemon's readiness document (``health`` op and ``GET
        /health`` body): liveness plus the signals an operator checks
        first -- warm-load state, snapshot age, queue depth."""
        snapshot_age = (
            None
            if self._last_snapshot_wall is None
            else time.perf_counter() - self._last_snapshot_wall
        )
        return {
            "status": "ok",
            "schema": PROTOCOL_SCHEMA,
            "uptime_s": self._now(),
            # the *actually bound* ports: with port 0 (or metrics-port 0)
            # these are the ephemeral assignments, so worker mode can
            # publish what the kernel picked rather than what was asked
            "worker": self.config.worker_index,
            "port": self.port,
            "metrics_port": self.metrics_port,
            "queue_depth": self.batcher.pending,
            "inflight": self._inflight,
            "pools": len(self.registry),
            "warm_loaded_entries": self.warm_loaded_entries,
            "snapshot_configured": self.config.snapshot_path is not None,
            "snapshot_age_s": snapshot_age,
            "requests": self.requests,
            "errors": self.errors,
            "rejected": self.rejected,
            "metrics_enabled": _metrics() is not None,
        }

    def _render_prometheus(self) -> str:
        """``GET /metrics`` body (empty exposition when disabled)."""
        reg = _metrics()
        return render_prometheus(reg) if reg is not None else ""

    # ------------------------------------------------------------------
    # transports
    # ------------------------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One TCP client: pipelined JSON-lines until EOF."""
        # track the connection so stop() can close the transport under a
        # handler still parked in readline (it then sees EOF and exits;
        # cancelling instead is noisy on 3.11, bpo streams callback)
        current = asyncio.current_task()
        if current is not None:
            self._connections[current] = writer
        reg = _metrics()
        if reg is not None:
            reg.inc("serve.connections.opened")
        conn = _Connection(writer, self._unwritten)
        tasks: set[asyncio.Task[None]] = set()

        async def respond(request: dict[str, Any]) -> None:
            # control-plane ops: each reply (``shutdown``'s included) is
            # written as soon as it is made
            self._inflight += 1
            try:
                response = await self.handle_request(request)
            finally:
                self._inflight -= 1
            respond0 = time.perf_counter()
            conn.send(response)
            if reg is not None:
                reg.observe(
                    "serve.lifecycle.respond_seconds",
                    time.perf_counter() - respond0,
                )

        read_ahead = _READ_AHEAD_BATCHES * self.config.max_batch

        def finish(task: asyncio.Task[None]) -> None:
            tasks.discard(task)
            conn.room.set()

        cap = self.config.max_inflight
        try:
            while True:
                while len(tasks) + conn.outstanding >= read_ahead:
                    conn.room.clear()
                    await conn.room.wait()
                if conn.backlogged:
                    # a write left the transport buffer above the
                    # watermark (a slow client): wait for it to drain
                    # before reading more (the only drain, so no lock)
                    conn.backlogged = False
                    await writer.drain()
                try:
                    raw = await reader.readline()
                except ValueError:
                    # line exceeded the stream limit (MAX_LINE_BYTES);
                    # the framing is lost, so drop the connection
                    break
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                if cap is not None and self._inflight >= cap:
                    # overload: shed the request with a cheap immediate
                    # error instead of queueing without bound (the id is
                    # echoed when the line parses, so pipelined clients
                    # can still match the rejection).  Only ``solve``
                    # requests are shed -- they are what queues in the
                    # batcher; control-plane ops (health, metrics,
                    # stats, shutdown, ...) are answered inline and must
                    # keep working exactly when the server is saturated.
                    rid, op = _request_envelope_of(line)
                    if op == "solve":
                        self.rejected += 1
                        if reg is not None:
                            reg.inc("serve.requests.rejected")
                        conn.send(
                            error_response(
                                rid,
                                "busy",
                                f"server at max in-flight requests ({cap})",
                            )
                        )
                        continue
                request, failure = self._parse_line(line)
                if request is None:
                    conn.send(failure)
                elif request["op"] == "solve":
                    self._accept_solve(request, conn)
                elif request["op"] == "snapshot":
                    # the one op that waits on I/O runs beside the reads
                    task = asyncio.ensure_future(respond(request))
                    tasks.add(task)
                    task.add_done_callback(finish)
                else:
                    # in read order: a ``register`` takes effect before the
                    # solves read after it are validated
                    await respond(request)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            while conn.outstanding:
                conn.room.clear()
                await conn.room.wait()
        finally:
            if current is not None:
                self._connections.pop(current, None)
            if reg is not None:
                reg.inc("serve.connections.closed")
            try:
                writer.close()
                await writer.wait_closed()
            except OSError:
                pass  # the client is already gone; nothing left to flush

    def _accept_solve(self, request: dict[str, Any], conn: _Connection) -> None:
        """Queue one ``solve`` read from a connection; the flush that
        answers it queues the reply on ``conn`` (written by
        :meth:`_write_replies`).  A request that fails validation is
        answered at once."""
        begun = self._begin(request)
        request_id = begun.request_id
        try:
            query = self._solve_query(request)
        except _ANSWERABLE as exc:
            conn.send(self._finish(begun, _failure(request_id, exc)))
            return
        self._inflight += 1
        conn.outstanding += 1

        def reply(result: OptimalInterval | None, exc: Exception | None) -> None:
            self._inflight -= 1
            if exc is not None:
                response = _failure(request_id, exc)
            else:
                assert result is not None
                response = ok_response(request_id, result=interval_to_payload(result))
            conn.queue(self._finish(begun, response))

        self.batcher.enqueue(query, reply)

    def _write_replies(self) -> None:
        """The batcher's end-of-flush hook: one write per connection the
        flush answered."""
        reg = _metrics()
        for conn in self._unwritten:
            respond0 = time.perf_counter()
            conn.write_queued()
            if reg is not None:
                reg.observe(
                    "serve.lifecycle.respond_seconds",
                    time.perf_counter() - respond0,
                )
        self._unwritten.clear()

    async def start(self) -> None:
        """Bind the TCP listener, warm-load the snapshot, start the
        periodic snapshot task.  Returns once the server is accepting."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._stop = asyncio.Event()
        if self.config.metrics_port is not None and _metrics() is None:
            # a scrape endpoint without a registry would expose nothing;
            # enable one for the daemon's lifetime (released in stop())
            _metrics_enable()
            self._owns_metrics = True
        await self.load_snapshot()
        self._server = await asyncio.start_server(
            self.handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES + 1024,
            reuse_port=self.config.reuse_port or None,
        )
        sockets = self._server.sockets
        if sockets:
            self.port = int(sockets[0].getsockname()[1])
        if self.config.metrics_port is not None:
            self._metrics_endpoint = MetricsHttpEndpoint(
                host=self.config.host,
                port=self.config.metrics_port,
                render_metrics=self._render_prometheus,
                render_health=self.health,
            )
            await self._metrics_endpoint.start()
            self.metrics_port = self._metrics_endpoint.port
        if self.config.snapshot_path is not None:
            self._snapshot_task = asyncio.ensure_future(self._snapshot_loop())

    async def _snapshot_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.snapshot_interval_s)
            try:
                await self.write_snapshot()
            except SnapshotError:
                # already counted via serve.snapshot.errors; a full disk
                # must not kill the serving loop
                continue

    async def wait_stopped(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`stop`) arrives."""
        if self._stop is None:
            raise RuntimeError("server not started")
        await self._stop.wait()

    def request_stop(self) -> None:
        if self._stop is not None:
            self._stop.set()

    async def stop(self) -> None:
        """Stop accepting, drain the batcher, final snapshot, close."""
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            self._snapshot_task = None
        self.batcher.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._connections:
            # connections still parked in readline: close their
            # transports (the handlers see EOF and exit) and reap them
            for conn_writer in self._connections.values():
                conn_writer.close()
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()
        if self.config.snapshot_path is not None:
            try:
                await self.write_snapshot()
            except SnapshotError:
                pass  # counted in serve.snapshot.errors; shutdown proceeds
        if self._metrics_endpoint is not None:
            await self._metrics_endpoint.stop()
            self._metrics_endpoint = None
            self.metrics_port = None
        if self._owns_metrics:
            _metrics_disable()
            self._owns_metrics = False
        if self._stop is not None:
            self._stop.set()

    async def serve_forever(self) -> None:
        """The daemon main: start, serve until shutdown, clean up."""
        await self.start()
        try:
            await self.wait_stopped()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    async def run_stdio(self, lines: "Any", out: TextIO) -> int:
        """Serve requests from an iterable of text lines (tests, CLI
        ``--stdio``): strictly sequential, one response line per request.

        Returns the number of requests served.  A ``shutdown`` op ends
        the loop early.
        """
        self._stop = asyncio.Event()
        await self.load_snapshot()
        served = 0
        for line in lines:
            text = line.strip()
            if not text:
                continue
            response = await self.handle_line(text)
            print(_encode(response), file=out, flush=True)
            served += 1
            if self._stop.is_set():
                break
        self.batcher.drain()
        if self.config.snapshot_path is not None:
            try:
                await self.write_snapshot()
            except SnapshotError:
                pass  # counted in serve.snapshot.errors
        return served


#: ops that get a per-op counter (anything else counts as invalid)
_OP_COUNTERS = frozenset(
    (
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
)
