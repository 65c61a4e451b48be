"""``repro serve`` -- the async schedule-query service.

Turns the checkpoint-interval optimizer into long-running
infrastructure: a dependency-free asyncio daemon answering
"machine at uptime *a* with costs (C, R, L) -> T_opt" queries over a
JSON-lines protocol, with

* **micro-batched solving** (:mod:`repro.serve.batcher`): concurrent
  queries are grouped by distribution fingerprint and dispatched
  through one batched optimizer call, collapsing duplicate ages;
* a **per-tenant model registry** (:mod:`repro.serve.registry`): named
  pools map to fitted models and cost sets, so one daemon serves many
  cycle-harvesting pools;
* **solver-cache snapshots** (:mod:`repro.serve.snapshot`): the
  process-global cache persists to disk and warm-loads at startup, so
  restarts answer their first queries hot;
* a **load generator** (:mod:`repro.serve.bench`, ``repro
  bench-serve``): closed- and open-loop arrival shapes with QPS and
  latency percentile reporting, and the ``--soak`` run that samples a
  loaded daemon's metrics into a JSONL time series.

See ``docs/SERVING.md`` for the protocol and lifecycle.
"""

from repro.serve.batcher import BatcherStats, MicroBatcher, SolveQuery
from repro.serve.models import FAMILIES, distribution_from_spec, distribution_to_spec
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_SCHEMA,
    ProtocolError,
    parse_request,
)
from repro.serve.registry import PoolEntry, TenantRegistry, UnknownPoolError
from repro.serve.server import ScheduleServer, ServerConfig
from repro.serve.snapshot import SnapshotError

__all__ = [
    "FAMILIES",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_SCHEMA",
    "BatcherStats",
    "MicroBatcher",
    "PoolEntry",
    "ProtocolError",
    "ScheduleServer",
    "ServerConfig",
    "SnapshotError",
    "SolveQuery",
    "TenantRegistry",
    "UnknownPoolError",
    "distribution_from_spec",
    "distribution_to_spec",
    "parse_request",
]
