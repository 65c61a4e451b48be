"""Disk snapshots of the solver cache: warm restarts for the daemon.

A long-running daemon accumulates thousands of solved ``T_opt`` entries
in the process-global :class:`~repro.core.solver_cache.SolverCache`.
Restarting it cold throws that work away and every tenant pays full
solve latency again until the cache repopulates.  These helpers persist
the cache's :meth:`~repro.core.solver_cache.SolverCache.as_dict`
snapshot (schema ``repro.opt.solver_cache/2``, explicitly versioned) to
a JSON file and fold it back in at startup, so a restarted daemon
answers its first requests from cache.

The API is split along the event-loop boundary so the asyncio daemon
can snapshot without stalling its loop:

* :func:`snapshot_payload` / :func:`apply_snapshot_payload` touch only
  the in-memory cache -- cheap, loop-side, giving the write a consistent
  view and the load an atomic merge;
* :func:`write_snapshot_payload` / :func:`read_snapshot_payload` do the
  blocking file I/O and nothing else -- the daemon runs them under
  :func:`asyncio.to_thread`.

:meth:`~repro.serve.server.ScheduleServer.load_snapshot` and
:meth:`~repro.serve.server.ScheduleServer.write_snapshot` compose the
two halves; they are the only snapshot path.

Writes are atomic -- the snapshot is written to a sibling temp file and
:func:`os.replace`d into place -- so a crash mid-write leaves the
previous snapshot intact, and a reader never observes a torn file.
Loading validates the schema/version and raises
:class:`SnapshotError` with the underlying cause on any mismatch or
corruption; the caller decides whether a bad snapshot is fatal (explicit
``snapshot`` op) or a cold start (daemon boot with ``--snapshot``).
"""

from __future__ import annotations

import json
import logging
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.solver_cache import SolverCache, active_cache
from repro.obs.metrics import active as _metrics

__all__ = [
    "MergeResult",
    "SnapshotError",
    "apply_snapshot_payload",
    "merge_snapshot_files",
    "read_snapshot_payload",
    "record_snapshot_error",
    "record_snapshot_merge",
    "record_snapshot_saved",
    "snapshot_payload",
    "worker_snapshot_path",
    "write_snapshot_payload",
]

#: structured warnings about skipped merge inputs land here
_logger = logging.getLogger("repro.serve")


class SnapshotError(RuntimeError):
    """A cache snapshot could not be written, read or validated."""


def _resolve(cache: SolverCache | None) -> SolverCache:
    resolved = cache if cache is not None else active_cache()
    if resolved is None:
        raise SnapshotError(
            "no solver cache is active (the process-global cache is disabled)"
        )
    return resolved


# ----------------------------------------------------------------------
# loop-side halves: in-memory only, no I/O
# ----------------------------------------------------------------------
def snapshot_payload(cache: SolverCache | None = None) -> dict[str, Any]:
    """A consistent, serialisable view of ``cache`` (default: the active
    global cache).  No I/O -- safe to call on the event loop."""
    return _resolve(cache).as_dict()


def apply_snapshot_payload(
    payload: Any,
    cache: SolverCache | None = None,
    *,
    stats: bool = False,
    source: str = "snapshot",
) -> int:
    """Validate ``payload`` and merge it into ``cache`` (default: the
    active global cache); returns the number of entries inserted.
    No I/O -- safe to call on the event loop.

    ``stats`` is off by default: a warm-loading daemon wants the
    *entries*, not the previous process's hit/miss history polluting its
    own counters.
    """
    resolved = _resolve(cache)
    if not isinstance(payload, dict):
        raise SnapshotError(
            f"{source} must hold a JSON object, got {type(payload).__name__}"
        )
    try:
        inserted = resolved.merge_dict(payload, stats=stats)
    except ValueError as exc:
        raise SnapshotError(f"{source} rejected: {exc}") from exc
    reg = _metrics()
    if reg is not None:
        reg.inc("serve.snapshot.loads")
        reg.observe("serve.snapshot.entries_loaded", inserted)
    return inserted


# ----------------------------------------------------------------------
# blocking halves: file I/O only, run off-loop by the daemon
# ----------------------------------------------------------------------
def write_snapshot_payload(path: str, payload: dict[str, Any]) -> int:
    """Atomically write a captured payload to ``path``; returns the
    number of entries written.  Blocking -- the daemon calls this via
    ``asyncio.to_thread``."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass  # best-effort cleanup; the real error is re-raised below
        raise SnapshotError(f"cannot write snapshot {path!r}: {exc}") from exc
    entries: list[Any] = payload.get("entries", [])
    return len(entries)


def read_snapshot_payload(path: str) -> Any:
    """Read and JSON-decode a snapshot file.  Blocking -- the daemon
    calls this via ``asyncio.to_thread``; validation happens in
    :func:`apply_snapshot_payload`."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"snapshot {path!r} is not valid JSON: {exc}") from exc


# ----------------------------------------------------------------------
# loop-side metric hooks
# ----------------------------------------------------------------------
def record_snapshot_saved(entries: int) -> None:
    """Count one successful snapshot write (loop-side metric hook)."""
    reg = _metrics()
    if reg is not None:
        reg.inc("serve.snapshot.saves")
        reg.observe("serve.snapshot.entries_saved", entries)


def record_snapshot_error() -> None:
    """Count one failed snapshot write (loop-side metric hook)."""
    reg = _metrics()
    if reg is not None:
        reg.inc("serve.snapshot.errors")


# ----------------------------------------------------------------------
# multi-worker snapshot merging
# ----------------------------------------------------------------------
def worker_snapshot_path(base: str, index: int) -> str:
    """The per-worker snapshot file derived from the pool's merged
    path: ``<base>.worker<i>``.  Each worker writes only its own file,
    so concurrent periodic snapshots never race on one target."""
    return f"{base}.worker{index}"


@dataclass(frozen=True)
class MergeResult:
    """What one :func:`merge_snapshot_files` pass did."""

    entries: int  #: entries in the merged snapshot (0 when not written)
    written: bool  #: whether the target file was (re)written
    merged: list[str] = field(default_factory=list)  #: sources folded in
    skipped: list[str] = field(default_factory=list)  #: sources skipped loudly


def merge_snapshot_files(
    sources: Sequence[str], target: str, *, capacity: int | None = None
) -> MergeResult:
    """Union several snapshot files into one merged snapshot at
    ``target`` (atomic tmp+rename, like every snapshot write).

    The merge is LRU- and stats-aware: sources are folded in with
    ``stats=True`` so the merged file carries the summed hit/miss
    history of every worker, and entries keep each source's LRU order
    (duplicate keys -- the same solve done by two workers -- are
    bit-identical by the serving equivalence contract, first source
    wins).  A missing source is simply absent (a worker that has not
    snapshotted yet); an unreadable or invalid source is *skipped
    loudly* -- one structured warning on the ``repro.serve`` logger per
    file, the path reported in :attr:`MergeResult.skipped` -- so a
    torn or foreign file degrades coverage, never the merge.  The
    target is only rewritten when at least one source merged.

    Blocking (file I/O) -- the supervisor calls this via
    ``asyncio.to_thread``; metrics are recorded loop-side by
    :func:`record_snapshot_merge`.
    """
    payloads: list[tuple[str, Any]] = []
    skipped: list[str] = []
    for path in sources:
        if not os.path.exists(path):
            continue
        try:
            payloads.append((path, read_snapshot_payload(path)))
        except SnapshotError as exc:
            skipped.append(path)
            _logger.warning(
                "%s",
                json.dumps(
                    {
                        "event": "snapshot_merge_skipped",
                        "path": path,
                        "reason": str(exc),
                    },
                    sort_keys=True,
                ),
            )
    total = sum(
        len(payload.get("entries", []))
        for _, payload in payloads
        if isinstance(payload, dict)
    )
    cache = SolverCache(capacity=capacity if capacity is not None else max(total, 1))
    merged: list[str] = []
    for path, payload in payloads:
        try:
            if not isinstance(payload, dict):
                raise ValueError(
                    f"snapshot must hold a JSON object, got {type(payload).__name__}"
                )
            cache.merge_dict(payload, stats=True)
            merged.append(path)
        except (TypeError, ValueError) as exc:
            skipped.append(path)
            _logger.warning(
                "%s",
                json.dumps(
                    {
                        "event": "snapshot_merge_skipped",
                        "path": path,
                        "reason": str(exc),
                    },
                    sort_keys=True,
                ),
            )
    if not merged:
        return MergeResult(entries=0, written=False, skipped=skipped)
    entries = write_snapshot_payload(target, cache.as_dict())
    return MergeResult(entries=entries, written=True, merged=merged, skipped=skipped)


def record_snapshot_merge(result: MergeResult) -> None:
    """Count one merge pass (loop-side metric hook)."""
    reg = _metrics()
    if reg is None:
        return
    if result.written:
        reg.inc("serve.snapshot.merges")
        reg.observe("serve.snapshot.merge.entries", result.entries)
    if result.skipped:
        reg.inc("serve.snapshot.merge.skipped", len(result.skipped))
