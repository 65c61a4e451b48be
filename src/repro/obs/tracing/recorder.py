"""A dependency-free, bounded-memory event/span recorder on sim time.

Where :mod:`repro.obs.metrics` aggregates (how *many* link collisions,
how *much* wire traffic), the trace recorder keeps the *when*: one event
per occurrence, timestamped in **simulation seconds**, so the paper's
network-load claims can be examined at event granularity -- when the
shared link is busy, how bursts of concurrent checkpoints pile up, what
a restore chain actually fetched.  Design constraints mirror the
metrics registry, in order:

1. **Disabled instrumentation costs ~nothing.**  Every site guards on
   ``tr = active()`` / ``if tr is not None`` -- a module attribute read
   plus a ``None`` test -- and records nothing when no recorder is
   installed.
2. **Bounded memory.**  Events land in a ring buffer
   (``max_events``, oldest dropped first; drops are counted per
   category) and high-frequency categories can be stride-sampled
   (``sampling={"engine.step": 100}`` keeps every 100th event).
3. **Mergeable across processes.**  Sweep workers record into private
   recorders and ship :meth:`TraceRecorder.as_dict` home; the parent
   folds snapshots in with :meth:`TraceRecorder.merge_dict`, exactly
   like ``MetricsRegistry``.

Events are plain JSON-ready dicts (see :data:`TraceEvent`): ``ts`` /
optional ``dur`` in sim seconds, dotted ``cat`` egory, ``name``,
optional ``track`` (the machine or component -- one Chrome-trace track
each) and optional ``args``.  Spans are recorded *at completion* with
their start time and duration, so nothing is held open in the recorder.

The recorder also carries an instrumentation clock, :attr:`now`: layers
that know the current sim time (the replay loop, the DES
:class:`~repro.engine.core.Environment`) keep it fresh, so layers that
do not (the :class:`~repro.storage.store.CheckpointStore`, which is
deliberately simulator-agnostic) can still timestamp their events.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from typing import Any

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "active",
    "disable",
    "enable",
    "use",
]

#: One recorded occurrence: ``{"ts", "cat", "name"}`` plus optional
#: ``"dur"`` (span length, sim seconds), ``"track"`` and ``"args"``.
TraceEvent = dict[str, Any]

#: Default ring-buffer capacity (events).  At a few hundred bytes per
#: event this bounds a recorder to low hundreds of MB worst case.
DEFAULT_MAX_EVENTS = 1_000_000

#: Default stride sampling: the DES dispatch loop fires millions of
#: events per live run, so only every 100th is kept unless overridden.
DEFAULT_SAMPLING: Mapping[str, int] = {"engine.step": 100}


class TraceRecorder:
    """Ring-buffered event/span recorder keyed on simulation time.

    Parameters
    ----------
    max_events:
        Ring-buffer capacity; once full, the oldest events are dropped
        (counted in :attr:`n_dropped`).
    sampling:
        Stride sampling per category: keys match ``"cat.name"`` first,
        then the bare ``"cat"``; value ``k`` keeps every ``k``-th event
        of that key (``1`` keeps all).  Defaults to
        :data:`DEFAULT_SAMPLING`.
    """

    __slots__ = ("now", "_buf", "_sampling", "_sample_seen", "n_recorded", "n_sampled_out")

    def __init__(
        self,
        *,
        max_events: int = DEFAULT_MAX_EVENTS,
        sampling: Mapping[str, int] | None = None,
    ) -> None:
        if max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        resolved = dict(DEFAULT_SAMPLING if sampling is None else sampling)
        for key, stride in resolved.items():
            if stride < 1:
                raise ValueError(f"sampling stride for {key!r} must be >= 1, got {stride}")
        #: the instrumentation clock: current sim time, maintained by
        #: whichever simulator is driving (replay loop or DES engine)
        self.now = 0.0
        self._buf: deque[TraceEvent] = deque(maxlen=max_events)
        self._sampling = resolved
        self._sample_seen: dict[str, int] = {}
        self.n_recorded = 0
        self.n_sampled_out = 0

    # -- capacity / bookkeeping -----------------------------------------
    @property
    def max_events(self) -> int:
        maxlen = self._buf.maxlen
        assert maxlen is not None
        return maxlen

    @property
    def sampling(self) -> dict[str, int]:
        """The stride sampling in force (a copy)."""
        return dict(self._sampling)

    @property
    def n_dropped(self) -> int:
        """Events evicted from the ring buffer (oldest-first)."""
        return self.n_recorded - len(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def _keep(self, cat: str, name: str) -> bool:
        sampling = self._sampling
        if not sampling:
            return True
        key = f"{cat}.{name}"
        stride = sampling.get(key)
        if stride is None:
            key = cat
            stride = sampling.get(key)
        if stride is None or stride == 1:
            return True
        seen = self._sample_seen.get(key, 0)
        self._sample_seen[key] = seen + 1
        if seen % stride:
            self.n_sampled_out += 1
            return False
        return True

    # -- recording -------------------------------------------------------
    def point(
        self,
        cat: str,
        name: str,
        *,
        ts: float | None = None,
        track: str | None = None,
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """Record an instantaneous event (``ts=None`` uses :attr:`now`)."""
        if not self._keep(cat, name):
            return
        ev: TraceEvent = {"ts": self.now if ts is None else ts, "cat": cat, "name": name}
        if track is not None:
            ev["track"] = track
        if args is not None:
            ev["args"] = dict(args)
        self.n_recorded += 1
        self._buf.append(ev)

    def span(
        self,
        cat: str,
        name: str,
        ts: float,
        dur: float,
        *,
        track: str | None = None,
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """Record a completed span starting at ``ts`` lasting ``dur``."""
        if dur < 0:
            raise ValueError(f"span duration must be >= 0, got {dur}")
        if not self._keep(cat, name):
            return
        ev: TraceEvent = {
            "ts": ts,
            "dur": dur,
            "cat": cat,
            "name": name,
        }
        if track is not None:
            ev["track"] = track
        if args is not None:
            ev["args"] = dict(args)
        self.n_recorded += 1
        self._buf.append(ev)

    # -- access / serialisation -----------------------------------------
    def events(self) -> list[TraceEvent]:
        """All buffered events, sorted by timestamp (stable)."""
        return sorted(self._buf, key=_event_ts)

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready snapshot (for worker -> parent shipping)."""
        return {
            "events": self.events(),
            "n_recorded": self.n_recorded,
            "n_sampled_out": self.n_sampled_out,
            "sampling": self.sampling,
        }

    def merge_dict(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a worker snapshot in (events interleave by timestamp at
        the next :meth:`events` call; drop/sample counts add)."""
        events = snapshot.get("events", [])
        n_recorded = int(snapshot.get("n_recorded", len(events)))
        # events the worker itself already dropped stay dropped: account
        # for them so parent-side totals remain truthful
        self.n_recorded += n_recorded - len(events)
        self.n_sampled_out += int(snapshot.get("n_sampled_out", 0))
        for ev in events:
            self.n_recorded += 1
            self._buf.append(ev)

    def merge(self, other: TraceRecorder) -> None:
        self.merge_dict(other.as_dict())


def _event_ts(ev: TraceEvent) -> float:
    ts = ev["ts"]
    return float(ts)


# ----------------------------------------------------------------------
# the process-global default recorder (mirrors repro.obs.metrics)
# ----------------------------------------------------------------------
_active: TraceRecorder | None = None


def active() -> TraceRecorder | None:
    """The installed recorder, or ``None`` when tracing is disabled.

    This is *the* hot-path guard: instrumentation sites call it once,
    keep the result in a local, and skip all recording when ``None``.
    """
    return _active


def enable(recorder: TraceRecorder | None = None) -> TraceRecorder:
    """Install ``recorder`` (or a fresh one) as the process default."""
    global _active
    _active = recorder if recorder is not None else TraceRecorder()
    return _active


def disable() -> None:
    """Remove the process default; instrumentation reverts to no-op."""
    global _active
    _active = None


@contextmanager
def use(recorder: TraceRecorder | None = None) -> Iterator[TraceRecorder]:
    """Temporarily install a recorder (tests, worker processes)."""
    global _active
    previous = _active
    installed = recorder if recorder is not None else TraceRecorder()
    _active = installed
    try:
        yield installed
    finally:
        _active = previous
