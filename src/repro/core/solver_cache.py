"""A process-global, bounded LRU cache for schedule solves.

The pool sweep re-solves identical ``(distribution, costs, age)``
instances constantly: every replay of a machine rebuilds its
:class:`~repro.core.schedule.CheckpointSchedule` from scratch, repeated
sweeps and sensitivity studies revisit the same fitted models, and the
ablation benches replay the same traces several times over.  Since
``T_opt`` is a pure function of the solve inputs, those repeats are pure
waste -- this module memoises them.

Keys are ``(distribution fingerprint, C, R, L, age bucket)``:

* the **fingerprint** (see
  :meth:`~repro.distributions.base.AvailabilityDistribution.fingerprint`)
  identifies a distribution by family and parameters, so two
  ``Weibull(0.43, 3409.0)`` instances fitted in different processes hit
  the same entry;
* the **age bucket** quantises the elapsed uptime to 1e-9 seconds --
  exact for the repeated identical age chains the schedule produces,
  while collapsing sub-nanosecond float dust.  The quantum is far below
  the 1e-9 *relative* ``T_opt`` equivalence budget of the golden-master
  tests (``d T_opt / d age`` is O(1) for every family in the suite).

The search domain is not part of the key: its lower end is a constant
and its upper end a function of (fingerprint, age).

The cache is **per process** (like the metrics registry) and
serialisable: :meth:`SolverCache.as_dict` snapshots it and
:meth:`SolverCache.merge_dict` folds a snapshot in, which is how the
serve daemon warm-loads at start-up and how its workers' snapshot
files merge into one.  Hits, misses and evictions are reported through
the active metrics registry (``opt.cache.hits`` / ``opt.cache.misses``
/ ``opt.cache.evictions``) and therefore merge across processes exactly
like every other counter.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import asdict
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import active as _metrics

if TYPE_CHECKING:
    from repro.core.optimizer import OptimalInterval

__all__ = [
    "DEFAULT_CAPACITY",
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_VERSION",
    "SolverCache",
    "SolverCacheKey",
    "active_cache",
    "configure_cache",
    "use_solver_cache",
]

#: cache keys are nested tuples of primitives (hashable and
#: pickle/JSON-representable)
SolverCacheKey = tuple[Any, ...]

#: default entry bound: ~100 bytes/entry, so the default cache tops out
#: around a few MB -- enough for hundreds of (machine, model, cost)
#: schedules without ever mattering for memory
DEFAULT_CAPACITY = 8192

#: age-bucket quantum (seconds); see the module docstring
AGE_QUANTUM_DIGITS = 9

#: schema identifier of the snapshot dict produced by
#: :meth:`SolverCache.as_dict`.  The trailing segment is the format
#: version, also carried explicitly in the snapshot's ``version`` field;
#: :meth:`SolverCache.merge_dict` rejects snapshots whose schema or
#: version does not match, so a daemon warm-loading a disk snapshot from
#: a future (or foreign) writer fails loudly instead of silently
#: mis-parsing entries.
SNAPSHOT_SCHEMA = "repro.opt.solver_cache/2"

#: current snapshot format version (bump together with the schema suffix
#: on any incompatible change to the entry layout)
SNAPSHOT_VERSION = 2


def _freeze(obj: Any) -> Any:
    """Recursively convert lists to tuples (JSON round-trip support)."""
    if isinstance(obj, list | tuple):
        return tuple(_freeze(v) for v in obj)
    return obj


class SolverCache:
    """Bounded LRU mapping of solve keys to :class:`OptimalInterval`."""

    __slots__ = ("capacity", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[SolverCacheKey, OptimalInterval] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    @staticmethod
    def key(
        fingerprint: tuple[Any, ...],
        checkpoint: float,
        recovery: float,
        latency: float,
        age: float,
    ) -> SolverCacheKey:
        """The canonical cache key for one solve instance."""
        return (
            fingerprint,
            float(checkpoint),
            float(recovery),
            float(latency),
            round(float(age), AGE_QUANTUM_DIGITS),
        )

    # ------------------------------------------------------------------
    def lookup(self, keys: Sequence[SolverCacheKey]) -> "list[OptimalInterval | None]":
        """The entry for each key (``None`` on a miss), refreshing the hits
        as most recent; the traffic counters move once per call."""
        entries = self._entries
        found = [entries.get(key) for key in keys]
        hits = 0
        for key, entry in zip(keys, found, strict=True):
            if entry is not None:
                entries.move_to_end(key)
                hits += 1
        misses = len(found) - hits
        self.hits += hits
        self.misses += misses
        reg = _metrics()
        if reg is not None:
            if hits:
                reg.inc("opt.cache.hits", hits)
            if misses:
                reg.inc("opt.cache.misses", misses)
        return found

    def store(self, items: "Iterable[tuple[SolverCacheKey, OptimalInterval]]") -> None:
        """Insert (or refresh) entries as most recent, evicting the least
        recent past capacity."""
        entries = self._entries
        evicted = 0
        for key, value in items:
            if key in entries:
                entries.move_to_end(key)
            entries[key] = value
            if len(entries) > self.capacity:
                entries.popitem(last=False)
                evicted += 1
        if evicted:
            self.evictions += evicted
            reg = _metrics()
            if reg is not None:
                reg.inc("opt.cache.evictions", evicted)

    def get(self, key: SolverCacheKey) -> "OptimalInterval | None":
        return self.lookup((key,))[0]

    def put(self, key: SolverCacheKey, value: "OptimalInterval") -> None:
        self.store(((key, value),))

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: SolverCacheKey) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[SolverCacheKey]:
        return iter(self._entries)

    # ------------------------------------------------------------------
    # snapshots: the metrics-registry merge protocol, for solve results
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """A snapshot of the cache contents plus its traffic stats.

        Entries appear in LRU order (least recent first) so a merge into
        an empty cache preserves the eviction order.  Keys are nested
        tuples of primitives; values are the plain-dict form of
        :class:`OptimalInterval`.
        """
        return {
            "schema": SNAPSHOT_SCHEMA,
            "version": SNAPSHOT_VERSION,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": [[list(k), asdict(v)] for k, v in self._entries.items()],
        }

    def merge_dict(self, data: dict[str, Any], *, stats: bool = True) -> int:
        """Fold a snapshot in; existing entries win.  Returns the number
        of entries actually inserted.

        ``stats=False`` merges the entries but not the hit/miss/eviction
        counters -- for warm-loading a snapshot at start-up, whose
        counters describe traffic of an earlier process, not this one.

        Raises :class:`ValueError`, leaving the cache unchanged, when
        ``data`` is not a solver-cache snapshot of this format (unknown
        schema, missing or other version) -- a daemon warm-loading a
        stale or foreign file must fail loudly rather than populate the
        cache with garbage.
        """
        from repro.core.optimizer import OptimalInterval

        schema = data.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"not a solver-cache snapshot: expected schema {SNAPSHOT_SCHEMA!r}, "
                f"got {schema!r}"
            )
        version = data.get("version")
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported solver-cache snapshot version {version!r} "
                f"(this build reads version {SNAPSHOT_VERSION}); regenerate the "
                "snapshot with SolverCache.as_dict()"
            )
        # every entry and counter is parsed before the first insertion,
        # so a malformed one leaves the cache as it was
        parsed: list[tuple[SolverCacheKey, OptimalInterval]] = []
        for index, item in enumerate(data.get("entries", [])):
            try:
                raw_key, raw_value = item
                parsed.append((_freeze(raw_key), OptimalInterval(**raw_value)))
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"malformed solver-cache snapshot entry {index}: {exc}"
                ) from exc
        try:
            counters = [int(data.get(name, 0)) for name in ("hits", "misses", "evictions")]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed solver-cache snapshot counters: {exc}") from exc
        inserted = 0
        for key, entry in parsed:
            if key not in self._entries:
                self.put(key, entry)
                inserted += 1
        if stats:
            self.hits += counters[0]
            self.misses += counters[1]
            self.evictions += counters[2]
        return inserted

    def merge(self, other: "SolverCache") -> int:
        return self.merge_dict(other.as_dict())


# ----------------------------------------------------------------------
# the process-global default cache (enabled out of the box: memoised
# results are bit-identical to recomputation, so there is no behaviour
# change -- only fewer solves)
# ----------------------------------------------------------------------
_active: SolverCache | None = SolverCache()


def active_cache() -> SolverCache | None:
    """The process-global solver cache, or ``None`` when disabled."""
    return _active


def configure_cache(cache: SolverCache | None) -> SolverCache | None:
    """Install ``cache`` as the process default (``None`` disables)."""
    global _active
    _active = cache
    return _active


@contextmanager
def use_solver_cache(cache: SolverCache | None) -> Iterator[SolverCache | None]:
    """Temporarily swap the process-global cache (tests, benches)."""
    global _active
    previous = _active
    _active = cache
    try:
        yield cache
    finally:
        _active = previous
