"""A dependency-free metrics registry with a no-op fast path.

The observability layer answers the questions the paper's headline
claims hinge on but the result tables hide: how many golden-section
solves a sweep performs, how often the schedule cache short-circuits
them, how hard the shared link collides, what the storage subsystem's
full/delta cadence actually was.  Design constraints, in order:

1. **Disabled instrumentation costs ~nothing.**  Nothing is recorded
   unless a registry has been installed with :func:`enable` (or
   :func:`use`); every instrumentation site guards on
   ``reg = active()`` / ``if reg is not None``, which is a module
   attribute read plus a ``None`` test.  Hot loops keep their counts in
   locals and flush them once per call.
2. **No dependencies.**  Counters, gauges and summary histograms are
   plain slotted objects; reports are plain dicts (JSON-ready).
3. **Mergeable across processes.**  The pool sweep fans machines out
   over a ``ProcessPoolExecutor``; each worker records into its own
   registry and ships :meth:`MetricsRegistry.as_dict` back with its
   results, which the parent folds in with
   :meth:`MetricsRegistry.merge_dict`.
4. **Bounded-cardinality labels.**  Serving-side metrics carry a label
   dimension (``registry.counter("serve.tenant.requests",
   labels={"tenant": pool, "op": op})``): each distinct label set is its
   own series, encoded as ``name{key=value,...}`` in snapshots so the
   existing merge machinery carries labels across processes untouched.
   Distinct label sets per base name are capped
   (:data:`DEFAULT_LABEL_LIMIT`); past the cap, observations fold into
   the unlabeled base series and the ``obs.labels.overflow`` counter
   records the clip -- a hostile tenant name stream cannot grow the
   registry without bound.

The registry is *per process* and not thread-safe: the simulators are
single-threaded per process, and cross-process aggregation is explicit.
"""

from __future__ import annotations

import math
import re
import time
from bisect import bisect_left
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from types import TracebackType
from typing import Any

__all__ = [
    "BUCKET_BOUNDS",
    "DEFAULT_LABEL_LIMIT",
    "OVERFLOW_COUNTER",
    "SERIES_KEY_MEMO_LIMIT",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "active",
    "decode_series",
    "disable",
    "enable",
    "encode_series",
    "use",
]

#: Fixed histogram bucket boundaries: half-decade steps from 1e-6 to 1e6.
#: Every histogram shares them, so bucket vectors merge element-wise
#: across worker processes and compare across runs.  Bucket ``i`` counts
#: observations ``<= BUCKET_BOUNDS[i]``; one final overflow bucket counts
#: the rest, so there are ``len(BUCKET_BOUNDS) + 1`` buckets in all.
BUCKET_BOUNDS: tuple[float, ...] = tuple(10.0 ** (k / 2.0) for k in range(-12, 13))

#: Default cap on distinct label sets per base metric name; past it,
#: observations fold into the unlabeled base series and
#: :data:`OVERFLOW_COUNTER` counts the clip.
DEFAULT_LABEL_LIMIT = 64

#: Counter incremented once per observation clipped by the label
#: cardinality cap (catalogued in ``docs/OBSERVABILITY.md``).
OVERFLOW_COUNTER = "obs.labels.overflow"

#: Label keys are identifier-shaped so they survive both the snapshot
#: encoding and Prometheus exposition unescaped.
_LABEL_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Characters that would break the ``name{k=v,...}`` series encoding;
#: sanitised to ``_`` in label values (tenant names are caller input).
_LABEL_VALUE_BAD = re.compile(r"[{}=,\"\\\n\r\t]")


def encode_series(name: str, labels: Mapping[str, Any]) -> str:
    """The snapshot key of a labeled series: ``name{k=v,...}``, keys
    sorted, values coerced to sanitised strings.

    Label *keys* must be identifier-shaped (they become Prometheus
    label names verbatim); *values* are arbitrary caller input (tenant
    pool names) and have structural characters replaced with ``_``.
    """
    parts = []
    for key in sorted(labels):
        if not _LABEL_KEY_RE.match(key):
            raise ValueError(f"label key must be an identifier, got {key!r}")
        value = _LABEL_VALUE_BAD.sub("_", str(labels[key]))
        parts.append(f"{key}={value}")
    return f"{name}{{{','.join(parts)}}}"


#: bound on a registry's memo of encoded series keys; the memo is
#: emptied whenever it reaches this many entries
SERIES_KEY_MEMO_LIMIT = 4096


def decode_series(key: str) -> tuple[str, dict[str, str]]:
    """Split a snapshot key back into ``(base name, labels)``; an
    unlabeled key decodes to ``(key, {})``."""
    brace = key.find("{")
    if brace < 0:
        return key, {}
    if not key.endswith("}"):
        raise ValueError(f"malformed series key {key!r}")
    name, body = key[:brace], key[brace + 1 : -1]
    labels: dict[str, str] = {}
    if body:
        for part in body.split(","):
            label, sep, value = part.partition("=")
            if not sep or not _LABEL_KEY_RE.match(label):
                raise ValueError(f"malformed series key {key!r}")
            labels[label] = value
    return name, labels


def _record_overflow(registry: "MetricsRegistry") -> None:
    """Count one label set clipped by the cardinality cap."""
    registry.inc("obs.labels.overflow")


class Counter:
    """A monotonically increasing count (float-valued: MB counters)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount


class Gauge:
    """A last-value-wins measurement (e.g. configured worker count)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A summary histogram: count, sum, min, max, plus fixed buckets.

    The summary quartet (count/sum/min/max) is what regressions are
    spotted with; the fixed-boundary bucket vector (:data:`BUCKET_BOUNDS`)
    adds enough shape to derive p50/p95/p99 without storing samples, and
    merges element-wise across worker processes.
    """

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        self.buckets[bisect_left(BUCKET_BOUNDS, v)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """An interpolated quantile estimate from the bucket counts.

        Linear interpolation inside the containing bucket, clamped to
        the observed ``[min, max]``; exact when all mass shares one
        bucket, else accurate to the half-decade bucket width.  Returns
        ``0.0`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cum = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if cum + n >= target:
                lo = BUCKET_BOUNDS[i - 1] if i > 0 else min(self.min, BUCKET_BOUNDS[0])
                hi = (
                    BUCKET_BOUNDS[i]
                    if i < len(BUCKET_BOUNDS)
                    else max(self.max, BUCKET_BOUNDS[-1])
                )
                frac = (target - cum) / n
                v = lo + frac * (hi - lo)
                return min(max(v, self.min), self.max)
            cum += n
        # reachable only when bucket counts undercount ``count`` (a
        # merged v1 snapshot carried no buckets): fall back to the max
        return self.max

    def combine(self, other: "Histogram") -> None:
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n


class Timer:
    """Scoped wall-clock timer; observes elapsed seconds on exit.

    Usage::

        reg = active()
        with (reg.timer("sim.replay_seconds") if reg else nullcontext()):
            ...

    or, when a registry is known to be present, simply
    ``with registry.timer(name): ...``.
    """

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Metric names are dotted strings (``"layer.thing"``, e.g.
    ``"numerics.golden.iterations"``); the catalogue lives in
    ``docs/OBSERVABILITY.md``.  Instruments are created on first use.

    Every accessor takes an optional ``labels`` mapping; a labeled call
    records into a per-label-set series keyed ``name{k=v,...}``.  The
    unlabeled path is untouched (one ``None`` test), so the hot
    simulation loops pay nothing for the label dimension.  Distinct
    label sets per base name are capped at ``label_limit``; the
    overflow path folds into the unlabeled base series (see
    :data:`OVERFLOW_COUNTER`).
    """

    __slots__ = (
        "_counters",
        "_gauges",
        "_histograms",
        "_label_sets",
        "_series_keys",
        "label_limit",
    )

    def __init__(self, *, label_limit: int = DEFAULT_LABEL_LIMIT) -> None:
        if label_limit < 1:
            raise ValueError(f"label limit must be >= 1, got {label_limit}")
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: admitted label sets per base metric name (all kinds pooled)
        self._label_sets: dict[str, int] = {}
        #: memoised encode_series keys by ``(name, *label items)``, for
        #: label sets whose values are all ``str`` (another type may
        #: compare equal to a value that encodes differently: ``1 == True``)
        self._series_keys: dict[tuple[Any, ...], str] = {}
        self.label_limit = label_limit

    # -- label-series admission -----------------------------------------
    def _admit(self, base: str, key: str) -> str:
        """Admit a *new* labeled series key, or clip it to ``base``."""
        admitted = self._label_sets.get(base, 0)
        if admitted >= self.label_limit:
            _record_overflow(self)
            return base
        self._label_sets[base] = admitted + 1
        return key

    def _series_key(self, name: str, labels: Mapping[str, Any]) -> str:
        """:func:`encode_series`, memoised: a repeated label set costs one
        dict lookup instead of a sort, a regex match and a regex sub."""
        memo = (name, *labels.items())
        try:
            return self._series_keys[memo]
        except KeyError:
            pass
        except TypeError:  # an unhashable label value: encode it every time
            return encode_series(name, labels)
        key = encode_series(name, labels)
        if all(type(value) is str for value in labels.values()):
            if len(self._series_keys) >= SERIES_KEY_MEMO_LIMIT:
                self._series_keys.clear()
            self._series_keys[memo] = key
        return key

    def _series(
        self, name: str, labels: Mapping[str, Any], family: dict[str, Any]
    ) -> str:
        key = self._series_key(name, labels)
        if key in family:
            return key
        return self._admit(name, key)

    # -- instrument accessors (get-or-create) ---------------------------
    def counter(self, name: str, labels: Mapping[str, Any] | None = None) -> Counter:
        if labels:
            name = self._series(name, labels, self._counters)
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str, labels: Mapping[str, Any] | None = None) -> Gauge:
        if labels:
            name = self._series(name, labels, self._gauges)
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str, labels: Mapping[str, Any] | None = None) -> Histogram:
        if labels:
            name = self._series(name, labels, self._histograms)
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    # -- one-shot conveniences (the instrumentation sites use these) ----
    def inc(
        self,
        name: str,
        amount: float = 1.0,
        labels: Mapping[str, Any] | None = None,
    ) -> None:
        self.counter(name, labels).inc(amount)

    def set_gauge(
        self, name: str, value: float, labels: Mapping[str, Any] | None = None
    ) -> None:
        self.gauge(name, labels).set(value)

    def observe(
        self, name: str, value: float, labels: Mapping[str, Any] | None = None
    ) -> None:
        self.histogram(name, labels).observe(value)

    def timer(self, name: str, labels: Mapping[str, Any] | None = None) -> Timer:
        return Timer(self.histogram(name, labels))

    # -- serialisation / merging ----------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready snapshot (histogram min/max ``None`` when empty)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: {
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    "buckets": list(h.buckets),
                    "p50": h.quantile(0.50) if h.count else None,
                    "p95": h.quantile(0.95) if h.count else None,
                    "p99": h.quantile(0.99) if h.count else None,
                }
                for k, h in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MetricsRegistry":
        reg = cls()
        reg.merge_dict(data)
        return reg

    def _merge_key(self, key: str, family: dict[str, Any]) -> str:
        """Admission for snapshot keys: labeled series arriving from a
        worker count against the cardinality cap exactly like live
        recordings (merging must not grow the registry without bound)."""
        if "{" not in key or key in family:
            return key
        return self._admit(key.split("{", 1)[0], key)

    @staticmethod
    def _relabel(key: str, extra_labels: Mapping[str, Any]) -> str:
        """Rewrite a snapshot series key with ``extra_labels`` folded in.

        An unlabeled key gains a label set; an existing label set is
        extended (incoming labels win on collision, so an aggregator can
        stamp an authoritative ``worker`` dimension).  Used by the serve
        supervisor to keep per-worker series distinguishable after
        fan-in.
        """
        name, labels = decode_series(key)
        merged = {**labels, **extra_labels}
        return encode_series(name, merged)

    def merge_dict(
        self,
        data: dict[str, Any],
        *,
        extra_labels: Mapping[str, Any] | None = None,
    ) -> None:
        """Fold a worker snapshot in: counters/histograms add, gauges
        take the incoming value.  Labeled series (``name{k=v,...}``
        keys, report schema /3) merge per label set.

        ``extra_labels`` stamps every incoming series (labeled or not)
        with additional labels before admission -- the multi-worker
        daemon supervisor merges each worker's registry with
        ``{"worker": i}`` so one scrape endpoint exposes per-worker
        series.  Relabeled series still count against the cardinality
        cap; past it they clip to the unlabeled base exactly like live
        recordings.
        """
        def key_of(name: str) -> str:
            if extra_labels:
                return self._relabel(name, extra_labels)
            return name

        for name, value in data.get("counters", {}).items():
            self.counter(self._merge_key(key_of(name), self._counters)).value += float(value)
        for name, value in data.get("gauges", {}).items():
            self.gauge(self._merge_key(key_of(name), self._gauges)).set(float(value))
        for name, summary in data.get("histograms", {}).items():
            h = self.histogram(self._merge_key(key_of(name), self._histograms))
            count = int(summary["count"])
            if count == 0:
                continue
            h.count += count
            h.sum += float(summary["sum"])
            h.min = min(h.min, float(summary["min"]))
            h.max = max(h.max, float(summary["max"]))
            # v1 snapshots carry no bucket vector; quantiles then
            # degrade (see Histogram.quantile) but nothing breaks
            buckets = summary.get("buckets")
            if buckets is not None and len(buckets) == len(h.buckets):
                for i, n in enumerate(buckets):
                    h.buckets[i] += int(n)

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_dict(other.as_dict())


# ----------------------------------------------------------------------
# the process-global default registry
# ----------------------------------------------------------------------
_active: MetricsRegistry | None = None


def active() -> MetricsRegistry | None:
    """The currently installed registry, or ``None`` when disabled.

    This is *the* hot-path guard: instrumentation sites call it once,
    keep the result in a local, and skip all recording when it is
    ``None``.
    """
    return _active


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the process default."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable() -> None:
    """Remove the process default; instrumentation reverts to no-op."""
    global _active
    _active = None


@contextmanager
def use(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Temporarily install a registry (tests, worker processes)."""
    global _active
    previous = _active
    installed = registry if registry is not None else MetricsRegistry()
    _active = installed
    try:
        yield installed
    finally:
        _active = previous
