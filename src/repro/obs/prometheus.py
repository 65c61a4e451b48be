"""Prometheus text-format exposition over a :class:`MetricsRegistry`.

The serving daemon's ``--metrics-port`` endpoint (and anything else
wanting a scrape surface) renders the process-global registry into the
Prometheus text exposition format, version 0.0.4 -- dependency-free, as
everything in ``repro.obs``:

* dotted metric names mangle to underscores under a ``repro_``
  namespace (``serve.requests`` -> ``repro_serve_requests_total``);
* counters get the conventional ``_total`` suffix, gauges stay bare;
* summary histograms expand into cumulative ``_bucket{le=...}``
  samples over the shared :data:`~repro.obs.metrics.BUCKET_BOUNDS`
  plus the ``_sum`` / ``_count`` pair;
* labeled series (``name{k=v,...}`` snapshot keys, see
  :func:`~repro.obs.metrics.encode_series`) become label sets on the
  shared family, values escaped per the exposition grammar.

:func:`parse_prometheus_text` is the matching minimal parser: it
validates the grammar (the serve soak runs it against every mid-run
scrape, and the tests against every rendering) and returns the samples
for programmatic checks.
"""

from __future__ import annotations

import math
import re
from typing import Any

from repro.obs.metrics import BUCKET_BOUNDS, MetricsRegistry, decode_series

__all__ = ["PrometheusParseError", "parse_prometheus_text", "render_prometheus"]

_IDENT_BAD = re.compile(r"[^a-zA-Z0-9_:]")

#: one exposition sample: ``name{labels} value`` (timestamp column unused)
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[-+]?(?:[0-9.eE+-]+|Inf|NaN))$"
)
_LABEL_RE = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')


def _ident(name: str, *, namespace: str) -> str:
    return f"{namespace}_{_IDENT_BAD.sub('_', name)}"


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_block(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items()))
    return f"{{{body}}}"


def _families(
    section: dict[str, Any],
) -> dict[str, list[tuple[dict[str, str], Any]]]:
    """Group a snapshot section's series by base metric name."""
    families: dict[str, list[tuple[dict[str, str], Any]]] = {}
    for key in sorted(section):
        base, labels = decode_series(key)
        families.setdefault(base, []).append((labels, section[key]))
    return families


def render_prometheus(
    registry: MetricsRegistry, *, namespace: str = "repro"
) -> str:
    """The registry as Prometheus text exposition (one trailing newline)."""
    snapshot = registry.as_dict()
    lines: list[str] = []

    for base, series in _families(snapshot["counters"]).items():
        ident = f"{_ident(base, namespace=namespace)}_total"
        lines.append(f"# HELP {ident} repro counter {base}")
        lines.append(f"# TYPE {ident} counter")
        for labels, value in series:
            lines.append(f"{ident}{_label_block(labels)} {_format_value(float(value))}")

    for base, series in _families(snapshot["gauges"]).items():
        ident = _ident(base, namespace=namespace)
        lines.append(f"# HELP {ident} repro gauge {base}")
        lines.append(f"# TYPE {ident} gauge")
        for labels, value in series:
            lines.append(f"{ident}{_label_block(labels)} {_format_value(float(value))}")

    for base, series in _families(snapshot["histograms"]).items():
        ident = _ident(base, namespace=namespace)
        lines.append(f"# HELP {ident} repro histogram {base}")
        lines.append(f"# TYPE {ident} histogram")
        for labels, summary in series:
            buckets = summary.get("buckets") or [0] * (len(BUCKET_BOUNDS) + 1)
            cumulative = 0
            for bound, count in zip(BUCKET_BOUNDS, buckets):
                cumulative += int(count)
                bucket_labels = dict(labels)
                bucket_labels["le"] = _format_value(bound)
                lines.append(f"{ident}_bucket{_label_block(bucket_labels)} {cumulative}")
            total = int(summary["count"])
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            lines.append(f"{ident}_bucket{_label_block(inf_labels)} {total}")
            lines.append(
                f"{ident}_sum{_label_block(labels)} {_format_value(float(summary['sum']))}"
            )
            lines.append(f"{ident}_count{_label_block(labels)} {total}")

    return "\n".join(lines) + "\n"


class PrometheusParseError(ValueError):
    """The scraped body violates the text exposition grammar."""


def _parse_labels(body: str | None) -> dict[str, str]:
    labels: dict[str, str] = {}
    if not body:
        return labels
    for part in body.rstrip(",").split(","):
        match = _LABEL_RE.match(part.strip())
        if match is None:
            raise PrometheusParseError(f"malformed label pair {part!r}")
        labels[match.group("key")] = match.group("value")
    return labels


def parse_prometheus_text(text: str) -> list[tuple[str, dict[str, str], float]]:
    """Validate a text-format exposition body; returns ``(name, labels,
    value)`` samples.

    Checks the line grammar (comments, samples), that every sample's
    family was TYPE-declared before use, and that histogram ``_bucket``
    series are cumulative in ``le``.  Raises
    :class:`PrometheusParseError` on any violation.
    """
    samples: list[tuple[str, dict[str, str], float]] = []
    typed: dict[str, str] = {}
    bucket_last: dict[str, int] = {}
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                if parts[2] in typed:
                    raise PrometheusParseError(
                        f"line {i}: duplicate TYPE for {parts[2]!r}"
                    )
                typed[parts[2]] = parts[3] if len(parts) > 3 else ""
            elif len(parts) >= 2 and parts[1] not in ("HELP", "TYPE"):
                raise PrometheusParseError(f"line {i}: unknown comment {line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise PrometheusParseError(f"line {i}: not a valid sample: {line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels"))
        value = float(match.group("value").replace("Inf", "inf").replace("NaN", "nan"))
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            stem = name[: -len(suffix)]
            if name.endswith(suffix) and typed.get(stem) == "histogram":
                family = stem
                break
        if family not in typed:
            raise PrometheusParseError(
                f"line {i}: sample {name!r} has no preceding TYPE declaration"
            )
        if name.endswith("_bucket") and typed.get(family) == "histogram":
            series = name + repr(sorted((k, v) for k, v in labels.items() if k != "le"))
            previous = bucket_last.get(series, 0)
            if int(value) < previous:
                raise PrometheusParseError(
                    f"line {i}: histogram buckets not cumulative for {name!r}"
                )
            bucket_last[series] = int(value)
        samples.append((name, labels, value))
    return samples
