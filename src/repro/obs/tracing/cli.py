"""The ``repro trace`` front end: inspect and convert JSONL traces.

Subcommands::

    repro trace summary t.json              # event census + time range
    repro trace filter t.json --cat link    # subset -> JSONL (stdout/-o)
    repro trace timeline t.json             # link-utilization series
    repro trace export t.json --chrome      # Perfetto / chrome://tracing
    repro trace diff a.json b.json          # per-category deltas

All subcommands read the schema ``repro.obs.trace/1`` JSONL files that
``--trace PATH`` writes (see ``docs/OBSERVABILITY.md``).  Exit status:
0 on success, 2 on a usage error, and 141 (128 + SIGPIPE, what a shell
reports for a reader-killed writer) when stdout closes before the output
is written, as in ``repro trace summary t.jsonl | head -1``; that case
prints nothing to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import IO, Any

from repro.obs.tracing.export import (
    TRACE_SCHEMA,
    dumps_chrome_trace,
    load_trace,
    write_events,
)
from repro.obs.tracing.recorder import TraceEvent
from repro.obs.tracing.timeline import burstiness, link_timeline, render_timeline

__all__ = ["EXIT_BROKEN_PIPE", "main"]

#: exit status when the reader closes stdout early
EXIT_BROKEN_PIPE = 141


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-checkpoint trace",
        description="Inspect JSONL event traces written by --trace PATH.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_summary = sub.add_parser("summary", help="event census, tracks and time range")
    p_summary.add_argument("path", help="trace file written by --trace")

    p_filter = sub.add_parser("filter", help="subset a trace into a new JSONL trace")
    p_filter.add_argument("path")
    p_filter.add_argument("--cat", default=None, help="keep only this category")
    p_filter.add_argument("--name", default=None, help="keep only this event name")
    p_filter.add_argument("--track", default=None, help="keep only this track")
    p_filter.add_argument("--since", type=float, default=None, metavar="T", help="keep events with ts >= T")
    p_filter.add_argument("--until", type=float, default=None, metavar="T", help="keep events with ts <= T")
    p_filter.add_argument("-o", "--out", default=None, help="output path (default: stdout)")

    p_timeline = sub.add_parser(
        "timeline", help="link-utilization time series + burstiness statistics"
    )
    p_timeline.add_argument("path")
    p_timeline.add_argument("--bins", type=int, default=60, help="number of time bins")
    p_timeline.add_argument(
        "--bin-seconds", type=float, default=None, help="fixed bin width (overrides --bins)"
    )

    p_export = sub.add_parser("export", help="convert to another trace format")
    p_export.add_argument("path")
    p_export.add_argument(
        "--chrome",
        action="store_true",
        help="Chrome trace-event JSON (load in Perfetto or chrome://tracing)",
    )
    p_export.add_argument("-o", "--out", default=None, help="output path (default: stdout)")

    p_diff = sub.add_parser("diff", help="compare two traces per (category, name)")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    return parser


def main(argv: list[str], stdout: IO[str] | None = None) -> int:
    sink = stdout if stdout is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        status = _run(args, sink)
        sink.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader is gone: send the rest, and the interpreter's
        # flush at exit, to /dev/null instead of a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _run(args: argparse.Namespace, sink: IO[str]) -> int:
    if args.subcommand == "summary":
        header, events = load_trace(args.path)
        print(_render_summary(header, events), file=sink)
        return 0
    if args.subcommand == "filter":
        return _run_filter(args, sink)
    if args.subcommand == "timeline":
        _, events = load_trace(args.path)
        timeline = link_timeline(events, n_bins=args.bins, bin_seconds=args.bin_seconds)
        print(render_timeline(timeline, burstiness(events)), file=sink)
        return 0
    if args.subcommand == "export":
        if not args.chrome:
            print("trace export: specify a format (--chrome)", file=sys.stderr)
            return 2
        header, events = load_trace(args.path)
        text = dumps_chrome_trace(events, meta=header.get("meta") or None)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
                fh.write("\n")
            print(f"[chrome trace written to {args.out}]", file=sink)
        else:
            print(text, file=sink)
        return 0
    if args.subcommand == "diff":
        _, events_a = load_trace(args.a)
        _, events_b = load_trace(args.b)
        print(_render_diff(args.a, events_a, args.b, events_b), file=sink)
        return 0
    raise AssertionError(f"unhandled subcommand {args.subcommand!r}")  # pragma: no cover


def _run_filter(args: argparse.Namespace, sink: IO[str]) -> int:
    header, events = load_trace(args.path)
    kept: list[TraceEvent] = []
    for ev in events:
        if args.cat is not None and ev.get("cat") != args.cat:
            continue
        if args.name is not None and ev.get("name") != args.name:
            continue
        if args.track is not None and ev.get("track") != args.track:
            continue
        ts = float(ev["ts"])
        if args.since is not None and ts < args.since:
            continue
        if args.until is not None and ts > args.until:
            continue
        kept.append(ev)
    meta = dict(header.get("meta") or {})
    meta["filtered_from"] = args.path
    if args.out:
        write_events(args.out, kept, meta=meta)
        print(f"[{len(kept)} events written to {args.out}]", file=sink)
    else:
        write_events(sink, kept, meta=meta)
    return 0


def _render_summary(header: dict[str, Any], events: list[TraceEvent]) -> str:
    lines: list[str] = []
    title = f"trace summary — {len(events):,} events"
    lines.append(title)
    lines.append("=" * len(title))
    meta = header.get("meta") or {}
    if meta.get("command"):
        lines.append(f"command: {meta['command']}")
    n_dropped = int(header.get("n_dropped", 0))
    n_sampled = int(header.get("n_sampled_out", 0))
    if n_dropped or n_sampled:
        lines.append(
            f"bounded capture: {n_dropped:,} dropped (ring buffer), "
            f"{n_sampled:,} sampled out"
        )
    if events:
        t0 = min(float(ev["ts"]) for ev in events)
        t1 = max(float(ev["ts"]) + float(ev.get("dur", 0.0)) for ev in events)
        tracks = {str(ev["track"]) for ev in events if "track" in ev}
        lines.append(f"sim time: {t0:,.1f}s .. {t1:,.1f}s ({t1 - t0:,.1f}s)")
        lines.append(f"tracks: {len(tracks)}")
        counts: dict[tuple[str, str], int] = {}
        span_time: dict[tuple[str, str], float] = {}
        for ev in events:
            key = (str(ev["cat"]), str(ev["name"]))
            counts[key] = counts.get(key, 0) + 1
            if "dur" in ev:
                span_time[key] = span_time.get(key, 0.0) + float(ev["dur"])
        lines.append("")
        lines.append(f"{'category.name':<28} {'count':>10}  {'span seconds':>14}")
        for key in sorted(counts):
            label = f"{key[0]}.{key[1]}"
            dur = span_time.get(key)
            dur_text = f"{dur:>14,.1f}" if dur is not None else f"{'-':>14}"
            lines.append(f"{label:<28} {counts[key]:>10,}  {dur_text}")
    else:
        lines.append("(empty trace)")
    return "\n".join(lines)


def _census(events: list[TraceEvent]) -> dict[tuple[str, str], tuple[int, float, float]]:
    """Per-(cat, name): (count, span seconds, megabytes)."""
    out: dict[tuple[str, str], tuple[int, float, float]] = {}
    for ev in events:
        key = (str(ev["cat"]), str(ev["name"]))
        count, dur, mb = out.get(key, (0, 0.0, 0.0))
        args = ev.get("args")
        ev_mb = float(args.get("mb", 0.0)) if isinstance(args, dict) else 0.0
        out[key] = (count + 1, dur + float(ev.get("dur", 0.0)), mb + ev_mb)
    return out


def _render_diff(
    label_a: str, events_a: list[TraceEvent], label_b: str, events_b: list[TraceEvent]
) -> str:
    census_a = _census(events_a)
    census_b = _census(events_b)
    lines: list[str] = []
    title = f"trace diff — A: {label_a} ({len(events_a):,} events)  B: {label_b} ({len(events_b):,} events)"
    lines.append(title)
    lines.append("=" * len(title))
    lines.append("")
    lines.append(
        f"{'category.name':<28} {'count A':>10} {'count B':>10} "
        f"{'Δspan s':>12} {'ΔMB':>12}"
    )
    for key in sorted(set(census_a) | set(census_b)):
        count_a, dur_a, mb_a = census_a.get(key, (0, 0.0, 0.0))
        count_b, dur_b, mb_b = census_b.get(key, (0, 0.0, 0.0))
        lines.append(
            f"{key[0] + '.' + key[1]:<28} {count_a:>10,} {count_b:>10,} "
            f"{dur_b - dur_a:>+12,.1f} {mb_b - mb_a:>+12,.3f}"
        )
    # the wire total uses link transfers only -- the per-row MB column
    # also counts e.g. checkpoint-span sizes, which would double-count
    total_a = census_a.get(("link", "transfer"), (0, 0.0, 0.0))[2]
    total_b = census_b.get(("link", "transfer"), (0, 0.0, 0.0))[2]
    lines.append("")
    lines.append(
        f"wire MB: A {total_a:,.3f}  B {total_b:,.3f}  Δ {total_b - total_a:+,.3f}"
        + (
            f" ({100.0 * (total_b - total_a) / total_a:+.1f}%)"
            if total_a > 0
            else ""
        )
    )
    return "\n".join(lines)
