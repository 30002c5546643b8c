"""Render a pipeline trace: timeline, per-phase rollup, hottest rules.

Usage::

    python -m repro.tools.trace_report trace.jsonl [--top N] [--max-depth D]

Reads the JSONL trace that ``REPRO_TRACE=trace.jsonl`` produces,
rebuilds the span tree, and prints three sections:

1. a **timeline**: every span in start order, indented by nesting
   depth, with its offset from trace start, duration, and a compact
   payload summary;
2. a **per-phase rollup**: per span name, the total wall clock and
   call count, then every payload attr: numbers as a total and a max,
   booleans and strings tallied per value, dicts summed key by key;
3. the **top-N hottest rules** by e-match time over every ``eqsat``
   span, with each rule's share, node visits and merges.

The rollup names no span or attr, so whatever a layer records shows
up in it; the span table of ``docs/observability.md`` is its legend.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Per-rule maps, which the rollup leaves out: the hottest-rules section
# reads the first three (``applied`` repeats ``rule_unions``' merges).
_PER_RULE = ("rule_match_time", "rule_node_visits", "rule_unions", "applied")

# A tallied attr with more distinct values than this (kernel names,
# fingerprints) shows only how many distinct values it has.
_MAX_TALLY = 8


def load_events(path) -> list[dict]:
    """Parse a JSONL trace file into a list of span event dicts.

    Blank lines are skipped; a line that is not a JSON object (with an
    object ``attrs``, if any) raises ``ValueError`` naming the line
    number (truncated traces from a killed process are better
    diagnosed loudly than silently dropped).
    """
    events = []
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{lineno}: not valid JSON ({exc})"
            ) from None
        if not (isinstance(event, dict)
                and isinstance(event.get("attrs", {}), dict)):
            raise ValueError(f"{path}:{lineno}: not a span object")
        events.append(event)
    return events


def _depths(events: list[dict]) -> dict[int, int]:
    """Nesting depth per span id (roots at 0).

    Parent links can cross process boundaries in merged traces, so a
    dangling parent id is treated as a root rather than an error.
    """
    by_id = {e["id"]: e for e in events if "id" in e}
    depths: dict[int, int] = {}

    def depth_of(span_id: int) -> int:
        if span_id in depths:
            return depths[span_id]
        event = by_id[span_id]
        parent = event.get("parent")
        if parent is None or parent not in by_id:
            d = 0
        else:
            d = depth_of(parent) + 1
        depths[span_id] = d
        return d

    for event in by_id.values():
        depth_of(event["id"])
    return depths


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _notes(attrs: dict, limit: int = 5) -> str:
    parts = []
    for key, value in attrs.items():
        if isinstance(value, (dict, list)):
            continue
        parts.append(f"{key}={_fmt_value(value)}")
        if len(parts) >= limit:
            break
    return " ".join(parts)


def timeline_table(events: list[dict], max_depth: int | None = None) -> str:
    """The indented start-ordered span table."""
    spans = [e for e in events if "id" in e and "ts" in e]
    if not spans:
        return "(empty trace)"
    depths = _depths(spans)
    t0 = min(e["ts"] for e in spans)
    spans.sort(key=lambda e: (e["ts"], e["id"]))
    lines = [f"{'offset':>10}  {'duration':>10}  span", "-" * 72]
    for event in spans:
        depth = depths[event["id"]]
        if max_depth is not None and depth > max_depth:
            continue
        name = "  " * depth + event["name"]
        notes = _notes(event.get("attrs", {}))
        lines.append(
            f"{(event['ts'] - t0) * 1e3:>8.1f}ms"
            f"  {event.get('dur', 0.0) * 1e3:>8.1f}ms"
            f"  {name}" + (f"  [{notes}]" if notes else "")
        )
    return "\n".join(lines)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def rollup(events: list[dict]) -> dict[str, dict]:
    """Per span name: ``dur`` (total seconds), ``calls`` and ``attrs``,
    which maps each payload key (first-seen order, per-rule maps left
    out) to ``total`` and ``max`` for numbers, ``tally`` (value ->
    count) for booleans, strings and nulls, and ``sums`` (key -> total)
    for dicts of numbers."""
    rows: dict[str, dict] = {}
    for event in events:
        name = event.get("name")
        if name is None:
            continue
        row = rows.setdefault(name, {"dur": 0.0, "calls": 0, "attrs": {}})
        row["dur"] += event.get("dur", 0.0)
        row["calls"] += 1
        for key, value in event.get("attrs", {}).items():
            if key in _PER_RULE:
                continue
            summary = row["attrs"].setdefault(key, {})
            if _is_number(value):
                summary["total"] = summary.get("total", 0) + value
                summary["max"] = max(summary.get("max", value), value)
            elif isinstance(value, dict):
                sums = summary.setdefault("sums", {})
                for k, v in value.items():
                    if _is_number(v):
                        sums[k] = sums.get(k, 0) + v
            elif value is None or isinstance(value, (bool, str)):
                tally = summary.setdefault("tally", {})
                tally[value] = tally.get(value, 0) + 1
    return rows


def _summary(summary: dict) -> str:
    parts = []
    if "total" in summary:
        parts.append(
            f"total {_fmt_value(summary['total'])}"
            f"  max {_fmt_value(summary['max'])}"
        )
    tally = summary.get("tally", {})
    if len(tally) > _MAX_TALLY:
        parts.append(f"{len(tally)} distinct values")
    elif tally:
        ranked = sorted(tally.items(), key=lambda kv: (-kv[1], str(kv[0])))
        parts.append(", ".join(f"{_fmt_value(v)} x{n}" for v, n in ranked))
    if summary.get("sums"):
        sums = summary["sums"].items()
        parts.append(" ".join(f"{k}={_fmt_value(v)}" for k, v in sums))
    return "; ".join(parts)


def phase_rollup(events: list[dict]) -> str:
    """Per span name: total wall clock, call count and attr summaries.

    Nested spans of the same name (e.g. every ``eqsat`` call) are all
    counted, so the rollup answers "where did the time go by stage",
    not "what fraction of the total" — parents include children.
    """
    rows = rollup(events)
    if not rows:
        return "(no spans in this trace)"
    lines = [f"{'total':>10}  {'calls':>6}  span name / attr", "-" * 72]
    for name, row in sorted(
        rows.items(), key=lambda kv: (-kv[1]["dur"], kv[0])
    ):
        lines.append(
            f"{row['dur'] * 1e3:>8.1f}ms  {row['calls']:>6}  {name}"
        )
        for key, summary in row["attrs"].items():
            lines.append(f"{'':>20}    {key}: {_summary(summary)}")
    return "\n".join(lines)


def hottest_rules(events: list[dict], top: int = 10) -> str:
    """Top-``top`` rules by e-match time summed over the trace.

    Each row shows the rule's share of all match time, its match time,
    its node visits and its merges, summed from the ``rule_unions``
    maps only (an iteration's ``applied`` map counts the same merges
    again).  A ``*`` marks a rule with match time and zero merges; the
    last line counts such rules across the whole trace.
    """
    totals = {key: {} for key in _PER_RULE[:3]}
    for event in events:
        attrs = event.get("attrs", {})
        for key, total in totals.items():
            for rule, value in (attrs.get(key) or {}).items():
                total[rule] = total.get(rule, 0) + value
    match_time, visits, unions = totals.values()
    if not match_time:
        return "(no rule-level counters in this trace)"
    all_time = sum(match_time.values()) or 1.0
    idle = {r for r, t in match_time.items() if t > 0.0 and not unions.get(r)}
    lines = [
        f"{'share':>7}  {'match time':>12}  {'node visits':>12}"
        f"  {'merges':>8}  rule",
        "-" * 72,
    ]
    for rule, t in sorted(
        match_time.items(), key=lambda kv: (-kv[1], kv[0])
    )[:top]:
        merges = f"{unions.get(rule, 0)}{'*' if rule in idle else ''}"
        lines.append(
            f"{t / all_time:>6.1%}  {t * 1e3:>10.1f}ms"
            f"  {visits.get(rule, 0):>12}  {merges:>8}  {rule}"
        )
    lines.append(
        f"{len(idle)} of {len(match_time)} rules spent match time "
        "without a merge (* = zero merges)"
    )
    return "\n".join(lines)


def render_report(
    events: list[dict], top: int = 10, max_depth: int | None = None
) -> str:
    """The full three-section report as one string."""
    return "\n".join([
        "== timeline ==",
        timeline_table(events, max_depth=max_depth),
        "",
        "== per-phase rollup ==",
        phase_rollup(events),
        "",
        f"== hottest rules (top {top} by match time) ==",
        hottest_rules(events, top=top),
    ])


def _count(text: str) -> int:
    """An argparse type: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.trace_report",
        description="Render a REPRO_TRACE JSONL file as a timeline.",
    )
    parser.add_argument("trace", help="path to the JSONL trace file")
    parser.add_argument(
        "--top", type=_count, default=10,
        help="how many hottest rules to list (default 10)",
    )
    parser.add_argument(
        "--max-depth", type=_count, default=None,
        help="hide timeline spans nested deeper than this",
    )
    args = parser.parse_args(argv)
    try:
        events = load_events(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_report(events, top=args.top, max_depth=args.max_depth))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
