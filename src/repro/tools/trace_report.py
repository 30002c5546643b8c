"""Render a pipeline trace as a per-phase timeline + hottest rules.

Usage::

    python -m repro.tools.trace_report trace.jsonl [--top N] [--max-depth D]

Reads the JSONL trace that ``REPRO_TRACE=trace.jsonl`` produces (see
``docs/observability.md`` for the span schema), rebuilds the span
tree, and prints:

1. a **timeline table**: every span in start order, indented by
   nesting depth, with its offset from trace start, duration, and a
   compact payload summary;
2. a **phase rollup**: total wall-clock per span name;
3. a **pipeline pass rollup**: wall-clock per ``pass.<name>`` span —
   the span-level view of ``CompileReport.pass_times()``, aggregated
   across every compilation in the trace;
4. a **service rollup**: compile-server health from ``service.*``
   records — queue wait, batch size, and the result-cache / in-flight
   dedupe hit rates (see ``docs/service.md``);
5. an **isa rollup**: per-ISA-family cycles, lane utilization, and
   masked-op share from the ``machine.run`` records every simulator
   run emits;
6. a **synthesis rollup**: per-term-size enumeration timings and the
   verify batching counters carried by ``synthesize.*`` spans (the
   span-level view of ``SynthesisPerf``);
7. a **minimize rollup**: the rule-count funnel of the minimization
   stages — dominated-rule cost pruning and the derivability shrink —
   from the ``synthesize.cost_prune`` / ``synthesize.minimize``
   records;
8. the **top-N hottest rules** by cumulative e-match time, aggregated
   from the ``SaturationPerf`` payloads of every ``eqsat`` span;
9. a **scheduling rollup**: every rule's match-time share next to the
   merges it bought, flagging the zero-merge rules.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Payload keys hidden from the timeline "notes" column: per-rule
# breakdowns (aggregated separately) and raw per-iteration apply maps.
_NOISY_KEYS = ("rule_match_time", "rule_node_visits", "applied")


def load_events(path) -> list[dict]:
    """Parse a JSONL trace file into a list of span event dicts.

    Blank lines are skipped; a malformed line raises ``ValueError``
    naming the line number (truncated traces from a killed process are
    better diagnosed loudly than silently dropped).
    """
    events = []
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{lineno}: not valid JSON ({exc})"
            ) from None
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
        if key in _NOISY_KEYS or isinstance(value, (dict, list)):
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
    lines = [f"{'offset':>10}  {'duration':>10}  span"]
    lines.append("-" * 72)
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


def phase_rollup(events: list[dict]) -> str:
    """Total wall-clock and span count per span name.

    Nested spans of the same name (e.g. every ``eqsat`` call) are all
    counted, so the rollup answers "where did the time go by stage",
    not "what fraction of the total" — parents include children.
    """
    totals: dict[str, tuple[float, int]] = {}
    for event in events:
        name = event.get("name")
        if name is None:
            continue
        dur, count = totals.get(name, (0.0, 0))
        totals[name] = (dur + event.get("dur", 0.0), count + 1)
    lines = [f"{'total':>10}  {'calls':>6}  span name"]
    lines.append("-" * 44)
    for name, (dur, count) in sorted(
        totals.items(), key=lambda kv: -kv[1][0]
    ):
        lines.append(f"{dur * 1e3:>8.1f}ms  {count:>6}  {name}")
    return "\n".join(lines)


def pass_rollup(events: list[dict]) -> str:
    """Wall-clock per pipeline pass, aggregated across compilations.

    Reads the ``pass.<name>`` spans the pass pipeline emits (see
    :mod:`repro.compiler.pipeline`); skipped runs (ablation options,
    disabled validation) are counted separately so the ok-call timings
    stay comparable.
    """
    totals: dict[str, tuple[float, int, int]] = {}
    for event in events:
        name = event.get("name", "")
        if not name.startswith("pass."):
            continue
        attrs = event.get("attrs", {})
        dur, count, skipped = totals.get(name[5:], (0.0, 0, 0))
        if attrs.get("status") == "skipped":
            skipped += 1
        else:
            dur += event.get("dur", 0.0)
            count += 1
        totals[name[5:]] = (dur, count, skipped)
    if not totals:
        return "(no pipeline pass spans in this trace)"
    lines = [f"{'total':>10}  {'calls':>6}  {'skipped':>8}  pass"]
    lines.append("-" * 44)
    for name, (dur, count, skipped) in sorted(
        totals.items(), key=lambda kv: -kv[1][0]
    ):
        lines.append(
            f"{dur * 1e3:>8.1f}ms  {count:>6}  {skipped:>8}  {name}"
        )
    return "\n".join(lines)


def synthesis_rollup(events: list[dict]) -> str:
    """Offline-stage breakdown from ``synthesize.*`` spans.

    Shows per-term-size enumeration cost (time, terms constructed, new
    representatives — the ``SynthesisPerf`` per-size counters the
    enumerate span carries) and how many verified rule sides ran
    batched vs fell back to the per-environment loop after their
    batched rows raised, aggregated across every synthesis run in the
    trace.
    """
    size_times: dict[str, float] = {}
    size_terms: dict[str, int] = {}
    size_new: dict[str, int] = {}
    shards = 0
    batched_terms = 0
    legacy_terms = 0
    screened = 0
    seen = False
    for event in events:
        name = event.get("name", "")
        if not name.startswith("synthesize."):
            continue
        seen = True
        attrs = event.get("attrs", {})
        if name == "synthesize.enumerate":
            shards += attrs.get("shards", 0)
            for totals, key in (
                (size_times, "size_times"),
                (size_terms, "size_terms"),
                (size_new, "size_new"),
            ):
                for size, value in (attrs.get(key) or {}).items():
                    totals[size] = totals.get(size, 0) + value
        elif name == "synthesize.verify":
            batched_terms += attrs.get("batched_terms", 0)
            legacy_terms += attrs.get("legacy_terms", 0)
        elif name == "synthesize.minimize":
            screened += attrs.get("n_screened", 0)
    if not seen:
        return "(no synthesis spans in this trace)"
    lines = []
    if size_times:
        lines.append(f"{'size':>6}  {'time':>10}  {'terms':>8}  {'new':>8}")
        lines.append("-" * 40)
        for size in sorted(size_times, key=lambda s: int(s)):
            lines.append(
                f"{size:>6}"
                f"  {size_times[size] * 1e3:>8.1f}ms"
                f"  {size_terms.get(size, 0):>8}"
                f"  {size_new.get(size, 0):>8}"
            )
    lines.append(
        f"verify sides: {batched_terms} batched, "
        f"{legacy_terms} per-environment fallback"
        f"; minimize screened: {screened}; enumeration shards: {shards}"
    )
    return "\n".join(lines)


def minimize_rollup(events: list[dict]) -> str:
    """Ruleset-shrinking summary from the minimization-stage spans.

    Aggregates the ``synthesize.cost_prune`` records (dominated-rule
    pruning: rules in/kept, dominated drops, derivability rescues) and
    the ``synthesize.minimize`` records (derivability shrink: rules
    in/kept, unsound candidates screened) across every synthesis run
    in the trace — the span-level view of the rule-count funnel the
    offline stage applies before anything ships to a compiler.
    """
    prune_in = prune_kept = dominated = rescued = 0
    prune_time = 0.0
    min_in = min_kept = screened = 0
    min_time = 0.0
    seen = False
    for event in events:
        name = event.get("name", "")
        attrs = event.get("attrs", {})
        if name == "synthesize.cost_prune":
            seen = True
            prune_in += attrs.get("n_in", 0)
            prune_kept += attrs.get("n_kept", 0)
            dominated += attrs.get("n_dominated", 0)
            rescued += attrs.get("n_rescued", 0)
            prune_time += event.get("dur", 0.0)
        elif name == "synthesize.minimize":
            seen = True
            min_in += attrs.get("n_in", 0)
            min_kept += attrs.get("n_kept", 0)
            screened += attrs.get("n_screened", 0)
            min_time += event.get("dur", 0.0)
    if not seen:
        return "(no minimization spans in this trace)"
    lines = []
    if prune_in:
        lines.append(
            f"cost prune: {prune_in} -> {prune_kept} rules "
            f"({dominated} dominated, {rescued} rescued, "
            f"{prune_time * 1e3:.1f}ms)"
        )
    if min_in:
        lines.append(
            f"derivability shrink: {min_in} -> {min_kept} rules "
            f"({screened} screened unsound, {min_time * 1e3:.1f}ms)"
        )
    return "\n".join(lines) or "(no minimization spans in this trace)"


def hottest_rules(events: list[dict], top: int = 10) -> str:
    """Top-``top`` rules by cumulative e-match time across the trace."""
    match_time: dict[str, float] = {}
    node_visits: dict[str, int] = {}
    for event in events:
        attrs = event.get("attrs", {})
        for name, t in (attrs.get("rule_match_time") or {}).items():
            match_time[name] = match_time.get(name, 0.0) + t
        for name, n in (attrs.get("rule_node_visits") or {}).items():
            node_visits[name] = node_visits.get(name, 0) + n
    if not match_time:
        return "(no rule-level counters in this trace)"
    lines = [f"{'match time':>12}  {'node visits':>12}  rule"]
    lines.append("-" * 60)
    for name, t in sorted(
        match_time.items(), key=lambda kv: -kv[1]
    )[:top]:
        lines.append(
            f"{t * 1e3:>10.1f}ms  {node_visits.get(name, 0):>12}  {name}"
        )
    return "\n".join(lines)


def scheduling_rollup(events: list[dict]) -> str:
    """Rules ranked by match-time share, with productivity flags.

    Each rule's share of total e-match time next to how many merges
    that time actually bought, summed from the ``rule_unions`` counter
    of every ``eqsat`` span.  Rules with nonzero match time and
    **zero** merges are flagged.
    """
    match_time: dict[str, float] = {}
    unions: dict[str, int] = {}
    for event in events:
        attrs = event.get("attrs", {})
        for name, t in (attrs.get("rule_match_time") or {}).items():
            match_time[name] = match_time.get(name, 0.0) + t
        for name, n in (attrs.get("rule_unions") or {}).items():
            unions[name] = unions.get(name, 0) + n
    if not match_time:
        return "(no rule-level counters in this trace)"
    total = sum(match_time.values()) or 1.0
    lines = [f"{'share':>7}  {'match time':>12}  {'merges':>8}  rule"]
    lines.append("-" * 60)
    flagged = []
    for name, t in sorted(
        match_time.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        merged = unions.get(name, 0)
        note = ""
        if merged == 0 and t > 0.0:
            flagged.append(name)
            note = "  <- zero merges"
        lines.append(
            f"{t / total:>6.1%}  {t * 1e3:>10.1f}ms  {merged:>8}"
            f"  {name}{note}"
        )
    if flagged:
        lines.append(
            f"{len(flagged)} rule(s) spend match time without ever "
            "merging — zero-merge rules: " + ", ".join(flagged)
        )
    return "\n".join(lines)


def service_rollup(events: list[dict]) -> str:
    """Serve-loop health from ``service.*`` records.

    Aggregates the ``service.request`` records the compile server
    emits (one per compile request, carrying ``cache_hit``,
    ``deduped``, and the seconds the job sat queued before its batch
    started) and the ``service.batch`` records (one per compile_many
    dispatch, carrying the batch size).  The rates answer the
    capacity-planning questions in ``docs/service.md``: how much
    traffic the result cache and in-flight dedupe absorb, and whether
    queue wait — not compile time — is the latency driver.
    """
    requests = 0
    cache_hits = 0
    deduped = 0
    request_time = 0.0
    queue_total = 0.0
    queue_max = 0.0
    batches = 0
    batch_kernels = 0
    batch_max = 0
    batch_time = 0.0
    seen = False
    for event in events:
        name = event.get("name", "")
        if not name.startswith("service."):
            continue
        seen = True
        attrs = event.get("attrs", {})
        if name == "service.request":
            requests += 1
            request_time += event.get("dur", 0.0)
            if attrs.get("cache_hit"):
                cache_hits += 1
            if attrs.get("deduped"):
                deduped += 1
            wait = attrs.get("queue_s", 0.0)
            queue_total += wait
            queue_max = max(queue_max, wait)
        elif name == "service.batch":
            batches += 1
            n = attrs.get("n_kernels", 0)
            batch_kernels += n
            batch_max = max(batch_max, n)
            batch_time += event.get("dur", 0.0)
    if not seen:
        return "(no service records in this trace)"
    lines = []
    if requests:
        misses = requests - cache_hits - deduped
        lines.append(
            f"requests: {requests} "
            f"({cache_hits} cache hits, {deduped} deduped, "
            f"{misses} compiled)"
        )
        lines.append(
            f"cache hit rate: {cache_hits / requests:.1%}"
            f"  dedupe rate: {deduped / requests:.1%}"
        )
        lines.append(
            f"request time: {request_time / requests * 1e3:.1f}ms avg"
            f"  queue wait: {queue_total / requests * 1e3:.1f}ms avg, "
            f"{queue_max * 1e3:.1f}ms max"
        )
    if batches:
        lines.append(
            f"batches: {batches} "
            f"({batch_kernels / batches:.1f} kernels avg, "
            f"{batch_max} max, {batch_time / batches * 1e3:.1f}ms avg)"
        )
    return "\n".join(lines)


def isa_rollup(events: list[dict]) -> str:
    """Per-ISA-family machine-run rollup from ``machine.run`` records.

    Every simulator run records its ISA name, cycle count, and
    lane-utilization counters (see
    :class:`repro.machine.simulator.SimResult`); this section groups
    them by family (``masked-w8`` and ``masked-w16`` both roll up
    under ``masked`` via :func:`repro.isa.families.family_of`) and
    reports total cycles, the active/issued lane-utilization ratio,
    and what share of vector instructions were masked — the
    at-a-glance view of how well each family's compiled code fills its
    lanes.
    """
    from repro.isa.families import family_of

    runs: dict[str, dict] = {}
    for event in events:
        if event.get("name") != "machine.run":
            continue
        attrs = event.get("attrs", {})
        family = family_of(str(attrs.get("isa", "?")))
        agg = runs.setdefault(
            family,
            {
                "runs": 0, "cycles": 0, "issued": 0, "active": 0,
                "masked": 0, "vector": 0, "widths": set(),
            },
        )
        agg["runs"] += 1
        agg["cycles"] += attrs.get("cycles", 0)
        agg["issued"] += attrs.get("lanes_issued", 0)
        agg["active"] += attrs.get("lanes_active", 0)
        agg["masked"] += attrs.get("masked_ops", 0)
        agg["vector"] += attrs.get("vector_ops", 0)
        if "width" in attrs:
            agg["widths"].add(attrs["width"])
    if not runs:
        return "(no machine.run records in this trace)"
    lines = [
        f"{'runs':>6}  {'cycles':>10}  {'util':>6}  {'masked':>7}"
        "  family (widths)"
    ]
    lines.append("-" * 56)
    for family, agg in sorted(
        runs.items(), key=lambda kv: -kv[1]["cycles"]
    ):
        util = (
            f"{agg['active'] / agg['issued']:.3f}"
            if agg["issued"] else "  -"
        )
        masked_share = (
            f"{agg['masked'] / agg['vector']:.1%}"
            if agg["vector"] else "  -"
        )
        widths = ",".join(str(w) for w in sorted(agg["widths"]))
        lines.append(
            f"{agg['runs']:>6}  {agg['cycles']:>10}  {util:>6}"
            f"  {masked_share:>7}  {family} ({widths})"
        )
    return "\n".join(lines)


def render_report(
    events: list[dict], top: int = 10, max_depth: int | None = None
) -> str:
    """The full multi-section report as one string."""
    sections = [
        "== timeline ==",
        timeline_table(events, max_depth=max_depth),
        "",
        "== per-phase rollup ==",
        phase_rollup(events),
        "",
        "== pipeline passes ==",
        pass_rollup(events),
        "",
        "== service ==",
        service_rollup(events),
        "",
        "== isa ==",
        isa_rollup(events),
        "",
        "== synthesis ==",
        synthesis_rollup(events),
        "",
        "== minimize ==",
        minimize_rollup(events),
        "",
        f"== hottest rules (top {top} by match time) ==",
        hottest_rules(events, top=top),
        "",
        "== scheduling ==",
        scheduling_rollup(events),
    ]
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.trace_report",
        description="Render a REPRO_TRACE JSONL file as a timeline.",
    )
    parser.add_argument("trace", help="path to the JSONL trace file")
    parser.add_argument(
        "--top", type=int, default=10,
        help="how many hottest rules to list (default 10)",
    )
    parser.add_argument(
        "--max-depth", type=int, default=None,
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
