"""The runner's per-rule loop before its rule table, kept as an oracle.

``oracle_run_saturation`` is ``run_saturation``'s previous loop,
verbatim: every rule slot reads the clock and the node guard, asks the
scheduler ``can_apply`` and ``threshold``, runs ``EGraph.holds``,
reports its match count to ``record`` (zero for an unmatchable rule)
and adds its stats, zeros included, to the per-rule counters.  The
product loop (``repro.egraph.runner``) reads a
:class:`~repro.egraph.runner.RuleTable` and skips that bookkeeping for
unmatchable rules; ``tests/test_runner_differential.py`` checks that
both produce the same e-graph, report and counters.

``op_index_rescan`` is the per-op candidate index as it was built
before ``EGraph`` maintained it incrementally: one scan of every
e-node.  The index tests compare the incremental one against it.
"""

from __future__ import annotations

import time

from repro.egraph.compile_pattern import compile_pattern
from repro.egraph.egraph import EGraph
from repro.egraph.rewrite import ApplyStats, Rewrite, apply_rewrite
from repro.egraph.runner import (
    BackoffScheduler,
    IterationReport,
    RuleScheduler,
    RunnerLimits,
    RunnerReport,
    SaturationPerf,
    StopReason,
)
from repro.obs import NULL_TRACER


def op_index_rescan(egraph: EGraph) -> dict[str, list[int]]:
    """Map op -> ids of the classes holding a node with that op, built
    by rescanning every e-node of the class table."""
    index: dict[str, list[int]] = {}
    for eclass in egraph._classes.values():
        for node in eclass.nodes:
            index.setdefault(node[0], []).append(eclass.id)
    return index


def oracle_run_saturation(
    egraph: EGraph,
    rules: list[Rewrite],
    limits: RunnerLimits | None = None,
    scheduler: RuleScheduler | None = None,
    frontier: bool = False,
) -> RunnerReport:
    """``run_saturation`` as it ran every slot through the scheduler."""
    return _run_saturation(egraph, rules, limits, scheduler, frontier,
                           NULL_TRACER)


def _run_saturation(
    egraph: EGraph,
    rules: list[Rewrite],
    limits: RunnerLimits | None,
    scheduler: RuleScheduler | None,
    frontier: bool,
    tracer,
) -> RunnerReport:
    limits = limits or RunnerLimits()
    if scheduler is None:
        scheduler = BackoffScheduler(
            match_limit=limits.match_limit, ban_length=limits.ban_length
        )
    needs = [compile_pattern(rule.lhs).needs for rule in rules]
    start = time.monotonic()
    report = RunnerReport(stop_reason=StopReason.ITERATION_LIMIT)
    perf = report.perf

    t0 = time.monotonic()
    egraph.rebuild()
    perf.rebuild_time += time.monotonic() - t0
    roots: set[int] | None = None
    if frontier:
        egraph.take_touched()  # discard pre-existing dirt
    for iteration in range(limits.max_iterations):
        it_t0 = time.monotonic()
        iter_report = IterationReport(
            index=iteration,
            n_nodes=0,
            n_classes=0,
            n_unions=0,
        )
        t0 = time.monotonic()
        op_index = egraph.op_index()
        perf.index_time += time.monotonic() - t0
        unions_before = egraph.n_unions
        any_skipped = False

        for rule, rule_needs in zip(rules, needs):
            if time.monotonic() - start > limits.time_limit:
                report.stop_reason = StopReason.TIME_LIMIT
                break
            if egraph.n_nodes_live > limits.max_nodes * 2:
                # Mid-iteration guard: one iteration of many rules can
                # overshoot the per-iteration node check badly.  Uses
                # the exact live count (which shrinks on rebuild dedup),
                # so long runs aren't killed by an upper bound that
                # never comes back down.
                report.stop_reason = StopReason.NODE_LIMIT
                break
            if not scheduler.can_apply(rule, iteration):
                any_skipped = True
                continue
            if rule.lhs.op == "Wild":
                # Identity-introduction rules (?a => (+ ?a 0)) match
                # every class exactly once and the e-graph unions the
                # new term back into the matched class, so they are
                # self-limiting (§2.2's "dangerous" rule is tame here).
                # The exemption serves the expansion phase: capping
                # these rules would leave most classes unpadded and
                # starve the compilation phase of lane variants.  The
                # optimization pass, with no compilation phase after
                # it, never hands such rules over.
                stats = apply_rewrite(
                    egraph,
                    rule,
                    op_index=op_index,
                    match_limit=None,
                    match_work=limits.match_work * 10,
                    roots=roots,
                )
                iter_report.applied[rule.name] = stats.n_unions
                _record_perf(perf, rule.name, stats)
                continue
            cap = scheduler.threshold(rule)
            if egraph.holds(rule_needs):
                stats = apply_rewrite(
                    egraph,
                    rule,
                    op_index=op_index,
                    match_limit=cap + 1,
                    match_work=limits.match_work,
                    roots=roots,
                )
            else:
                # The LHS scans for an op or leaf the graph lacks, so
                # matching would find nothing: record the empty match
                # without scanning a single candidate.
                stats = _NO_MATCHES
                perf.n_unmatchable += 1
            scheduler.record(rule, iteration, stats.n_matches)
            if stats.n_matches > cap:
                any_skipped = True
            iter_report.applied[rule.name] = stats.n_unions
            _record_perf(perf, rule.name, stats)
        else:
            t0 = time.monotonic()
            egraph.rebuild()
            perf.rebuild_time += time.monotonic() - t0
            iter_report.n_nodes = egraph.n_nodes
            iter_report.n_classes = egraph.n_classes
            iter_report.n_unions = egraph.n_unions - unions_before
            report.iterations.append(iter_report)
            if tracer.enabled:
                tracer.record(
                    "eqsat.iteration",
                    time.monotonic() - it_t0,
                    index=iteration,
                    n_nodes=iter_report.n_nodes,
                    n_classes=iter_report.n_classes,
                    n_unions=iter_report.n_unions,
                    applied=_nonzero(iter_report.applied),
                )
            if frontier:
                roots = egraph.take_touched()

            if iter_report.n_unions == 0 and not any_skipped:
                report.stop_reason = StopReason.SATURATED
                break
            if egraph.n_nodes > limits.max_nodes:
                report.stop_reason = StopReason.NODE_LIMIT
                break
            if time.monotonic() - start > limits.time_limit:
                report.stop_reason = StopReason.TIME_LIMIT
                break
            continue
        # Inner loop broke (time limit mid-iteration): clean up and stop.
        t0 = time.monotonic()
        egraph.rebuild()
        perf.rebuild_time += time.monotonic() - t0
        break

    report.elapsed = time.monotonic() - start
    return report


def _nonzero(per_rule: dict) -> dict:
    return {name: value for name, value in per_rule.items() if value}


# The stats recorded for an application skipped as unmatchable.
_NO_MATCHES = ApplyStats()


def _record_perf(perf: SaturationPerf, rule_name: str, stats) -> None:
    perf.node_visits += stats.n_visits
    perf.n_matches += stats.n_matches
    perf.match_time += stats.match_time
    perf.apply_time += stats.apply_time
    perf.rule_match_time[rule_name] = (
        perf.rule_match_time.get(rule_name, 0.0) + stats.match_time
    )
    perf.rule_node_visits[rule_name] = (
        perf.rule_node_visits.get(rule_name, 0) + stats.n_visits
    )
    perf.rule_unions[rule_name] = (
        perf.rule_unions.get(rule_name, 0) + stats.n_unions
    )
