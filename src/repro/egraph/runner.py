"""The equality-saturation loop with resource limits.

``run_saturation`` repeatedly applies a set of rewrite rules to an
e-graph until it saturates (no rule changes the graph) or a limit
trips.  Limits matter: the paper's whole premise is that unconstrained
saturation with synthesized rules exhausts memory (§2.3), so Isaria
relies on bounded ``EqSat`` calls (Fig. 3 applies a timeout to each).

The :class:`BackoffScheduler` reproduces egg's default rule scheduler:
a rule that produces more matches than its threshold is banned for a
few iterations and its threshold doubles, taming associativity/
commutativity explosions without dropping the rule entirely.

The loop reads its rules from a :class:`RuleTable`, which holds each
rule's name, the ``needs`` of its compiled LHS and whether that LHS is
a bare wildcard, computed once per rule set.  A generated compiler
carries rules for every ISA instruction, and a kernel uses few of
them, so most rule slots of an iteration cannot match.  Every
iteration visits the whole table in rule order.  After a rule's ban
check, the runner tests that the e-graph holds every op and leaf the
compiled LHS scans for
(:meth:`EGraph.holds <repro.egraph.egraph.EGraph.holds>`).  If one is
missing the match would be empty, so the slot records the rule's zero
``applied`` entry, counts the skip in
``SaturationPerf.n_unmatchable`` and moves on: it reads no clock,
asks the scheduler nothing more and writes no per-rule counter.  Only
an application that scans reads the clock, asks for the rule's
threshold, reports its match count to the scheduler and adds to the
per-rule counters.  A rule the run visited but never scanned gets its
zero per-rule counters when the run ends.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

from repro.egraph.compile_pattern import compile_pattern
from repro.egraph.egraph import EGraph
from repro.egraph.rewrite import Rewrite, apply_rewrite
from repro.lang.ops import WILD
from repro.obs import current_tracer


class StopReason(enum.Enum):
    """Why a saturation run ended."""

    SATURATED = "saturated"
    ITERATION_LIMIT = "iteration-limit"
    NODE_LIMIT = "node-limit"
    TIME_LIMIT = "time-limit"


@dataclass(frozen=True)
class RunnerLimits:
    """Resource bounds for one ``EqSat`` call.

    ``match_limit``/``ban_length`` parameterize the backoff scheduler;
    keep ``ban_length`` well below ``max_iterations`` or a banned rule
    never gets another chance within the call.
    """

    max_iterations: int = 30
    max_nodes: int = 20_000
    time_limit: float = 30.0  # seconds
    match_limit: int = 1000
    ban_length: int = 2
    # E-node-visit budget per rule application; bounds worst-case time
    # of a single match pass deterministically.
    match_work: int = 100_000


@dataclass
class IterationReport:
    index: int
    n_nodes: int
    n_classes: int
    n_unions: int
    applied: dict[str, int] = field(default_factory=dict)


@dataclass
class SaturationPerf:
    """Lightweight hot-path counters for one saturation run.

    ``node_visits`` counts e-nodes scanned by the matcher (the unit the
    work budget charges) and ``n_matches`` the matches instantiated;
    the ``*_time`` fields break the run's wall clock into the four hot
    paths this engine optimizes: matching, the op index, applying
    matches (instantiate and union) and rebuilding.  Per-rule
    breakdowns identify which rewrites dominate the match bill.
    ``n_unmatchable`` counts the applications skipped unscanned
    because the LHS needs an op or leaf the e-graph lacks.
    """

    node_visits: int = 0
    n_matches: int = 0
    n_unmatchable: int = 0
    match_time: float = 0.0
    index_time: float = 0.0
    apply_time: float = 0.0
    rebuild_time: float = 0.0
    rule_match_time: dict = field(default_factory=dict)
    rule_node_visits: dict = field(default_factory=dict)
    # Productive unions per rule: the signal separating expensive rules
    # that *do* something from pure fail-late scanners (the trace
    # report's zero-merge rules).
    rule_unions: dict = field(default_factory=dict)

    def absorb(self, other: "SaturationPerf") -> None:
        """Accumulate ``other`` into this (for cross-run aggregation)."""
        self.node_visits += other.node_visits
        self.n_matches += other.n_matches
        self.n_unmatchable += other.n_unmatchable
        self.match_time += other.match_time
        self.index_time += other.index_time
        self.apply_time += other.apply_time
        self.rebuild_time += other.rebuild_time
        for name, t in other.rule_match_time.items():
            self.rule_match_time[name] = (
                self.rule_match_time.get(name, 0.0) + t
            )
        for name, n in other.rule_node_visits.items():
            self.rule_node_visits[name] = (
                self.rule_node_visits.get(name, 0) + n
            )
        for name, n in other.rule_unions.items():
            self.rule_unions[name] = self.rule_unions.get(name, 0) + n

    def as_dict(self) -> dict:
        """JSON-ready form (for ``BENCH_*.json`` files)."""
        return {
            "node_visits": self.node_visits,
            "n_matches": self.n_matches,
            "n_unmatchable": self.n_unmatchable,
            "match_time": self.match_time,
            "index_time": self.index_time,
            "apply_time": self.apply_time,
            "rebuild_time": self.rebuild_time,
            "rule_match_time": dict(self.rule_match_time),
            "rule_node_visits": dict(self.rule_node_visits),
            "rule_unions": dict(self.rule_unions),
        }


@dataclass
class RunnerReport:
    """What one saturation run did."""

    stop_reason: StopReason
    iterations: list[IterationReport] = field(default_factory=list)
    elapsed: float = 0.0
    perf: SaturationPerf = field(default_factory=SaturationPerf)

    @property
    def n_iterations(self) -> int:
        """How many full iterations the run completed."""
        return len(self.iterations)

    @property
    def saturated(self) -> bool:
        """True when the run ended because no rule changed the graph."""
        return self.stop_reason is StopReason.SATURATED


class RuleScheduler:
    """The injectable rule-scheduling policy of :func:`run_saturation`.

    One scheduler instance serves one saturation run.  The runner asks
    it three questions:

    - :meth:`can_apply` — is the rule allowed to match this iteration
      (asked at every rule slot, before the presence check);
    - :meth:`threshold` — its current match cap;
    - :meth:`record` — the observed match count, so the policy can
      adapt (ban, back off, ...).

    :meth:`threshold` and :meth:`record` are asked only for
    applications that scan.  A rule whose LHS cannot match the graph
    is skipped unscanned, and its zero match count is not reported:
    a policy must treat a missing report as zero matches, as
    :meth:`BackoffScheduler.record` does (it acts only on a count
    above the threshold).  Bare-wildcard rules run uncapped and are
    never asked about either.

    The base class is the trivial always-run policy; subclasses only
    override what they change.  :class:`BackoffScheduler` is the
    default.
    """

    def threshold(self, rule: Rewrite) -> int:
        """The rule's current match cap for one iteration."""
        return 1 << 62

    def can_apply(self, rule: Rewrite, iteration: int) -> bool:
        """False while the rule must sit this iteration out."""
        return True

    def record(self, rule: Rewrite, iteration: int, n_matches: int) -> None:
        """Observe a match count (hook for adaptive policies)."""

    def any_banned(self, iteration: int) -> bool:
        """True while any rule is banned (blocks saturation claims)."""
        return False


class BackoffScheduler(RuleScheduler):
    """egg's exponential-backoff rule scheduler.

    Each rule has a match threshold.  The runner matches with a limit
    of threshold + 1 and applies *every* match it gets back.  That can
    be more than the limit, because ``ematch`` checks it only after
    adding all of one root's bindings (up to one root's worth past
    it).  If an iteration finds more matches than the threshold, the
    rule is banned for ``ban_length`` iterations and its threshold
    doubles.  Saturation is only declared when no rule is banned (a
    banned rule might still have work to do).
    """

    def __init__(self, match_limit: int = 1000, ban_length: int = 5):
        self._initial_limit = match_limit
        self._ban_length = ban_length
        self._thresholds: dict[str, int] = {}
        self._banned_until: dict[str, int] = {}
        self._ban_count: dict[str, int] = {}

    def threshold(self, rule: Rewrite) -> int:
        """The rule's current match cap (doubles on each ban)."""
        return self._thresholds.get(rule.name, self._initial_limit)

    def can_apply(self, rule: Rewrite, iteration: int) -> bool:
        """False while the rule is serving a ban."""
        return iteration >= self._banned_until.get(rule.name, 0)

    def record(self, rule: Rewrite, iteration: int, n_matches: int) -> None:
        """Report a match count; bans the rule if it overflowed.

        A no-op unless ``n_matches`` exceeds the threshold, so the
        zero counts the runner does not report change nothing.
        """
        if n_matches > self.threshold(rule):
            bans = self._ban_count.get(rule.name, 0)
            self._banned_until[rule.name] = iteration + 1 + self._ban_length
            self._ban_count[rule.name] = bans + 1
            self._thresholds[rule.name] = self._initial_limit * (
                2 ** (bans + 1)
            )

    def any_banned(self, iteration: int) -> bool:
        """True while any rule is banned (blocks saturation claims)."""
        return any(
            until > iteration for until in self._banned_until.values()
        )


class RuleTable:
    """A rule list in the form the saturation loop reads it.

    ``rows`` holds one ``(rule, name, needs, wild)`` tuple per rule, in
    rule order: ``needs`` is the compiled LHS's
    :attr:`CompiledPattern.needs
    <repro.egraph.compile_pattern.CompiledPattern.needs>` and ``wild``
    marks a bare-wildcard LHS (an identity-introduction rule).  Build a
    table once per rule set and hand it to every
    :func:`run_saturation` over that set, as the compile pipeline does
    through :meth:`PhasedRuleSet.table
    <repro.phases.ruleset.PhasedRuleSet.table>`; a plain rule list
    becomes a table on each call.  Iterating a table yields its rules.
    """

    __slots__ = ("rows",)

    def __init__(self, rules: Iterable[Rewrite]):
        self.rows = tuple(
            (rule, rule.name, compile_pattern(rule.lhs).needs,
             rule.lhs.op == WILD)
            for rule in rules
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Rewrite]:
        return (row[0] for row in self.rows)


def run_saturation(
    egraph: EGraph,
    rules: "Iterable[Rewrite] | RuleTable",
    limits: RunnerLimits | None = None,
    scheduler: RuleScheduler | None = None,
    frontier: bool = False,
) -> RunnerReport:
    """Apply ``rules`` to ``egraph`` until saturation or a limit.

    Mutates ``egraph``; returns a :class:`RunnerReport`.  The graph is
    rebuilt (congruence-closed) when the function returns, whatever the
    stop reason, so extraction can run immediately.  ``rules`` is a
    :class:`RuleTable` or any rule list, applied in order.

    ``scheduler`` is any :class:`RuleScheduler`; the default is a
    fresh :class:`BackoffScheduler` parameterized by the limits'
    ``match_limit``/``ban_length``.  Every rule in ``rules`` is visited
    in every iteration: the scheduler decides at each visit whether the
    rule may match, and a rule it holds back blocks the saturation
    claim.

    With ``frontier=True``, iterations after the first only match
    pattern roots in classes changed by the previous iteration.  This
    is incomplete (old-root matches enabled by new substructure are
    missed) but focuses the match budget on newly created structure —
    essential for chained compilation rules, whose each application
    mints the ``Vec`` literal the next one must fire on.

    When tracing is enabled (see :mod:`repro.obs`) the run emits an
    ``eqsat`` span carrying the stop reason and the
    :class:`SaturationPerf` counters, with one ``eqsat.iteration``
    child span per completed iteration.  The spans' per-rule maps
    (``rule_match_time``, ``rule_node_visits``, ``rule_unions``,
    ``applied``) hold only their non-zero entries: a rule missing from
    one did no such work.
    """
    table = rules if isinstance(rules, RuleTable) else RuleTable(rules)
    limits = limits or RunnerLimits()
    if scheduler is None:
        scheduler = BackoffScheduler(
            match_limit=limits.match_limit, ban_length=limits.ban_length
        )
    tracer = current_tracer()
    with tracer.span(
        "eqsat", n_rules=len(table), frontier=frontier
    ) as sat_span:
        report = _run_saturation(egraph, table, limits, scheduler,
                                 frontier, tracer)
        if sat_span.enabled:
            perf = report.perf.as_dict()
            for key in ("rule_match_time", "rule_node_visits",
                        "rule_unions"):
                perf[key] = _nonzero(perf[key])
            sat_span.add(
                stop_reason=report.stop_reason.value,
                iterations=report.n_iterations,
                n_nodes=egraph.n_nodes,
                n_classes=egraph.n_classes,
                **perf,
            )
    return report


def _nonzero(per_rule: dict) -> dict:
    """The entries of a per-rule map that are not zero (trace payloads
    name only the rules that did the work)."""
    return {name: value for name, value in per_rule.items() if value}


def _run_saturation(
    egraph: EGraph,
    table: RuleTable,
    limits: RunnerLimits,
    scheduler: RuleScheduler,
    frontier: bool,
    tracer,
) -> RunnerReport:
    start = time.monotonic()
    report = RunnerReport(stop_reason=StopReason.ITERATION_LIMIT)
    perf = report.perf
    can_apply = scheduler.can_apply
    threshold = scheduler.threshold
    record = scheduler.record
    holds = egraph.holds
    time_limit = limits.time_limit
    node_guard = limits.max_nodes * 2
    match_work = limits.match_work
    # Every iteration's ``applied`` map, an unfinished one included:
    # together they name the rules the run visited, in visit order.
    visited: list[dict[str, int]] = []
    n_unmatchable = 0

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
        applied = iter_report.applied
        visited.append(applied)
        t0 = time.monotonic()
        op_index = egraph.op_index()
        perf.index_time += time.monotonic() - t0
        unions_before = egraph.n_unions
        any_skipped = False
        # Mid-iteration guard: one iteration of many rules can
        # overshoot the per-iteration node check badly, so the run
        # stops at the first rule slot that finds the graph above
        # twice ``max_nodes``.  Only applications add nodes, so the
        # count is read after each one (and once per iteration).  It
        # is the exact live count, which shrinks on rebuild dedup, so
        # long runs aren't killed by an upper bound that never comes
        # back down.
        over = egraph.n_nodes_live > node_guard

        for rule, name, needs, wild in table.rows:
            if over:
                report.stop_reason = StopReason.NODE_LIMIT
                break
            if not can_apply(rule, iteration):
                any_skipped = True
                continue
            if not holds(needs):
                # The LHS scans for an op or leaf the graph lacks, so
                # matching would find nothing: record the empty match
                # without scanning a single candidate.
                applied[name] = 0
                n_unmatchable += 1
                continue
            if time.monotonic() - start > time_limit:
                report.stop_reason = StopReason.TIME_LIMIT
                break
            if wild:
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
                    match_work=match_work * 10,
                    roots=roots,
                )
            else:
                cap = threshold(rule)
                stats = apply_rewrite(
                    egraph,
                    rule,
                    op_index=op_index,
                    match_limit=cap + 1,
                    match_work=match_work,
                    roots=roots,
                )
                record(rule, iteration, stats.n_matches)
                if stats.n_matches > cap:
                    any_skipped = True
            applied[name] = stats.n_unions
            _record_perf(perf, name, stats)
            over = egraph.n_nodes_live > node_guard
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
                    applied=_nonzero(applied),
                )
            if frontier:
                roots = egraph.take_touched()

            if iter_report.n_unions == 0 and not any_skipped:
                report.stop_reason = StopReason.SATURATED
                break
            if egraph.n_nodes > limits.max_nodes:
                report.stop_reason = StopReason.NODE_LIMIT
                break
            if time.monotonic() - start > time_limit:
                report.stop_reason = StopReason.TIME_LIMIT
                break
            continue
        # Inner loop broke (a limit mid-iteration): clean up and stop.
        t0 = time.monotonic()
        egraph.rebuild()
        perf.rebuild_time += time.monotonic() - t0
        break

    perf.n_unmatchable = n_unmatchable
    _add_visited_zeros(perf, visited)
    report.elapsed = time.monotonic() - start
    return report


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


def _add_visited_zeros(
    perf: SaturationPerf, visited: list[dict[str, int]]
) -> None:
    """Give each rule the run visited but never scanned its zero
    per-rule counters.

    Every visited rule then has an entry in each per-rule map, and the
    maps list the rules in first-visit order.
    """
    names = dict.fromkeys(chain.from_iterable(visited))
    for attr, zero in (("rule_match_time", 0.0), ("rule_node_visits", 0),
                       ("rule_unions", 0)):
        filled = dict.fromkeys(names, zero)
        filled.update(getattr(perf, attr))
        setattr(perf, attr, filled)
