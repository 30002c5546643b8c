"""Differential tests: the runner's rule-table loop vs. its oracle.

``run_saturation`` reads a :class:`~repro.egraph.runner.RuleTable` and
skips all per-rule bookkeeping for rules that cannot match.
``runner_oracle`` is the loop it replaced, which ran every rule slot
through the clock, the scheduler and the per-rule counters.  From the
same e-graph, both must leave the same e-graph (equal ``save_egraph``
bytes) and return the same report: stop reason, iteration reports
with their zero ``applied`` entries, and every ``SaturationPerf``
count, with a per-rule entry for exactly the rules the run visited, in
the same order.  Only wall-clock times may differ.

The inputs are random e-graphs from the property-test term strategy
under hand-written rules that cover bans, the mid-iteration node
guard, frontier matching, identity-introduction rules, rules whose op
first appears mid-iteration and rules that never match.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import event, given, settings

from egraph_snapshot import load_egraph, save_egraph
from runner_oracle import oracle_run_saturation
from test_property_egraph import terms

from repro.egraph.egraph import EGraph
from repro.egraph.rewrite import parse_rewrite
from repro.egraph.runner import (
    BackoffScheduler,
    RuleTable,
    RunnerLimits,
    StopReason,
    run_saturation,
)
from repro.lang.parser import parse

RULES = [
    # Identity introduction: a bare-wildcard LHS, applied uncapped.
    parse_rewrite("pad-zero", "?a => (+ ?a 0)"),
    # Adds the first `mac` (and the constant 0) mid-iteration ...
    parse_rewrite("mul-mac", "(* ?a ?b) => (mac 0 ?a ?b)"),
    # ... which a later rule in the same iteration may then match:
    # below a root from the iteration's op index snapshot ...
    parse_rewrite(
        "neg-mac", "(neg (mac ?c ?a ?b)) => (mac (neg ?c) (neg ?a) ?b)"
    ),
    # ... or, from the next iteration on, as a root.
    parse_rewrite("mac-split", "(mac ?c ?a ?b) => (+ ?c (* ?a ?b))"),
    # Needs a leaf: skipped while the graph holds no constant 0 or 1.
    parse_rewrite("add-zero", "(+ ?a 0) => ?a"),
    parse_rewrite("mul-one", "(* ?a 1) => ?a"),
    # Commutativity and associativity: these overflow small caps.
    parse_rewrite("comm-add", "(+ ?a ?b) => (+ ?b ?a)"),
    parse_rewrite("assoc-add", "(+ ?a (+ ?b ?c)) => (+ (+ ?a ?b) ?c)"),
    # `sqrt` and `VecAdd` appear in no input term: only these RHSs
    # add them, so their consumers start out unmatchable.
    parse_rewrite("neg-sq", "(neg (neg ?a)) => (sqrt (* ?a ?a))"),
    parse_rewrite("sqrt-sq", "(sqrt (* ?a ?a)) => ?a"),
    parse_rewrite("sub-vec", "(- ?a ?b) => (VecAdd ?a (neg ?b))"),
    parse_rewrite("vec-comm", "(VecAdd ?a ?b) => (VecAdd ?b ?a)"),
    # Never matchable: no rule adds `VecMAC`.
    parse_rewrite("never", "(VecMAC ?a ?b ?c) => (VecMAC ?a ?c ?b)"),
]
BY_NAME = {rule.name: rule for rule in RULES}


class BanOneScheduler(BackoffScheduler):
    """Backoff scheduling that also bans one rule on even iterations."""

    def __init__(self, banned: str, **kwargs):
        super().__init__(**kwargs)
        self.banned = banned

    def can_apply(self, rule, iteration) -> bool:
        if rule.name == self.banned and iteration % 2 == 0:
            return False
        return super().can_apply(rule, iteration)


def scheduler_factory(kind: str, limits: RunnerLimits, rules: list):
    """A fresh scheduler of ``kind`` per call (each run needs its own):
    ``None`` for the runner's default, else one that bans the last
    rule on even iterations."""
    if kind == "default":
        return None
    return BanOneScheduler(
        rules[-1].name if rules else "none",
        match_limit=limits.match_limit, ban_length=limits.ban_length,
    )


def copy_of(g: EGraph) -> EGraph:
    graph, _ = load_egraph(save_egraph(g))
    return graph


def run_both(g: EGraph, rules, limits: RunnerLimits, kind="default",
             frontier=False):
    """Run the product on one copy of ``g`` and the oracle on another;
    check that they agree and return the product's report."""
    product_graph, oracle_graph = copy_of(g), copy_of(g)
    product = run_saturation(
        product_graph, rules, limits,
        scheduler=scheduler_factory(kind, limits, rules),
        frontier=frontier,
    )
    oracle = oracle_run_saturation(
        oracle_graph, rules, limits,
        scheduler=scheduler_factory(kind, limits, rules),
        frontier=frontier,
    )
    assert save_egraph(product_graph) == save_egraph(oracle_graph)
    assert product.stop_reason is oracle.stop_reason
    assert product.iterations == oracle.iterations
    assert [list(it.applied) for it in product.iterations] == [
        list(it.applied) for it in oracle.iterations
    ]
    mine, theirs = product.perf, oracle.perf
    for count in ("node_visits", "n_matches", "n_unmatchable"):
        assert getattr(mine, count) == getattr(theirs, count), count
    assert list(mine.rule_unions.items()) == list(theirs.rule_unions.items())
    assert list(mine.rule_node_visits.items()) == list(
        theirs.rule_node_visits.items()
    )
    assert list(mine.rule_match_time) == list(theirs.rule_match_time)
    return product


def graph_of(*texts: str) -> EGraph:
    g = EGraph()
    for text in texts:
        g.add_term(parse(text))
    return g


class TestRandomEGraphs:
    @given(
        term_list=st.lists(terms(), min_size=1, max_size=5),
        unions=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=3
        ),
        rule_names=st.lists(
            st.sampled_from(sorted(BY_NAME)), min_size=1, max_size=8,
            unique=True,
        ),
        max_iterations=st.integers(1, 4),
        max_nodes=st.sampled_from([4, 12, 30, 80, 2_000]),
        match_limit=st.integers(0, 5),
        ban_length=st.integers(0, 2),
        match_work=st.sampled_from([6, 40, 100_000]),
        kind=st.sampled_from(["default", "ban"]),
        frontier=st.booleans(),
    )
    @settings(max_examples=250, deadline=None)
    def test_same_graph_report_and_counters(
        self, term_list, unions, rule_names, max_iterations, max_nodes,
        match_limit, ban_length, match_work, kind, frontier,
    ):
        g = EGraph()
        for t in term_list:
            g.add_term(t)
        ids = sorted(g._classes)
        for a, b in unions:
            g.union(ids[a % len(ids)], ids[b % len(ids)])
        limits = RunnerLimits(
            max_iterations=max_iterations, max_nodes=max_nodes,
            match_limit=match_limit, ban_length=ban_length,
            match_work=match_work,
        )
        rules = [BY_NAME[name] for name in rule_names]
        report = run_both(g, rules, limits, kind=kind, frontier=frontier)
        # Which paths the example took (--hypothesis-show-statistics).
        event(f"stop: {report.stop_reason.value}")
        if report.n_iterations < max_iterations and (
            report.stop_reason is StopReason.NODE_LIMIT
        ):
            event("node limit before the last iteration")
        if report.perf.n_unmatchable:
            event("unmatchable skips")
        visited = set(report.perf.rule_unions)
        if any(set(it.applied) != visited for it in report.iterations):
            event("a rule sat an iteration out")


class TestDirected:
    def test_guard_fires_at_the_slot_after_the_overshooting_application(
        self,
    ):
        # pad-zero doubles the graph past 2 x max_nodes; the guard
        # stops the run at the next slot, so comm-add is never visited
        # and never-matching `never` before it is.
        g = graph_of("(+ a b)", "(neg c)")
        rules = [BY_NAME["never"], BY_NAME["pad-zero"], BY_NAME["comm-add"]]
        limits = RunnerLimits(max_iterations=3, max_nodes=3)
        report = run_both(g, rules, limits)
        assert report.stop_reason is StopReason.NODE_LIMIT
        assert report.n_iterations == 0
        assert list(report.perf.rule_unions) == ["never", "pad-zero"]
        assert report.perf.n_unmatchable == 1

    def test_guard_at_the_last_slot_lets_the_iteration_finish(self):
        g = graph_of("(+ a b)", "(neg c)")
        rules = [BY_NAME["never"], BY_NAME["pad-zero"]]
        report = run_both(g, rules, RunnerLimits(max_nodes=3))
        assert report.stop_reason is StopReason.NODE_LIMIT
        assert report.n_iterations == 1

    def test_guard_fires_before_the_first_slot(self):
        g = graph_of("(+ (* a b) (neg (- c d)))")
        report = run_both(g, RULES, RunnerLimits(max_nodes=2))
        assert report.stop_reason is StopReason.NODE_LIMIT
        assert report.perf.rule_unions == {}
        assert report.perf.n_unmatchable == 0

    def test_bans_block_the_saturation_claim(self):
        g = graph_of("(+ a (+ b c))")
        rules = [BY_NAME["comm-add"], BY_NAME["never"]]
        limits = RunnerLimits(max_iterations=6, match_limit=0,
                              ban_length=1)
        report = run_both(g, rules, limits)
        banned = [it.index for it in report.iterations
                  if "comm-add" not in it.applied]
        assert banned  # the ban fired and the rule sat iterations out
        assert all(it.applied["never"] == 0 for it in report.iterations)

    @pytest.mark.parametrize("frontier", [False, True])
    def test_op_added_mid_iteration_fires_in_that_iteration(self, frontier):
        g = graph_of("(neg (* a b))")
        rules = [BY_NAME["neg-mac"], BY_NAME["mul-mac"], BY_NAME["neg-mac"]]
        report = run_both(g, rules, RunnerLimits(max_iterations=1),
                          frontier=frontier)
        # The first neg-mac slot is skipped; the second matches the
        # `mac` that mul-mac's RHS added earlier in the iteration.
        assert report.perf.n_unmatchable == 1
        assert report.iterations[0].applied["neg-mac"] == 1

    def test_visited_rules_only(self):
        # A rule banned in every visited iteration has no entries.
        class BanSqrt(BackoffScheduler):
            def can_apply(self, rule, iteration):
                return rule.name != "sqrt-sq"

        g = graph_of("(+ a b)")
        rules = [BY_NAME["comm-add"], BY_NAME["sqrt-sq"], BY_NAME["never"]]
        product = run_saturation(copy_of(g), rules,
                                 RunnerLimits(max_iterations=2),
                                 scheduler=BanSqrt())
        oracle = oracle_run_saturation(copy_of(g), rules,
                                       RunnerLimits(max_iterations=2),
                                       scheduler=BanSqrt())
        assert list(product.perf.rule_unions) == ["comm-add", "never"]
        assert product.perf.rule_unions == oracle.perf.rule_unions
        assert product.perf.rule_node_visits == oracle.perf.rule_node_visits
        assert product.perf.rule_node_visits["never"] == 0
        assert product.perf.rule_match_time["never"] == 0.0


class TestRuleTable:
    def test_rows_follow_rule_order(self):
        table = RuleTable(RULES)
        assert len(table) == len(RULES)
        assert list(table) == RULES
        names = [name for _, name, _, _ in table.rows]
        assert names == [rule.name for rule in RULES]
        wild = [name for _, name, _, is_wild in table.rows if is_wild]
        assert wild == ["pad-zero"]

    def test_table_and_list_runs_agree(self):
        g = graph_of("(+ (* a 1) (neg (neg b)))")
        table = RuleTable(RULES)
        from_list = run_saturation(copy_of(g), RULES,
                                   RunnerLimits(max_iterations=3))
        from_table = run_saturation(copy_of(g), table,
                                    RunnerLimits(max_iterations=3))
        assert from_list.iterations == from_table.iterations
        assert from_list.perf.rule_unions == from_table.perf.rule_unions

    def test_phased_rule_set_builds_each_table_once(self):
        from repro.core.pregen import default_compiler
        from repro.isa import fusion_g3_spec
        from repro.lang.term import is_wildcard

        ruleset = default_compiler(fusion_g3_spec()).ruleset
        table = ruleset.table("optimization")
        assert ruleset.table("optimization") is table
        assert list(table) == list(ruleset.optimization)
        scanning = ruleset.table("optimization", identities=False)
        assert ruleset.table("optimization", identities=False) is scanning
        assert list(scanning) == [
            rule for rule in ruleset.optimization
            if not is_wildcard(rule.lhs)
        ]
