"""Unit tests for rewrite application and the saturation runner."""

from dataclasses import asdict

import pytest

from repro.egraph.egraph import EGraph
from repro.egraph.rewrite import Rewrite, apply_rewrite, parse_rewrite
from repro.egraph.runner import (
    BackoffScheduler,
    RunnerLimits,
    StopReason,
    run_saturation,
)
from repro.lang.parser import parse
from repro.obs import merge_counters


class TestRewrite:
    def test_parse_rewrite(self):
        rule = parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)")
        assert rule.name == "comm"
        assert rule.is_reversible

    def test_rhs_wildcards_must_be_bound(self):
        with pytest.raises(ValueError):
            parse_rewrite("bad", "(+ ?a 0) => (+ ?a ?b)")

    def test_directed_rule_not_reversible(self):
        rule = parse_rewrite("zero", "(* ?a 0) => 0")
        assert not rule.is_reversible

    def test_reversed(self):
        rule = parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)")
        rev = rule.reversed()
        assert rev.lhs == rule.rhs and rev.rhs == rule.lhs

    def test_apply_unions_match_with_rhs(self):
        g = EGraph()
        root = g.add_term(parse("(+ (Get x 0) 0)"))
        stats = apply_rewrite(g, parse_rewrite("id", "(+ ?a 0) => ?a"))
        g.rebuild()
        assert stats.n_matches == 1
        assert stats.n_unions == 1
        assert g.equivalent(root, g.lookup_term(parse("(Get x 0)")))


class TestSaturation:
    def test_saturates_small_system(self):
        g = EGraph()
        root = g.add_term(parse("(+ (+ a b) c)"))
        report = run_saturation(
            g,
            [parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)")],
            RunnerLimits(max_iterations=20),
        )
        assert report.stop_reason is StopReason.SATURATED
        # closure contains the fully commuted variants
        assert g.lookup_term(parse("(+ c (+ b a))")) == g.find(root)

    def test_transitive_derivation(self):
        g = EGraph()
        a = g.add_term(parse("(- x x)"))
        b = g.add_term(parse("(* x 0)"))
        rules = [
            parse_rewrite("sub-self", "(- ?a ?a) => 0"),
            parse_rewrite("mul-zero", "(* ?a 0) => 0"),
        ]
        run_saturation(g, rules, RunnerLimits(max_iterations=5))
        assert g.equivalent(a, b)

    def test_iteration_limit(self):
        # Commutativity needs two iterations to saturate (apply, then
        # observe no change); with a budget of one the runner must
        # report the iteration limit.
        g = EGraph()
        g.add_term(parse("(+ (Get x 0) (Get y 0))"))
        report = run_saturation(
            g,
            [parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)")],
            RunnerLimits(max_iterations=1, max_nodes=10**9),
        )
        assert report.stop_reason is StopReason.ITERATION_LIMIT
        assert report.n_iterations == 1
        assert report.iterations[0].n_unions > 0

    def test_identity_introduction_self_limits(self):
        # ?a => (+ ?a 0) looks infinite but the e-graph tames it: the
        # new term is unioned into the matched class, so saturation is
        # reached (the §2.2 "must be used carefully" rule is safe here).
        g = EGraph()
        g.add_term(parse("(Get x 0)"))
        report = run_saturation(
            g,
            [parse_rewrite("pad", "?a => (+ ?a 0)")],
            RunnerLimits(max_iterations=10),
        )
        assert report.stop_reason is StopReason.SATURATED

    def test_node_limit(self):
        g = EGraph()
        g.add_term(parse("(+ (+ (+ a b) c) (+ d (+ e f)))"))
        report = run_saturation(
            g,
            [
                parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)"),
                parse_rewrite(
                    "assoc", "(+ (+ ?a ?b) ?c) => (+ ?a (+ ?b ?c))"
                ),
                parse_rewrite("grow", "?a => (+ ?a 0)"),
            ],
            RunnerLimits(max_iterations=50, max_nodes=500),
        )
        assert report.stop_reason is StopReason.NODE_LIMIT

    def test_graph_rebuilt_on_return(self):
        g = EGraph()
        g.add_term(parse("(+ (Get x 0) 0)"))
        run_saturation(
            g, [parse_rewrite("id", "(+ ?a 0) => ?a")], RunnerLimits()
        )
        assert g.is_clean

    def test_empty_rule_list_saturates_immediately(self):
        g = EGraph()
        g.add_term(parse("(+ a b)"))
        report = run_saturation(g, [], RunnerLimits())
        assert report.saturated


class TestBackoffScheduler:
    def test_ban_after_overflow(self):
        sched = BackoffScheduler(match_limit=10, ban_length=2)
        rule = parse_rewrite("r", "(+ ?a ?b) => (+ ?b ?a)")
        assert sched.can_apply(rule, 0)
        sched.record(rule, 0, n_matches=11)
        assert not sched.can_apply(rule, 1)
        assert not sched.can_apply(rule, 2)
        assert sched.can_apply(rule, 3)

    def test_threshold_doubles(self):
        sched = BackoffScheduler(match_limit=10, ban_length=1)
        rule = parse_rewrite("r", "(+ ?a ?b) => (+ ?b ?a)")
        sched.record(rule, 0, n_matches=11)
        assert sched.threshold(rule) == 20
        sched.record(rule, 3, n_matches=21)
        assert sched.threshold(rule) == 40

    def test_under_threshold_no_ban(self):
        sched = BackoffScheduler(match_limit=10, ban_length=2)
        rule = parse_rewrite("r", "(+ ?a ?b) => (+ ?b ?a)")
        sched.record(rule, 0, n_matches=5)
        assert sched.can_apply(rule, 1)
        assert not sched.any_banned(1)

    def test_ban_expires_exactly_on_schedule(self):
        # Banned at iteration i with ban_length L → usable again at
        # i + 1 + L, not one iteration early.
        sched = BackoffScheduler(match_limit=10, ban_length=3)
        rule = parse_rewrite("r", "(+ ?a ?b) => (+ ?b ?a)")
        sched.record(rule, 5, n_matches=100)
        for it in (6, 7, 8):
            assert not sched.can_apply(rule, it)
            assert sched.any_banned(it)
        assert sched.can_apply(rule, 9)
        assert not sched.any_banned(9)

    def test_repeated_overflow_keeps_doubling(self):
        sched = BackoffScheduler(match_limit=8, ban_length=1)
        rule = parse_rewrite("r", "(+ ?a ?b) => (+ ?b ?a)")
        expected = 8
        for i in range(4):
            sched.record(rule, 3 * i, n_matches=expected + 1)
            expected *= 2
            assert sched.threshold(rule) == expected

    def test_bans_are_per_rule(self):
        sched = BackoffScheduler(match_limit=10, ban_length=2)
        noisy = parse_rewrite("noisy", "(+ ?a ?b) => (+ ?b ?a)")
        quiet = parse_rewrite("quiet", "(* ?a 1) => ?a")
        sched.record(noisy, 0, n_matches=50)
        assert not sched.can_apply(noisy, 1)
        assert sched.can_apply(quiet, 1)
        assert sched.threshold(quiet) == 10


class TestFrontierMatching:
    def test_frontier_restricts_to_touched_roots(self):
        # Two disjoint (+ _ 0) redexes; the frontier after iteration 0
        # only contains classes iteration 0 changed, so a redex added
        # *after* the run started would be skipped.  Here we verify the
        # positive direction: chained rules keep firing because each
        # application touches the class the next one matches.
        g = EGraph()
        root = g.add_term(parse("(s (s (s (s z))))"))
        report = run_saturation(
            g,
            [parse_rewrite("drop", "(s ?n) => ?n")],
            RunnerLimits(max_iterations=10),
            frontier=True,
        )
        assert report.saturated
        assert g.equivalent(root, g.lookup_term(parse("z")))

    def test_frontier_skips_untouched_roots(self):
        # After iteration 0 rewrites the (* _ 1) redex, the (+ a 0)
        # redex — whose rule only enters the rule list via a scheduler
        # ban expiring later — is NOT in the frontier, so the restricted
        # run misses it while the unrestricted run finds it.
        def build():
            g = EGraph()
            keep = g.add_term(parse("(+ a 0)"))
            g.add_term(parse("(* b 1)"))
            return g, keep

        class OneShotScheduler(BackoffScheduler):
            """Bans add-id for iteration 0 only."""

            def can_apply(self, rule, iteration):
                if rule.name == "add-id" and iteration == 0:
                    return False
                return super().can_apply(rule, iteration)

        rules = [
            parse_rewrite("mul-id", "(* ?a 1) => ?a"),
            parse_rewrite("add-id", "(+ ?a 0) => ?a"),
        ]
        limits = RunnerLimits(max_iterations=6)

        g_full, keep_full = build()
        run_saturation(g_full, rules, limits, scheduler=OneShotScheduler())
        assert g_full.equivalent(keep_full, g_full.lookup_term(parse("a")))

        g_front, keep_front = build()
        run_saturation(
            g_front,
            rules,
            limits,
            scheduler=OneShotScheduler(),
            frontier=True,
        )
        # (+ a 0) was never touched by iteration 0, so the frontier
        # run never matched it: incompleteness is real and intended.
        assert not g_front.equivalent(
            keep_front, g_front.lookup_term(parse("a"))
        )


class TestPerfCounters:
    def test_report_carries_populated_perf(self):
        g = EGraph()
        g.add_term(parse("(+ (+ a b) (+ c d))"))
        report = run_saturation(
            g,
            [parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)")],
            RunnerLimits(max_iterations=10),
        )
        perf = report.perf
        assert perf.node_visits > 0
        assert perf.match_time >= 0.0
        assert perf.rebuild_time > 0.0
        assert perf.rule_node_visits["comm"] == perf.node_visits
        assert set(perf.rule_match_time) == {"comm"}

    def test_apply_counters(self, monkeypatch):
        # n_matches is the sum of every application's matches; it is
        # deterministic and bounds the unions from below.
        import repro.egraph.runner as runner_module

        rules = [
            parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)"),
            parse_rewrite("assoc", "(+ ?a (+ ?b ?c)) => (+ (+ ?a ?b) ?c)"),
            parse_rewrite("pad", "?a => (* ?a 1)"),
        ]
        product_apply = runner_module.apply_rewrite

        def run():
            applied = []

            def recording_apply(*args, **kwargs):
                stats = product_apply(*args, **kwargs)
                applied.append(stats.n_matches)
                return stats

            monkeypatch.setattr(runner_module, "apply_rewrite",
                                recording_apply)
            g = EGraph()
            g.add_term(parse("(+ a (+ b (+ c d)))"))
            report = run_saturation(g, rules, RunnerLimits(max_iterations=4))
            return report.perf, applied

        first, applied = run()
        second, _ = run()
        assert first.n_matches == sum(applied) > 0
        assert second.n_matches == first.n_matches
        assert first.n_matches >= sum(first.rule_unions.values()) > 0
        assert first.apply_time > 0.0
        payload = asdict(first)
        assert payload["n_matches"] == first.n_matches
        assert payload["apply_time"] == first.apply_time

    def test_apply_applies_matches_past_the_limit(self):
        # Three one-binding roots, then one root holding 21 bindings.
        # ematch checks the limit only between roots, and the
        # per-compound cap (= limit) bounds what that root adds, so
        # 3 + 4 matches come back for a limit of 4 and every one is
        # applied (see BackoffScheduler).
        g = EGraph()
        for text in ("(+ 1 2)", "(+ 3 4)", "(+ 5 6)"):
            g.add_term(parse(text))
        big = g.add_term(parse("(+ a b)"))
        for i in range(20):
            g.union(big, g.add_term(parse(f"(+ a c{i})")))
        g.rebuild()
        stats = apply_rewrite(
            g, parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)"),
            op_index=g.op_index(), match_limit=4,
        )
        assert stats.n_matches == 7
        assert stats.n_unions == 7

    def test_absorb_accumulates(self):
        g1 = EGraph()
        g1.add_term(parse("(+ a b)"))
        r1 = run_saturation(
            g1, [parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)")]
        )
        g2 = EGraph()
        g2.add_term(parse("(* c d)"))
        r2 = run_saturation(
            g2, [parse_rewrite("mcomm", "(* ?a ?b) => (* ?b ?a)")]
        )
        total = r1.perf.__class__()
        assert merge_counters(total, r1.perf) is total
        merge_counters(total, r2.perf)
        assert total.node_visits == r1.perf.node_visits + r2.perf.node_visits
        assert total.n_matches == r1.perf.n_matches + r2.perf.n_matches
        assert total.apply_time == r1.perf.apply_time + r2.perf.apply_time
        assert set(total.rule_node_visits) == {"comm", "mcomm"}
        round_trip = asdict(total)
        assert round_trip["node_visits"] == total.node_visits
        assert "rule_match_time" in round_trip
