"""Exactness of the runner's unmatchable-rule skip.

Before applying a rule, ``run_saturation`` checks that the e-graph
holds every op and leaf the rule's compiled LHS scans for
(``EGraph.holds``).  When one is missing it records zero matches and
never calls ``apply_rewrite``.  These tests pin that a skipped
application is one that would have matched nothing: hand-built cases,
the presence invariants the check reads, and every skip made while
compiling two Fig. 4 kernels, each confirmed by the dict oracle.
"""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from apply_oracle import oracle_ematch
from egraph_snapshot import load_egraph, save_egraph
from runner_oracle import op_index_rescan
from test_extract_differential import fig4_style_options
from test_property_egraph import terms

from repro.core.pregen import default_compiler
from repro.egraph import runner as runner_module
from repro.egraph.compile_pattern import compile_pattern
from repro.egraph.egraph import EGraph
from repro.egraph.ematch import ematch
from repro.egraph.rewrite import parse_rewrite
from repro.egraph.runner import (
    BackoffScheduler,
    RuleScheduler,
    RunnerLimits,
    SaturationPerf,
    StopReason,
    run_saturation,
)
from repro.isa import fusion_g3_spec
from repro.kernels.suite import suite_by_key
from repro.lang.ops import CONST
from repro.lang.parser import parse
from repro.lang.term import make, wildcard
from repro.obs import ListSink, Tracer, use_tracer

COMM_ADD = parse_rewrite("comm-add", "(+ ?a ?b) => (+ ?b ?a)")
SQRT_ID = parse_rewrite("sqrt-id", "(sqrt (* ?a ?a)) => ?a")
MUL_ONE = parse_rewrite("mul-one", "(* ?a 1) => ?a")
ADD_ZERO = parse_rewrite("add-zero", "(+ ?a 0) => ?a")


class RecordingScheduler(BackoffScheduler):
    """The backoff scheduler, logging every ``record`` call."""

    def __init__(self):
        super().__init__()
        self.calls: list[tuple[str, int, int]] = []

    def record(self, rule, iteration, n_matches):
        self.calls.append((rule.name, iteration, n_matches))
        super().record(rule, iteration, n_matches)


def applied_rules(monkeypatch) -> list[str]:
    """Names of the rules the runner hands to ``apply_rewrite``."""
    names: list[str] = []
    product_apply = runner_module.apply_rewrite

    def recording_apply(egraph, rule, **kwargs):
        names.append(rule.name)
        return product_apply(egraph, rule, **kwargs)

    monkeypatch.setattr(runner_module, "apply_rewrite", recording_apply)
    return names


def vm_holds_leaf(egraph: EGraph, target: tuple) -> bool:
    """The VM's LEAF test, ``node == target``, over every class."""
    return any(
        node == target for eclass in egraph.classes() for node in eclass.nodes
    )


class TestSkip:
    def test_absent_op_is_skipped_unscanned(self, monkeypatch):
        applied = applied_rules(monkeypatch)
        g = EGraph()
        g.add_term(parse("(+ (* a a) b)"))
        scheduler = RecordingScheduler()
        report = run_saturation(
            g, [COMM_ADD, SQRT_ID], RunnerLimits(max_iterations=1),
            scheduler=scheduler,
        )
        perf = report.perf
        assert "sqrt-id" not in applied
        assert "comm-add" in applied
        assert perf.n_unmatchable == 1
        assert perf.rule_node_visits["sqrt-id"] == 0
        assert perf.rule_match_time["sqrt-id"] == 0.0
        assert perf.rule_unions["sqrt-id"] == 0
        assert report.iterations[0].applied["sqrt-id"] == 0
        # Only applications that scan report to the scheduler; the
        # skipped one's zero count would change nothing.
        assert [name for name, _, _ in scheduler.calls] == ["comm-add"]

    def test_op_added_mid_iteration_lets_a_later_rule_fire(self):
        # make-mul's RHS adds the first `*` node, into the class of
        # (+ a b).  fold-neg's root `neg` is in the iteration's op
        # index snapshot and its nested `*` is not, yet the live index
        # has it by the time fold-neg runs: it must match in this
        # same iteration.
        g = EGraph()
        g.add_term(parse("(neg (+ a b))"))
        snapshot = g.op_index()
        assert "*" not in snapshot
        rules = [
            parse_rewrite("make-mul", "(+ ?a ?b) => (* ?a ?b)"),
            parse_rewrite("fold-neg", "(neg (* ?a ?b)) => (* (neg ?a) ?b)"),
        ]
        report = run_saturation(g, rules, RunnerLimits(max_iterations=1))
        assert report.perf.n_unmatchable == 0
        assert report.iterations[0].applied["fold-neg"] == 1
        assert g.equivalent(
            g.lookup_term(parse("(neg (+ a b))")),
            g.lookup_term(parse("(* (neg a) b)")),
        )

    def test_absent_constant_is_skipped(self, monkeypatch):
        applied = applied_rules(monkeypatch)
        g = EGraph()
        g.add_term(parse("(* a 2)"))
        report = run_saturation(g, [MUL_ONE], RunnerLimits(max_iterations=3))
        assert applied == []
        assert report.perf.n_unmatchable == report.n_iterations == 1
        assert report.stop_reason is StopReason.SATURATED

        g.add_term(parse("(* b 1)"))
        report = run_saturation(g, [MUL_ONE], RunnerLimits(max_iterations=1))
        assert applied == ["mul-one"]
        assert report.perf.n_unmatchable == 0
        assert report.perf.n_matches == 1

    @pytest.mark.parametrize(
        "stored", [1, 1.0, Fraction(1)], ids=["int", "float", "fraction"]
    )
    @pytest.mark.parametrize(
        "wanted",
        [1, 1.0, Fraction(1), 2, 0.5, Fraction(1, 2)],
        ids=["int", "float", "fraction", "two", "half", "fraction-half"],
    )
    def test_constants_compare_like_the_vm(self, stored, wanted):
        g = EGraph()
        a = g.add_term(parse("a"))
        g.add_enode("*", None, (a, g.add_enode(CONST, stored, ())))
        target = (CONST, wanted, ())
        assert g.holds(((), (target,))) is vm_holds_leaf(g, target)
        assert g.holds(((), (target,))) is (stored == wanted)
        # Through a compiled pattern: the skip and the match agree.
        pattern = make("*", wildcard("a"), make(CONST, payload=wanted))
        needs = compile_pattern(pattern).needs
        matches = ematch(g, pattern, op_index=g.op_index())
        assert g.holds(needs) is bool(matches)

    def test_bare_wildcard_lhs_is_never_skipped(self, monkeypatch):
        applied = applied_rules(monkeypatch)
        pad = parse_rewrite("pad-one", "?a => (* ?a 1)")
        assert compile_pattern(pad.lhs).needs == ((), ())
        g = EGraph()
        g.add_term(parse("(neg a)"))
        report = run_saturation(g, [pad], RunnerLimits(max_iterations=2))
        assert applied == ["pad-one", "pad-one"]
        assert report.perf.n_unmatchable == 0

    def test_banned_rule_is_skipped_by_the_ban_not_the_check(self):
        # The ban is checked first: a banned rule blocks the saturation
        # claim even when its LHS could not match anyway.
        class BanSqrt(RuleScheduler):
            def can_apply(self, rule, iteration):
                return rule.name != "sqrt-id"

        g = EGraph()
        g.add_term(parse("(+ a b)"))
        report = run_saturation(
            g, [COMM_ADD, SQRT_ID], RunnerLimits(max_iterations=3),
            scheduler=BanSqrt(),
        )
        assert report.stop_reason is StopReason.ITERATION_LIMIT
        assert report.perf.n_unmatchable == 0
        assert "sqrt-id" not in report.perf.rule_node_visits


class TestUnmatchableCounter:
    RULES = [COMM_ADD, SQRT_ID, MUL_ONE, ADD_ZERO]

    def run(self):
        g = EGraph()
        g.add_term(parse("(+ a b)"))
        return run_saturation(g, self.RULES, RunnerLimits(max_iterations=5))

    def test_counts_each_skipped_application(self):
        first = self.run()
        second = self.run()
        assert first.stop_reason is StopReason.SATURATED
        # sqrt-id and mul-one lack their op, add-zero its constant 0;
        # comm-add runs every iteration.
        assert first.perf.n_unmatchable == 3 * first.n_iterations > 0
        assert second.perf.n_unmatchable == first.perf.n_unmatchable
        assert second.perf.node_visits == first.perf.node_visits

    def test_absorb_as_dict_and_span(self):
        sink = ListSink()
        with use_tracer(Tracer(sink)):
            report = self.run()
        total = SaturationPerf()
        total.absorb(report.perf)
        total.absorb(report.perf)
        assert total.n_unmatchable == 2 * report.perf.n_unmatchable
        assert total.as_dict()["n_unmatchable"] == total.n_unmatchable
        (eqsat,) = sink.by_name("eqsat")
        assert eqsat["attrs"]["n_unmatchable"] == report.perf.n_unmatchable


class TestPresenceInvariant:
    """What ``EGraph.holds`` relies on, after every mutation."""

    @staticmethod
    def check(g: EGraph) -> None:
        for eclass in g.classes():
            for node in eclass.nodes:
                assert g._op_index.get(node[0])
                if not node[2]:
                    assert node in g._hashcons

    @given(
        term_list=st.lists(terms(), min_size=1, max_size=6),
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("union"), st.integers(0, 60),
                          st.integers(0, 60)),
                st.tuples(st.just("add"), terms()),
                st.tuples(st.just("rebuild")),
                st.tuples(st.just("compact")),
                st.tuples(st.just("snapshot")),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_ops_indexed_and_leaves_hashconsed(self, term_list, steps):
        g = EGraph()
        for t in term_list:
            g.add_term(t)
        self.check(g)
        for step in steps:
            kind = step[0]
            if kind == "union":
                ids = sorted(g._classes)
                g.union(ids[step[1] % len(ids)], ids[step[2] % len(ids)])
            elif kind == "add":
                g.add_term(step[1])
            elif kind == "rebuild":
                g.rebuild()
            elif kind == "compact":
                g._compact_op_index()
            else:
                g, _ = load_egraph(save_egraph(g))
            self.check(g)


KERNELS = ("matmul-2x2x2", "2dconv-3x3-2x2")


@pytest.fixture(scope="module")
def suite_skips():
    """Compile ``KERNELS``, checking every skip against the oracle.

    Returns ``{kernel: {"checks", "skips", "unknown"}}``: the number
    of presence checks, one flag per skip (true where the oracle found
    no match), and skips of an LHS outside the run's rules.  Each skip
    runs the dict oracle, with no match limit or work budget, on a
    snapshot copy of the graph whose op index is rebuilt from its
    class table.  Consecutive skips share the copy until the graph
    changes.
    """
    compiler = default_compiler(fusion_g3_spec())
    suite = suite_by_key(width=4)
    options = fig4_style_options()
    product_holds = EGraph.holds
    product_run = runner_module._run_saturation
    # id(needs) -> LHS, for the rules of the saturation run in flight
    # (the runner reads each rule's cached ``CompiledPattern.needs``).
    lhs_of: dict[int, object] = {}
    copy = {"source": None, "stamp": None}
    tally = {"checks": 0, "skips": [], "unknown": 0}

    def tracking_run(egraph, rules, *args, **kwargs):
        lhs_of.clear()
        for rule in rules:
            lhs_of[id(compile_pattern(rule.lhs).needs)] = rule.lhs
        return product_run(egraph, rules, *args, **kwargs)

    def checking_holds(self, needs):
        tally["checks"] += 1
        held = product_holds(self, needs)
        if held:
            return held
        lhs = lhs_of.get(id(needs))
        if lhs is None:
            tally["unknown"] += 1
            return held
        # Every mutation adds a node, unions (growing the worklist) or
        # rebuilds a dirty graph (emptying it), so it changes the stamp.
        stamp = (self._n_adds, self._n_unions, self._n_live_nodes,
                 len(self._worklist))
        if copy["source"] is not self or copy["stamp"] != stamp:
            graph, _ = load_egraph(save_egraph(self))
            copy.update(source=self, stamp=stamp, graph=graph,
                        index=op_index_rescan(graph))
        matches = oracle_ematch(
            copy["graph"], lhs, op_index=copy["index"], limit=None,
            work_budget=1 << 60,
        )
        tally["skips"].append(not matches)
        return held

    results = {}
    patch = pytest.MonkeyPatch()
    patch.setattr(runner_module, "_run_saturation", tracking_run)
    patch.setattr(EGraph, "holds", checking_holds)
    try:
        for key in KERNELS:
            tally.update(checks=0, skips=[], unknown=0)
            compiler.compile_kernel(suite[key], options=options)
            results[key] = dict(tally)
    finally:
        patch.undo()
    return results


class TestSuiteSkips:
    @pytest.mark.parametrize("key", KERNELS)
    def test_every_skip_is_an_empty_match(self, suite_skips, key):
        result = suite_skips[key]
        assert result["unknown"] == 0
        assert len(result["skips"]) > 100
        assert len(result["skips"]) < result["checks"]
        assert all(result["skips"])
