"""Unit tests for cost-aware dominated-rule pruning."""

from __future__ import annotations

import math

import pytest

from repro.egraph.rewrite import parse_rewrite
from repro.isa import fusion_g3_spec
from repro.phases.cost import CostModel
from repro.ruler.cost_prune import (
    _RESCUE_LIMITS,
    CostPruneReport,
    cost_model_digest,
    cost_prune_rules,
    lhs_subsumes,
    rule_delta,
)
from repro.ruler.minimize import _FILTER_LIMITS
from repro.ruler.stats import SynthesisPerf


@pytest.fixture(scope="module")
def spec():
    return fusion_g3_spec()


class TestLhsSubsumes:
    def test_wildcard_subsumes_anything(self):
        gen = parse_rewrite("g", "?w0 => ?w0")
        spe = parse_rewrite("s", "(+ (* ?a ?b) 1) => ?a")
        assert lhs_subsumes(gen.lhs, spe.lhs)
        assert not lhs_subsumes(spe.lhs, gen.lhs)

    def test_structure_must_match(self):
        gen = parse_rewrite("g", "(+ ?w0 ?w1) => ?w0")
        spe = parse_rewrite("s", "(* ?w0 ?w1) => ?w0")
        assert not lhs_subsumes(gen.lhs, spe.lhs)

    def test_wildcard_binds_subpattern(self):
        gen = parse_rewrite("g", "(+ ?w0 ?w1) => ?w0")
        spe = parse_rewrite("s", "(+ (* ?a ?b) 0) => ?a")
        assert lhs_subsumes(gen.lhs, spe.lhs)
        assert not lhs_subsumes(spe.lhs, gen.lhs)

    def test_repeated_wildcard_needs_equal_subpatterns(self):
        gen = parse_rewrite("g", "(+ ?w0 ?w0) => ?w0")
        same = parse_rewrite("s1", "(+ (* ?a ?b) (* ?a ?b)) => ?a")
        diff = parse_rewrite("s2", "(+ (* ?a ?b) (* ?b ?a)) => ?a")
        assert lhs_subsumes(gen.lhs, same.lhs)
        assert not lhs_subsumes(gen.lhs, diff.lhs)

    def test_alpha_renaming_is_mutual(self):
        a = parse_rewrite("a", "(+ ?w0 ?w1) => ?w0")
        b = parse_rewrite("b", "(+ ?x ?y) => ?x")
        assert lhs_subsumes(a.lhs, b.lhs)
        assert lhs_subsumes(b.lhs, a.lhs)

    def test_literal_mismatch(self):
        gen = parse_rewrite("g", "(+ ?w0 0) => ?w0")
        spe = parse_rewrite("s", "(+ ?w0 1) => ?w0")
        assert not lhs_subsumes(gen.lhs, spe.lhs)


class TestRuleDelta:
    def test_simplifying_rule_has_positive_delta(self, spec):
        model = CostModel(spec)
        rule = parse_rewrite("r", "(+ ?w0 0) => ?w0")
        assert rule_delta(model, rule) > 0

    def test_commutativity_is_neutral(self, spec):
        model = CostModel(spec)
        rule = parse_rewrite("r", "(+ ?w0 ?w1) => (+ ?w1 ?w0)")
        assert rule_delta(model, rule) == 0

    def test_expansion_rule_has_negative_delta(self, spec):
        model = CostModel(spec)
        rule = parse_rewrite("r", "?w0 => (+ ?w0 0)")
        assert rule_delta(model, rule) < 0


class TestCostPrune:
    def test_dominated_rule_dropped(self, spec):
        # The general zero-elimination dominates the specific one
        # (same delta comes out better through the general LHS's
        # smaller term), and the specific is derivable from it.
        general = parse_rewrite("gen", "(+ ?w0 0) => ?w0")
        specific = parse_rewrite("spec", "(+ (neg ?w0) 0) => (neg ?w0)")
        kept, report = cost_prune_rules([general, specific], spec)
        names = {r.name for r in kept}
        assert names == {"gen"}
        assert report.n_dominated == 1
        assert report.n_in == 2 and report.n_kept == 1

    def test_non_derivable_dominated_rule_rescued(self, spec):
        # "gen" dominates "mul1" (alpha-equal LHS, better delta), but
        # nothing in the kept set derives ``(* ?w0 1)``, so the
        # derivability rescue must bring it back.
        general = parse_rewrite("gen", "(+ ?w0 ?w1) => ?w0")
        mul1 = parse_rewrite("mul1", "(+ ?w0 ?w1) => (* ?w0 1)")
        kept, report = cost_prune_rules([general, mul1], spec)
        names = {r.name for r in kept}
        assert "mul1" in names
        assert report.n_rescued >= 1
        assert report.n_in == report.n_kept + report.n_dominated

    def test_bare_wildcard_lhs_exempt_both_sides(self, spec):
        # Introduction rules neither dominate nor get dominated: both
        # survive even though one bare-wildcard LHS "subsumes" the
        # other's.
        intro_a = parse_rewrite("ia", "?w0 => (+ ?w0 0)")
        intro_b = parse_rewrite("ib", "?w0 => (* ?w0 1)")
        kept, report = cost_prune_rules([intro_a, intro_b], spec)
        assert {r.name for r in kept} == {"ia", "ib"}
        assert report.n_dominated == 0

    def test_instruction_coverage_rescued(self, spec):
        # Only one rule introduces VecMAC; even if dominance would
        # drop it, the instruction-coverage guard keeps the op
        # reachable.
        general = parse_rewrite(
            "gen", "(VecAdd ?w0 ?w1) => (VecAdd ?w1 ?w0)"
        )
        mac = parse_rewrite(
            "mac",
            "(VecAdd (VecMul ?a ?b) ?c) => (VecMAC ?c ?a ?b)",
        )
        kept, _ = cost_prune_rules([general, mac], spec)
        assert "mac" in {r.name for r in kept}

    def test_output_preserves_input_order(self, spec):
        # A stable filter: the derivability shrink downstream relies on
        # orientation pairs (L => R next to R => L) staying adjacent,
        # so survivors must come back in input order, not delta order.
        rules = [
            parse_rewrite("intro", "?w0 => (+ ?w0 0)"),
            parse_rewrite("comm", "(+ ?w0 ?w1) => (+ ?w1 ?w0)"),
            parse_rewrite("zero", "(+ ?w0 0) => ?w0"),
        ]
        kept, _ = cost_prune_rules(rules, spec)
        names = [r.name for r in kept]
        assert names == [r.name for r in rules if r.name in set(names)]
        assert names.index("intro") < names.index("zero")

    def test_report_invariant_and_perf_counters(self, spec):
        rules = [
            parse_rewrite("gen", "(+ ?w0 0) => ?w0"),
            parse_rewrite("spec", "(+ (neg ?w0) 0) => (neg ?w0)"),
            parse_rewrite("absorb", "(* ?w0 0) => 0"),
        ]
        perf = SynthesisPerf()
        kept, report = cost_prune_rules(rules, spec, perf=perf)
        assert report.n_in == report.n_kept + report.n_dominated
        assert report.n_in == len(rules)
        assert report.n_kept == len(kept)
        assert perf.costprune_dominated == report.n_dominated
        assert perf.costprune_rescued == report.n_rescued
        assert report.cost_model_digest == cost_model_digest(spec)

    def test_empty_input(self, spec):
        kept, report = cost_prune_rules([], spec)
        assert kept == []
        assert report == CostPruneReport(
            cost_model_digest=cost_model_digest(spec)
        )


class TestDigest:
    def test_digest_is_stable_and_isa_sensitive(self, spec):
        from repro.isa.families import isa_family

        d1 = cost_model_digest(spec)
        assert d1 == cost_model_digest(spec)
        assert len(d1) == 16
        masked = isa_family("masked").spec(4)
        assert cost_model_digest(masked) != d1

    def test_digest_width_sensitive(self):
        from repro.isa.families import isa_family

        fam = isa_family("masked")
        assert cost_model_digest(fam.spec(4)) != cost_model_digest(
            fam.spec(8)
        )



class TestDeterministicLimits:
    def test_rescue_limits_are_wall_clock_free(self):
        assert math.isinf(_RESCUE_LIMITS.time_limit)

    def test_filter_limits_are_wall_clock_free(self):
        # The satellite fix: derivability minimization must not depend
        # on machine load.  Every budget that remains is deterministic.
        assert math.isinf(_FILTER_LIMITS.time_limit)
