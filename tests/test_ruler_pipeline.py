"""Unit tests for candidates, minimization, lane generalization, and
the synthesis pipeline end-to-end."""

from types import SimpleNamespace

from repro.egraph.rewrite import Rewrite, parse_rewrite
from repro.lang.parser import parse, to_sexpr
from repro.ruler import (
    SynthesisConfig,
    generalize_rules,
    minimize_rules,
    synthesize_rules,
)
from repro.ruler.candidates import (
    candidate_rules,
    canonical_wildcards,
    orient_pair,
    to_pattern,
)
from repro.ruler.lanes import deep_lift, lift_lhs, scalarize, vectorize
from repro.ruler.minimize import is_derivable


class TestCandidates:
    def test_to_pattern(self):
        assert to_pattern(parse("(+ a (neg b))")) == parse(
            "(+ ?a (neg ?b))"
        )

    def test_orient_both_directions(self):
        pairs = orient_pair(parse("(+ a b)"), parse("(+ b a)"))
        assert len(pairs) == 2

    def test_orient_var_dropping_one_direction(self):
        pairs = orient_pair(parse("(* a 0)"), parse("0"))
        assert len(pairs) == 1
        lhs, rhs = pairs[0]
        assert lhs == parse("(* ?w0 0)")
        assert rhs == parse("0")

    def test_canonical_wildcards(self):
        lhs, rhs = canonical_wildcards(
            parse("(+ ?x ?y)"), parse("(+ ?y ?x)")
        )
        assert to_sexpr(lhs) == "(+ ?w0 ?w1)"
        assert to_sexpr(rhs) == "(+ ?w1 ?w0)"

    def test_candidate_rules_dedupe(self):
        pairs = [
            (parse("(+ a b)"), parse("(+ b a)")),
            (parse("(+ x y)"), parse("(+ y x)")),  # same after renaming
        ]
        rules = candidate_rules(pairs)
        # Commutativity is self-inverse under canonical renaming, so
        # the two pairs (and both orientations) collapse to one rule.
        assert len(rules) == 1
        assert str(rules[0]) == "(+ ?w0 ?w1) => (+ ?w1 ?w0)"

    def test_trivial_identity_dropped(self):
        pairs = [(parse("(+ a b)"), parse("(+ a b)"))]
        assert candidate_rules(pairs) == []


class TestMinimize:
    def test_derivable_instance_dropped(self):
        general = parse_rewrite("mul0", "(* ?w0 0) => 0")
        instance = parse_rewrite("mul0-inst", "(* (neg ?w0) 0) => 0")
        assert is_derivable(instance, [general])

    def test_underivable_kept(self):
        comm = parse_rewrite("comm", "(+ ?w0 ?w1) => (+ ?w1 ?w0)")
        assoc = parse_rewrite(
            "assoc", "(+ (+ ?w0 ?w1) ?w2) => (+ ?w0 (+ ?w1 ?w2))"
        )
        assert not is_derivable(assoc, [comm])

    def test_minimize_orders_and_filters(self):
        rules = candidate_rules(
            [
                (parse("(* a 0)"), parse("0")),
                (parse("(* (neg a) 0)"), parse("0")),
                (parse("(+ a b)"), parse("(+ b a)")),
            ]
        )
        kept, aborted = minimize_rules(rules, batch_size=1)
        assert not aborted
        texts = {str(r) for r in kept}
        assert "(* ?w0 0) => 0" in texts
        assert "(* (neg ?w0) 0) => 0" not in texts

    def test_deadline_aborts(self):
        rules = candidate_rules(
            [(parse("(+ a b)"), parse("(+ b a)"))] * 1
        )
        kept, aborted = minimize_rules(rules, deadline=0.0)
        assert aborted and kept == []


class TestLaneTransforms:
    def test_scalarize_vector_ops(self, spec):
        assert scalarize(parse("(VecAdd ?a (VecMul ?b ?c))"), spec) == (
            parse("(+ ?a (* ?b ?c))")
        )

    def test_vectorize_scalar_ops_and_consts(self, spec):
        assert vectorize(parse("(+ ?a 0)"), spec) == parse(
            "(VecAdd ?a (Vec 0 0 0 0))"
        )

    def test_deep_lift(self, spec):
        lifted = deep_lift(parse("(mac ?c ?a ?b)"), spec)
        assert lifted == parse(
            "(VecMAC (Vec ?c.0 ?c.1 ?c.2 ?c.3) "
            "(Vec ?a.0 ?a.1 ?a.2 ?a.3) (Vec ?b.0 ?b.1 ?b.2 ?b.3))"
        )

    def test_lift_lhs_fresh_wildcards_per_lane(self, spec):
        lifted = lift_lhs(parse("(+ ?a ?b)"), spec)
        assert lifted == parse(
            "(Vec (+ ?a.0 ?b.0) (+ ?a.1 ?b.1) (+ ?a.2 ?b.2) "
            "(+ ?a.3 ?b.3))"
        )


class TestGeneralization:
    def test_produces_the_canonical_lift_rule(self, spec):
        # the rule connecting + and its single-lane VecAdd
        seed = [Rewrite("r", parse("(+ ?a ?b)"), parse("(VecAdd ?a ?b)"))]
        rules, report = generalize_rules(seed, spec)
        texts = [str(r) for r in rules]
        assert (
            "(Vec (+ ?w0 ?w1) (+ ?w2 ?w3) (+ ?w4 ?w5) (+ ?w6 ?w7)) => "
            "(VecAdd (Vec ?w0 ?w2 ?w4 ?w6) (Vec ?w1 ?w3 ?w5 ?w7))"
            in texts
        )
        assert report.n_generated == len(rules)

    def test_padding_rules_from_identity(self, spec):
        seed = [Rewrite("pad", parse("?a"), parse("(+ ?a 0)"))]
        rules, _ = generalize_rules(seed, spec)
        pads = [r for r in rules if r.lhs.op == "Vec" and r.rhs.op == "Vec"]
        assert len(pads) == spec.vector_width
        assert str(pads[0]).startswith(
            "(Vec ?w0 ?w1 ?w2 ?w3) => (Vec (+ ?w0 0)"
        )

    def test_canonical_lifts_always_present(self, spec):
        # Even from an empty seed, every vector instruction gets its
        # canonical lift rule (minimization may have dropped the
        # single-lane bridge rule it would otherwise come from).
        rules, _ = generalize_rules([], spec)
        lifted_ops = {r.rhs.op for r in rules if r.lhs.op == "Vec"}
        assert {"VecAdd", "VecMinus", "VecMul", "VecDiv", "VecMAC",
                "VecNeg", "VecSgn", "VecSqrt"} <= lifted_ops

    def test_ground_rules_stay_scalar_only(self, spec):
        seed = [Rewrite("fold", parse("(sqrt 1)"), parse("1"))]
        baseline, _ = generalize_rules([], spec)
        rules, _ = generalize_rules(seed, spec)
        extra = [r for r in rules if str(r) not in
                 {str(b) for b in baseline}]
        assert [str(r) for r in extra] == ["(sqrt 1) => 1"]

    def test_unsound_generalization_rejected(self, spec):
        # A deliberately bogus single-lane "rule" whose full-width
        # expansion is unsound must be dropped by re-verification.
        seed = [Rewrite("bogus", parse("(+ ?a ?b)"), parse("(* ?a ?b)"))]
        baseline, _ = generalize_rules([], spec)
        rules, report = generalize_rules(seed, spec)
        assert len(rules) == len(baseline)
        assert report.n_rejected >= 1


class TestSynthesisPipeline:
    def test_size3_smoke(self, synthesis_size3):
        res = synthesis_size3
        assert res.n_enumerated > 100
        assert res.n_candidates > 50
        assert res.n_unsound == 0  # cvec filtering already screened
        assert len(res.rules) > 30
        assert not res.aborted

    def test_finds_commutativity(self, synthesis_size3):
        texts = {str(r) for r in synthesis_size3.rules}
        assert "(+ ?w0 ?w1) => (+ ?w1 ?w0)" in texts
        assert "(VecAdd ?w0 ?w1) => (VecAdd ?w1 ?w0)" in texts

    def test_finds_the_vecadd_lift(self, synthesis_size3):
        lift = [
            r
            for r in synthesis_size3.rules
            if r.lhs.op == "Vec" and r.rhs.op == "VecAdd"
        ]
        assert lift

    def test_size4_finds_mac_identities(self, synthesis_size4):
        # The full (mac c a b) <=> (+ c (* a b)) link needs size-5
        # enumeration; size 4 already connects mac to multiplication.
        texts = {str(r) for r in synthesis_size4.rules}
        assert "(* ?w0 ?w1) => (mac 0 ?w0 ?w1)" in texts

    def test_size4_finds_sub_neg_bridge(self, synthesis_size4):
        texts = {str(r) for r in synthesis_size4.rules}
        assert "(- ?w0 ?w1) => (+ ?w0 (neg ?w1))" in texts or (
            "(+ ?w0 (neg ?w1)) => (- ?w0 ?w1)" in texts
        )

    def test_all_rules_verify(self, spec, synthesis_size3):
        from repro.lang.ops import OpKind
        from repro.ruler.verify import verify_rule, verify_vector_rule

        def vectorish(rule):
            for side in (rule.lhs, rule.rhs):
                for sub in _subterms(side):
                    if sub.op == "Vec":
                        return True
                    if (
                        spec.has_instruction(sub.op)
                        and spec.instruction(sub.op).kind is OpKind.VECTOR
                    ):
                        return True
            return False

        for rule in synthesis_size3.rules[:60]:
            if vectorish(rule):
                assert verify_vector_rule(
                    rule.lhs, rule.rhs, spec, n_samples=8
                ).ok, str(rule)
            else:
                assert verify_rule(
                    rule.lhs, rule.rhs, spec, n_samples=16, seed=99
                ).ok, str(rule)

    def test_budget_abort_marks_result(self, spec):
        res = synthesize_rules(
            spec, SynthesisConfig(max_term_size=6, time_budget=0.5)
        )
        assert res.aborted

    def test_verify_deadline_checked_per_candidate(self, spec, monkeypatch):
        """The verify stage checks its deadline before every candidate:
        a clock that passes the deadline after ``k`` checks stops the
        stage right there, keeping exactly the sound rules among the
        first ``k`` candidates, in candidate order."""
        from repro.ruler import synthesize as synth

        k = 21
        unsound = [
            Rewrite(f"unsound-{i}", parse(lhs), parse(rhs))
            for i, (lhs, rhs) in enumerate([
                ("(- ?a ?b)", "(+ ?a ?b)"),
                ("(/ (* ?a ?b) ?b)", "?a"),
                ("(sqrt (* ?a ?a))", "?a"),
            ])
        ]
        seen = {}
        real_candidates = synth.candidate_rules

        def with_unsound(pairs):
            # The cvec filter passes no unsound pair on this grid, so
            # three are spread over the first k candidates.
            rules = real_candidates(pairs)
            for index, rule in zip((0, 7, 14), unsound):
                rules.insert(index, rule)
            seen["candidates"] = rules
            return rules

        real_verify = synth.verify_rule
        calls = []

        def counting_verify(*args, **kwargs):
            calls.append(args[:2])
            return real_verify(*args, **kwargs)

        # synthesize's own clock jumps a million seconds after the
        # k-th check; every other module keeps the real clock, which
        # never reaches the hour-long budget.
        real_time = synth.time
        monkeypatch.setattr(synth, "time", SimpleNamespace(
            monotonic=lambda: real_time.monotonic()
            + (1e6 if len(calls) >= k else 0.0)
        ))
        monkeypatch.setattr(synth, "candidate_rules", with_unsound)
        monkeypatch.setattr(synth, "verify_rule", counting_verify)
        config = SynthesisConfig(
            max_term_size=3, variables=("a", "b"), n_cvec_random=8,
            n_verify_samples=16, minimize=False, cost_prune=False,
            time_budget=3600.0,
        )
        result = synth.synthesize_rules(spec, config)

        candidates = seen["candidates"]
        assert result.n_candidates == len(candidates) > k
        assert result.aborted
        assert len(calls) == k
        assert result.n_verified + result.n_unsound == k
        assert result.n_unsound >= len(unsound)
        expected = [
            rule for rule in candidates[:k]
            if real_verify(
                rule.lhs, rule.rhs, spec,
                n_samples=config.n_verify_samples, seed=config.verify_seed,
            ).ok
        ]
        assert result.single_lane_rules == expected

    def test_budgeted_config_tiers(self):
        assert SynthesisConfig.budgeted(1).max_term_size == 3
        assert SynthesisConfig.budgeted(10).max_term_size == 4
        assert SynthesisConfig.budgeted(600).max_term_size == 5


def _subterms(term):
    from repro.lang.term import subterms

    return subterms(term)
