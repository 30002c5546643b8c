"""Tests for rule-set statistics and the synthesis perf counters."""

from repro.egraph.rewrite import parse_rewrite
from repro.ruler.cvec import CvecEvaluator, CvecSpec
from repro.ruler.enumerate import enumerate_terms
from repro.ruler.stats import (
    SynthesisPerf,
    coverage_gaps,
    ops_used,
    size_histogram,
    summarize,
)


def _rules():
    return [
        parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)"),
        parse_rewrite("mac", "(+ ?c (* ?a ?b)) => (mac ?c ?a ?b)"),
        parse_rewrite(
            "lift",
            "(Vec (+ ?a0 ?b0) (+ ?a1 ?b1) (+ ?a2 ?b2) (+ ?a3 ?b3)) => "
            "(VecAdd (Vec ?a0 ?a1 ?a2 ?a3) (Vec ?b0 ?b1 ?b2 ?b3))",
        ),
    ]


class TestOpsUsed:
    def test_counts_rules_not_occurrences(self):
        counts = ops_used(_rules())
        assert counts["+"] == 3  # mentioned by all three rules
        assert counts["mac"] == 1
        assert counts["VecAdd"] == 1
        assert "Const" not in counts  # leaves excluded
        assert "Wild" not in counts


class TestSizeHistogram:
    def test_buckets(self):
        histogram = size_histogram(_rules())
        assert sum(histogram.values()) == 3
        assert histogram[">20"] == 1  # the lift rule is big

    def test_custom_bins(self):
        histogram = size_histogram(_rules(), bins=(100,))
        assert histogram["1-100"] == 3


class TestCoverageGaps:
    def test_reports_unmentioned_instructions(self, spec):
        gaps = coverage_gaps(_rules(), spec)
        assert "VecSqrt" in gaps
        assert "+" not in gaps

    def test_full_ruleset_has_no_gaps(self, spec, synthesis_size3):
        gaps = coverage_gaps(synthesis_size3.rules, spec)
        assert gaps == [], gaps


class TestSynthesisPerf:
    def test_intern_counts_collisions(self, spec):
        # Repeat fingerprints are the cvec "collision" event that makes
        # two terms candidate-equivalent.
        grid = CvecSpec.make(("a",), n_random=4, seed=0)
        evaluator = CvecEvaluator(spec.interpreter(), grid.envs)
        first = evaluator.intern(("x", "y"))
        assert evaluator.intern(("other",)) != first
        assert evaluator.intern(("x", "y")) == first
        assert evaluator.perf.interned_fingerprints == 2
        assert evaluator.perf.fingerprint_collisions == 1
        assert evaluator.fingerprint(first) == ("x", "y")

    def test_enumeration_exercises_collision_counter(self, spec):
        grid = CvecSpec.make(("a", "b"), n_random=8, seed=0)
        result = enumerate_terms(spec, grid, max_size=3)
        perf = result.perf
        # Every candidate pair came from a fingerprint collision.
        assert perf.fingerprint_collisions >= len(result.pairs) > 0
        assert perf.interned_fingerprints == result.n_representatives
        assert perf.cvec_cache_hits > 0
        assert perf.batched_evals > 0
        assert set(perf.per_size_times) == {1, 2, 3}

    def test_merge_sums_counters_and_sizes(self):
        a = SynthesisPerf(batched_evals=3, per_size_times={2: 1.0})
        b = SynthesisPerf(
            batched_evals=4, fingerprint_collisions=2,
            per_size_times={2: 0.5, 3: 2.0},
        )
        merged = a.merge(b)
        assert merged is a
        assert a.batched_evals == 7
        assert a.fingerprint_collisions == 2
        assert a.per_size_times == {2: 1.5, 3: 2.0}

    def test_as_dict_is_json_ready(self):
        import json

        perf = SynthesisPerf(per_size_times={4: 0.25}, per_size_new={4: 9})
        payload = perf.as_dict()
        assert payload["per_size_times"] == {"4": 0.25}
        assert payload["per_size_new"] == {"4": 9}
        json.dumps(payload)


class TestSummarize:
    def test_text_structure(self, spec):
        text = summarize(_rules(), spec)
        assert text.startswith("3 rules")
        assert "top operators:" in text
        assert "uncovered instructions:" in text

    def test_without_spec(self):
        text = summarize(_rules())
        assert "uncovered" not in text
