"""Differential fuzz: batched cvec evaluation vs the legacy oracle.

The batched :class:`CvecEvaluator` must fingerprint every term exactly
as the legacy path (one tree interpretation per environment) does —
including UNDEFINED propagation through division by zero and the float
rounding that sqrt introduces — and the enumeration built on top of it
must produce identical pools, pairs, and synthesized rules, sharded or
not.  ``REPRO_LEGACY_CVEC=1`` selects the oracle.
"""

import pickle
import random

import pytest

from generalize_oracle import (
    oracle_generalize_rules,
    oracle_verify_rule,
    oracle_verify_vector_rule,
)
from repro.core.pregen import single_lane_rules
from repro.egraph.rewrite import Rewrite
from repro.interp.value import UNDEFINED
from repro.isa import fusion_g3_spec, masked_spec
from repro.isa.custom import customized_spec
from repro.isa.families import bundled_spec_factories
from repro.lang import builders as B
from repro.lang import term as T
from repro.lang.parser import parse
from repro.ruler.cvec import (
    CvecEvaluator,
    CvecSpec,
    GridCache,
    cvec_of,
    legacy_cvec_requested,
)
from repro.ruler.enumerate import enumerate_terms
from repro.ruler.lanes import generalize_rules
from repro.ruler.stats import SynthesisPerf
from repro.ruler.synthesize import SynthesisConfig, _VerifyTask
from repro.ruler.verify import verify_rule, verify_rules, verify_vector_rule


def _specs():
    base = fusion_g3_spec()
    return [
        pytest.param(base, id="fusion-g3"),
        pytest.param(
            customized_spec(base, mulsub=True, sqrtsgn=True), id="custom"
        ),
    ]


def _random_term(rng, ops, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    instr = rng.choice(ops)
    return T.make(
        instr.name,
        *(
            _random_term(rng, ops, atoms, depth - 1)
            for _ in range(instr.arity)
        ),
    )


class TestFlagParsing:
    def test_legacy_flag_truthiness(self, monkeypatch):
        for raw, expected in (
            ("1", True), ("true", True), ("YES", True), (" on ", True),
            ("0", False), ("", False), ("off", False),
        ):
            monkeypatch.setenv("REPRO_LEGACY_CVEC", raw)
            assert legacy_cvec_requested() is expected
        monkeypatch.delenv("REPRO_LEGACY_CVEC")
        assert legacy_cvec_requested() is False


class TestFingerprintParity:
    @pytest.mark.parametrize("spec", _specs())
    def test_randomized_terms_agree(self, spec):
        interp = spec.interpreter()
        grid = CvecSpec.make(("a", "b"), n_random=12, seed=3)
        evaluator = CvecEvaluator(interp, grid.envs)
        rng = random.Random(1234)
        atoms = [
            B.symbol("a"), B.symbol("b"),
            B.const(0), B.const(1), B.const(2),
        ]
        ops = list(spec.instructions)
        for _ in range(200):
            term = _random_term(rng, ops, atoms, 4)
            legacy = cvec_of(term, interp, grid)
            batched = evaluator.fingerprint_of(evaluator.row_of(term))
            assert batched == legacy, term

    def test_undefined_propagates_lanewise(self, spec):
        # b = 0 appears in the corner envs: (/ a b) is undefined there
        # and defined elsewhere, in exactly the same positions.
        interp = spec.interpreter()
        grid = CvecSpec.make(("a", "b"), n_random=8, seed=5)
        evaluator = CvecEvaluator(interp, grid.envs)
        term = parse("(/ a b)")
        row = evaluator.row_of(term)
        assert any(value is UNDEFINED for value in row)
        assert any(value is not UNDEFINED for value in row)
        assert evaluator.fingerprint_of(row) == cvec_of(
            term, interp, grid
        )

    def test_all_undefined_matches_oracle_discard(self, spec):
        interp = spec.interpreter()
        grid = CvecSpec.make(("a",), n_random=4, seed=1)
        evaluator = CvecEvaluator(interp, grid.envs)
        term = parse("(/ a 0)")
        assert evaluator.fingerprint_of(evaluator.row_of(term)) is None
        assert cvec_of(term, interp, grid) is None

    def test_sqrt_float_rounding_matches(self, spec):
        # sqrt of a non-square yields floats; the fingerprint rounds
        # them identically on both paths.
        interp = spec.interpreter()
        grid = CvecSpec.make(("a", "b"), n_random=12, seed=7)
        evaluator = CvecEvaluator(interp, grid.envs)
        for text in (
            "(sqrt (* a a))",
            "(sqrt (+ (* a a) (* b b)))",
            "(VecSqrt (VecMAC 0 a b))",
        ):
            term = parse(text)
            assert evaluator.fingerprint_of(
                evaluator.row_of(term)
            ) == cvec_of(term, interp, grid)

    def test_row_cache_reuses_children(self, spec):
        interp = spec.interpreter()
        grid = CvecSpec.make(("a", "b"), n_random=4, seed=0)
        evaluator = CvecEvaluator(interp, grid.envs)
        evaluator.row_of(parse("(+ a b)"))
        misses = evaluator.perf.cvec_cache_misses
        evaluator.row_of(parse("(* (+ a b) (+ a b))"))
        # Only the new root misses; (+ a b) and its leaves are cached,
        # and the shared child is one interned DAG node.
        assert evaluator.perf.cvec_cache_misses == misses + 1
        evaluator.row_of(parse("(+ a b)"))  # fully cached
        assert evaluator.perf.cvec_cache_hits > 0
        assert evaluator.perf.cvec_cache_misses == misses + 1


class TestEnumerationParity:
    @pytest.mark.parametrize("spec", _specs())
    def test_legacy_and_batched_identical(self, spec, monkeypatch):
        grid = CvecSpec.make(("a", "b"), n_random=8, seed=0)
        monkeypatch.setenv("REPRO_LEGACY_CVEC", "1")
        legacy = enumerate_terms(spec, grid, max_size=3)
        assert legacy.perf.backend == "legacy"
        monkeypatch.delenv("REPRO_LEGACY_CVEC")
        batched = enumerate_terms(spec, grid, max_size=3)
        assert batched.perf.backend == "batched"
        assert batched.representatives == legacy.representatives
        assert batched.pairs == legacy.pairs
        assert batched.n_enumerated == legacy.n_enumerated
        assert batched.aborted == legacy.aborted

    def test_sharded_matches_serial(self, spec, monkeypatch):
        # jobs=2 + REPRO_PARALLEL=2 force the shard/merge path even on
        # one CPU; parallel_map's fallback keeps it exercised when
        # process pools are unavailable.
        grid = CvecSpec.make(("a", "b"), n_random=8, seed=0)
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        sharded = enumerate_terms(spec, grid, max_size=3, jobs=2)
        assert sharded.perf.enumeration_shards > 0
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        serial = enumerate_terms(spec, grid, max_size=3)
        assert sharded.representatives == serial.representatives
        # Pair ordering may interleave differently across shards; the
        # pair *set* (what candidate_rules consumes, which sorts) and
        # every count are identical.
        assert sorted(sharded.pairs, key=str) == sorted(
            serial.pairs, key=str
        )
        assert sharded.n_enumerated == serial.n_enumerated
        assert (
            sharded.perf.interned_fingerprints
            == serial.perf.interned_fingerprints
        )


class TestVerifyParity:
    _RULES = [
        ("(+ ?a ?b)", "(+ ?b ?a)", True),
        ("(* ?a 1)", "?a", True),
        ("(/ (* ?a ?b) ?b)", "?a", False),  # definedness differs
        ("(- ?a ?b)", "(+ ?a ?b)", False),
        ("(mac ?c ?a ?b)", "(+ ?c (* ?a ?b))", True),
        ("(sqrt (* ?a ?a))", "?a", False),  # fails for negative a
        ("(sgn (sgn ?a))", "(sgn ?a)", True),
    ]

    # Rationally-equal rules (12 fuzz samples, their constants added
    # to the corners) next to fuzzed ones (64) over the same wildcard
    # names: their grids must stay apart.  The first check draws the
    # 64-sample (?a, ?b) grid, and the second's definedness mismatch
    # (?b = 4, no constant of the rule or corner value) first appears
    # past the 12-sample grid, so it passes only on its own grid.
    _SHARED_NAMES = [
        ("(sgn (* ?a ?b))", "(* (sgn ?a) (sgn ?b))"),
        ("(/ (* ?a (- (* 2 ?b) 8)) (- (* 2 ?b) 8))", "?a"),
        ("(/ (* ?a (- ?b 4)) (- ?b 4))", "?a"),
        ("(/ (* ?a ?b) ?b)", "?a"),
        ("(/ ?a ?b)", "(* ?a (/ 1 ?b))"),
        ("(sqrt (* ?a ?b))", "(* (sqrt ?a) (sqrt ?b))"),
        ("(/ (+ ?a ?b) ?b)", "(+ (/ ?a ?b) 1)"),
        ("(- ?a ?b)", "(+ ?a ?b)"),
        ("(sqrt (* ?a ?a))", "?a"),
        ("(sqrt (* ?b ?b))", "(sgn ?b)"),
        ("(/ ?a ?a)", "1"),
        ("(sgn (sgn ?a))", "(sgn ?a)"),
    ]
    _VECTOR = [
        ("(VecAdd ?a ?b)", "(VecAdd ?b ?a)"),
        ("(VecDiv (VecMul ?a ?b) ?b)", "?a"),
        ("(VecSqrt (VecMul ?a ?a))", "?a"),
        ("(VecMinus ?a ?b)", "(VecAdd ?a ?b)"),
        ("(Vec (+ ?a ?b) ?c ?d ?e)", "(Vec (+ ?b ?a) ?c ?d ?e)"),
        ("(Vec ?a ?b ?c ?d)", "(Vec ?d ?b ?c ?a)"),
        ("(VecSgn (VecSgn ?a))", "(VecSgn ?a)"),
        # Scalar-kind ?a ?b, sharing names with the vector-kind rules.
        ("(Vec ?a ?b ?a ?b)", "(Vec ?b ?a ?b ?a)"),
        ("(Vec (* ?a ?b) ?a ?b 0)", "(Vec (* ?b ?a) ?a ?b 0)"),
    ]

    def test_batched_and_legacy_verdicts_agree(self, spec, monkeypatch):
        for lhs, rhs, expected in self._RULES:
            lhs, rhs = parse(lhs), parse(rhs)
            monkeypatch.delenv("REPRO_LEGACY_CVEC", raising=False)
            batched = verify_rule(lhs, rhs, spec)
            monkeypatch.setenv("REPRO_LEGACY_CVEC", "1")
            legacy = verify_rule(lhs, rhs, spec)
            assert batched.ok is legacy.ok is expected
            assert batched.method == legacy.method
            assert batched.detail == legacy.detail

    @pytest.mark.parametrize(
        "isa", [fusion_g3_spec(), masked_spec(4)], ids=lambda s: s.name
    )
    def test_shared_grid_verdicts_equal_one_off_and_legacy(
        self, isa, monkeypatch
    ):
        checks = [
            (parse(lhs), parse(rhs), False)
            for lhs, rhs in self._SHARED_NAMES + [r[:2] for r in self._RULES]
        ] + [(parse(lhs), parse(rhs), True) for lhs, rhs in self._VECTOR]
        monkeypatch.delenv("REPRO_LEGACY_CVEC", raising=False)
        oracle = [
            (oracle_verify_vector_rule if vector else oracle_verify_rule)(
                lhs, rhs, isa
            )
            for lhs, rhs, vector in checks
        ]
        one_off = [
            (verify_vector_rule if vector else verify_rule)(lhs, rhs, isa)
            for lhs, rhs, vector in checks
        ]
        grouped = verify_rules(checks, isa)
        # One cache across every check, in input order, without the
        # per-group clearing.
        grids = GridCache(isa.interpreter())
        shared = [
            (verify_vector_rule if vector else verify_rule)(
                lhs, rhs, isa, grids=grids
            )
            for lhs, rhs, vector in checks
        ]
        monkeypatch.setenv("REPRO_LEGACY_CVEC", "1")
        legacy = verify_rules(checks, isa)
        assert grouped == one_off == shared == legacy == oracle
        verdicts = [result.ok for result in one_off]
        assert True in verdicts and False in verdicts
        assert {result.method for result in one_off} == {"exact", "fuzz"}
        details = [result.detail for result in one_off]
        assert any(d.startswith("definedness mismatch") for d in details)
        assert any(d.startswith("counterexample") for d in details)
        assert any(d.startswith("vector counterexample") for d in details)

    def test_shared_grid_charges_each_callers_perf(self, spec):
        grids = GridCache(spec.interpreter())
        lhs, rhs = parse("(sqrt (* ?a ?b))"), parse("(* (sqrt ?a) (sqrt ?b))")
        first, second = SynthesisPerf(), SynthesisPerf()
        verify_rule(lhs, rhs, spec, perf=first, grids=grids)
        verify_rule(lhs, rhs, spec, perf=second, grids=grids)
        assert first.cvec_cache_misses > 0
        assert first.batched_evals == first.cvec_cache_misses
        # The second check finds both sides cached: it is charged two
        # hits and nothing else, and the first block is left alone.
        assert (second.cvec_cache_hits, second.cvec_cache_misses) == (2, 0)
        assert second.batched_evals == 0
        assert first.cvec_cache_hits == 0
        assert len(grids) == 1

    # Unsound single-lane seeds between sound ones, so rejections land
    # in the scal, vect, lift and pad forms and later rules are
    # renumbered.
    _UNSOUND_SEEDS = [
        ("(+ ?a ?b)", "(+ ?b ?a)"),
        ("(- ?a ?b)", "(+ ?a ?b)"),
        ("(* ?a 1)", "?a"),
        ("(/ (* ?a ?b) ?b)", "?a"),
        ("?a", "(+ ?a 1)"),
        ("(sqrt (* ?a ?a))", "?a"),
        ("?a", "(+ ?a 0)"),
        ("(VecMul ?a ?b)", "(VecMul ?b ?a)"),
        ("(mac ?c ?a ?b)", "(+ ?c (* ?a ?b))"),
    ]

    @pytest.mark.parametrize(
        "isa", [fusion_g3_spec(), masked_spec(4)], ids=lambda s: s.name
    )
    def test_generalize_rejections_match_oracle(self, isa):
        seed = [
            Rewrite(f"seed-{i}", parse(lhs), parse(rhs))
            for i, (lhs, rhs) in enumerate(self._UNSOUND_SEEDS)
        ]
        rules, report = generalize_rules(seed, isa)
        want_rules, want_report = oracle_generalize_rules(seed, isa)
        assert _rule_rows(rules) == _rule_rows(want_rules)
        assert report == want_report
        forms = {name for name, _, _, _ in report.rejected}
        assert {"scal", "vect", "lift"} <= forms
        assert any(form.startswith("pad") for form in forms)
        # Accepted rules are numbered densely in emission order, past
        # every rejection.
        assert [int(rule.name.rsplit("-", 1)[1]) for rule in rules] == (
            list(range(len(rules)))
        )
        assert report.n_generated == len(rules)
        assert report.n_rejected == len(report.rejected) > 0

    @pytest.mark.parametrize(
        "isa",
        sorted(
            name for name, make in bundled_spec_factories().items()
            if make().vector_width == 4
        ) + ["masked-w8"],
    )
    def test_generalize_matches_oracle_on_bundled_families(self, isa):
        spec = bundled_spec_factories()[isa]()
        seed = single_lane_rules()
        perf, oracle_perf = SynthesisPerf(), SynthesisPerf()
        rules, report = generalize_rules(seed, spec, perf=perf)
        want_rules, want_report = oracle_generalize_rules(
            seed, spec, perf=oracle_perf
        )
        assert _rule_rows(rules) == _rule_rows(want_rules)
        assert report == want_report
        assert perf.verify_legacy_terms == oracle_perf.verify_legacy_terms
        if spec.masked:
            # The projection's two sides now evaluate batched too.
            assert perf.verify_batched_terms > oracle_perf.verify_batched_terms
        else:
            assert perf.verify_batched_terms == (
                oracle_perf.verify_batched_terms
            )
        # Shared grids compute each distinct subterm row once per group.
        assert perf.cvec_cache_misses < oracle_perf.cvec_cache_misses


def _rule_rows(rules):
    return [(rule.name, rule.lhs, rule.rhs) for rule in rules]


class TestVerifyStageSharing:
    _UNSOUND = [
        ("(- ?a ?b)", "(+ ?a ?b)"),
        ("(/ (* ?a ?b) ?b)", "?a"),
        ("(sqrt (* ?a ?a))", "?a"),
    ]

    def test_serial_and_parallel_stages_agree(self, spec, monkeypatch):
        # Enough candidates (> the 64-candidate fan-out floor) for the
        # verify stage to fan out under REPRO_PARALLEL=2; the cvec
        # filter passes no unsound pair on this grid, so three are
        # appended to exercise rejection on both paths.
        from repro.ruler import synthesize as synth

        real = synth.candidate_rules

        def with_unsound(pairs):
            return real(pairs) + [
                Rewrite(f"unsound-{i}", parse(lhs), parse(rhs))
                for i, (lhs, rhs) in enumerate(self._UNSOUND)
            ]

        monkeypatch.setattr(synth, "candidate_rules", with_unsound)
        config = SynthesisConfig(
            max_term_size=3, variables=("a", "b"), n_cvec_random=8,
            n_verify_samples=16, minimize=False, cost_prune=False,
        )
        results = {}
        for workers in ("0", "2"):
            monkeypatch.setenv("REPRO_PARALLEL", workers)
            results[workers] = synth.synthesize_rules(spec, config)
        serial, parallel = results["0"], results["2"]
        assert serial.n_candidates >= synth._PARALLEL_VERIFY_MIN
        assert _rule_rows(serial.rules) == _rule_rows(parallel.rules)
        assert serial.single_lane_rules == parallel.single_lane_rules
        assert serial.n_unsound == parallel.n_unsound == len(self._UNSOUND)
        assert serial.n_verified == parallel.n_verified
        for counter in ("verify_batched_terms", "verify_legacy_terms"):
            assert getattr(serial.perf, counter) == getattr(
                parallel.perf, counter
            )

    def test_verify_task_pickles_after_serial_calls(self, spec):
        task = _VerifyTask(spec, 16, 12345)
        fresh = pickle.dumps(task)
        grids = GridCache(spec.interpreter())
        rules = tuple(
            Rewrite(f"r{i}", parse(lhs), parse(rhs))
            for i, (lhs, rhs) in enumerate(
                self._UNSOUND + [("(sgn (sgn ?a))", "(sgn ?a)")]
            )
        )
        oks, _ = task(rules, grids)
        assert oks == [False, False, False, True]
        assert len(grids) > 0
        # The shared cache lives with the caller, never on the task:
        # the task pickles to the same bytes as before it served.
        assert pickle.dumps(task) == fresh
        clone = pickle.loads(fresh)
        assert clone(rules)[0] == oks
