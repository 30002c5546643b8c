"""Quality of enumeration pairs: the raw material of synthesis."""

from repro.lang.parser import parse
from repro.ruler.cvec import CvecSpec
from repro.ruler.enumerate import enumerate_terms


class TestDiscoveredEquivalences:
    def test_commuted_pairs_found(self, spec):
        grid = CvecSpec.make(("a", "b"), n_random=16, seed=0)
        result = enumerate_terms(spec, grid, max_size=3)
        pair_texts = {
            (str(a), str(b)) for a, b in result.pairs
        }
        flat = {t for pair in pair_texts for t in pair}
        assert "Term((+ b a))" in flat or "Term((+ a b))" in flat

    def test_single_lane_bridges_found(self, spec):
        # (+ a b) and 1-lane (VecAdd a b) must collide.
        grid = CvecSpec.make(("a", "b"), n_random=16, seed=0)
        result = enumerate_terms(spec, grid, max_size=3)
        reps = result.representatives
        interp = spec.interpreter()
        from cvec_oracle import cvec_of

        add_cvec = cvec_of(parse("(+ a b)"), interp, grid)
        vecadd_cvec = cvec_of(parse("(VecAdd a b)"), interp, grid)
        assert add_cvec == vecadd_cvec
        # exactly one of them is the representative
        assert reps[add_cvec] in (
            parse("(+ a b)"), parse("(+ b a)"),
            parse("(VecAdd a b)"), parse("(VecAdd b a)"),
        )

    def test_no_pair_relates_inequivalent_terms(self, spec):
        from repro.interp.env import sample_envs
        from repro.interp.value import values_equal

        grid = CvecSpec.make(("a", "b"), n_random=16, seed=0)
        result = enumerate_terms(spec, grid, max_size=3)
        interp = spec.interpreter()
        # fresh inputs, disjoint from the cvec grid
        envs = sample_envs(("a", "b"), n_random=10, seed=777)
        for rep, newcomer in result.pairs[:80]:
            agree = sum(
                1
                for env in envs
                if values_equal(
                    interp.evaluate(rep, env),
                    interp.evaluate(newcomer, env),
                )
            )
            # cvec-equal terms should rarely disagree on new inputs;
            # sqrt/sgn corner mismatches are caught later by verify.
            assert agree >= len(envs) - 2, (rep, newcomer)
