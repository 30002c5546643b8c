"""Unit tests for characteristic vectors and term enumeration."""

from fractions import Fraction

from cvec_oracle import cvec_of

from repro.lang.parser import parse
from repro.ruler.cvec import CvecSpec
from repro.ruler.enumerate import enumerate_terms


class TestCvec:
    def test_equal_terms_equal_cvecs(self, spec):
        interp = spec.interpreter()
        grid = CvecSpec.make(("a", "b"), n_random=8, seed=1)
        assert cvec_of(parse("(+ a b)"), interp, grid) == cvec_of(
            parse("(+ b a)"), interp, grid
        )

    def test_different_terms_differ(self, spec):
        interp = spec.interpreter()
        grid = CvecSpec.make(("a", "b"), n_random=8, seed=1)
        assert cvec_of(parse("(+ a b)"), interp, grid) != cvec_of(
            parse("(- a b)"), interp, grid
        )

    def test_single_lane_vector_op_matches_scalar(self, spec):
        # The §3.1 reduction: VecAdd on scalars fingerprints like +.
        interp = spec.interpreter()
        grid = CvecSpec.make(("a", "b"), n_random=8, seed=1)
        assert cvec_of(parse("(VecAdd a b)"), interp, grid) == cvec_of(
            parse("(+ a b)"), interp, grid
        )

    def test_all_undefined_is_none(self, spec):
        interp = spec.interpreter()
        grid = CvecSpec.make(("a",), n_random=4, seed=1)
        assert cvec_of(parse("(/ a 0)"), interp, grid) is None

    def test_undefined_positions_distinguish(self, spec):
        interp = spec.interpreter()
        grid = CvecSpec.make(("a", "b"), n_random=8, seed=1)
        # (/ (* a b) b) equals a where defined but differs at b = 0.
        assert cvec_of(
            parse("(/ (* a b) b)"), interp, grid
        ) != cvec_of(parse("a"), interp, grid)

    def test_int_and_fraction_normalize(self, spec):
        interp = spec.interpreter()
        grid = CvecSpec.make(("a",), n_random=4, seed=2)
        # 2a and a+a must fingerprint identically even if one path
        # yields ints and the other Fractions.
        assert cvec_of(parse("(+ a a)"), interp, grid) == cvec_of(
            parse("(* 2 a)"), interp, grid
        )

    def test_corner_values_present(self):
        grid = CvecSpec.make(("a",), n_random=0, seed=0)
        values = {env["a"] for env in grid.envs}
        assert Fraction(0) in values and Fraction(-1) in values


class TestEnumeration:
    def test_atoms_enumerated(self, spec):
        grid = CvecSpec.make(("a", "b"), n_random=8, seed=0)
        result = enumerate_terms(spec, grid, max_size=1)
        reps = set(result.representatives.values())
        assert parse("a") in reps
        assert parse("0") in reps

    def test_pairs_are_cvec_equal(self, spec):
        interp = spec.interpreter()
        grid = CvecSpec.make(("a", "b"), n_random=8, seed=0)
        result = enumerate_terms(spec, grid, max_size=3)
        assert result.pairs
        for rep, newcomer in result.pairs[:50]:
            assert cvec_of(rep, interp, grid) == cvec_of(
                newcomer, interp, grid
            )

    def test_one_representative_per_cvec(self, spec):
        grid = CvecSpec.make(("a", "b", "c"), n_random=8, seed=0)
        result = enumerate_terms(spec, grid, max_size=3)
        assert len(result.representatives) == result.n_representatives
        # commutativity shows up as a pair, not as two representatives
        reps = set(result.representatives.values())
        assert not (parse("(+ a b)") in reps and parse("(+ b a)") in reps)

    def test_op_allowlist_restricts(self, spec):
        grid = CvecSpec.make(("a", "b"), n_random=8, seed=0)
        result = enumerate_terms(
            spec, grid, max_size=3, op_allowlist=("+",)
        )
        for term in result.representatives.values():
            assert all(
                sub.op in ("+", "Const", "Symbol")
                for sub in _subterms(term)
            )

    def test_deadline_aborts(self, spec):
        grid = CvecSpec.make(("a", "b", "c"), n_random=8, seed=0)
        result = enumerate_terms(spec, grid, max_size=6, deadline=0.0)
        assert result.aborted


class TestDeadlineMidSize:
    """The budget aborts *inside* a size, not just between sizes.

    A deterministic fake clock (one tick per deadline check) pins down
    exactly where the abort lands.
    """

    def _fake_clock(self, monkeypatch):
        ticks = iter(range(100_000))
        monkeypatch.setattr(
            "repro.ruler.enumerate.time.monotonic",
            lambda: float(next(ticks)),
        )

    def test_aborts_during_atoms(self, spec, monkeypatch):
        grid = CvecSpec.make(("a", "b"), n_random=4, seed=0)
        self._fake_clock(monkeypatch)
        # Ticks 1 and 2 pass the deadline check; tick 3 aborts — on
        # the third atom, before any composite size starts.
        result = enumerate_terms(spec, grid, max_size=2, deadline=2.0)
        assert result.aborted
        assert 0 < result.n_enumerated < 4  # a, b, 0, 1
        assert all(not t.args for t in result.representatives.values())

    def test_aborts_mid_size(self, spec, monkeypatch):
        grid = CvecSpec.make(("a", "b"), n_random=4, seed=0)
        full = enumerate_terms(spec, grid, max_size=2)
        self._fake_clock(monkeypatch)
        # All four atoms fit the budget; the abort lands a few
        # candidates into size 2, leaving a partial composite pool.
        result = enumerate_terms(spec, grid, max_size=2, deadline=8.0)
        assert result.aborted
        assert 4 < result.n_enumerated < full.n_enumerated
        assert any(t.args for t in result.representatives.values())


def _subterms(term):
    from repro.lang.term import subterms

    return subterms(term)
