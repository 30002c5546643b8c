"""Exact rational-function verification (the division fragment)."""

from fractions import Fraction

import pytest

from repro.lang.parser import parse
from repro.ruler.cvec import GridCache
from repro.ruler.verify import (
    definedness_corners,
    rational_of,
    rationals_equal,
    verify_rule,
)


class TestRationalNormalForm:
    def test_atom(self, spec):
        num, den = rational_of(parse("?a"), spec)
        assert num == {("a",): Fraction(1)}
        assert den == {(): Fraction(1)}

    def test_division(self, spec):
        pair = rational_of(parse("(/ ?a ?b)"), spec)
        assert pair is not None
        num, den = pair
        assert num == {("a",): Fraction(1)}
        assert den == {("b",): Fraction(1)}

    def test_sum_of_fractions(self, spec):
        # a/b + c/d = (ad + cb) / bd
        pair = rational_of(parse("(+ (/ ?a ?b) (/ ?c ?d))"), spec)
        assert pair is not None
        num, den = pair
        assert den == {("b", "d"): Fraction(1)}
        assert num == {
            ("a", "d"): Fraction(1),
            ("b", "c"): Fraction(1),
        }

    def test_out_of_fragment(self, spec):
        assert rational_of(parse("(sqrt ?a)"), spec) is None
        assert rational_of(parse("(/ ?a (sgn ?b))"), spec) is None


class TestRationalsEqual:
    def test_div_mul_cancellation(self, spec):
        a = rational_of(parse("(/ (* ?a ?b) ?b)"), spec)
        b = rational_of(parse("?a"), spec)
        assert rationals_equal(a, b) is True

    def test_distinct_functions(self, spec):
        a = rational_of(parse("(/ ?a ?b)"), spec)
        b = rational_of(parse("(/ ?b ?a)"), spec)
        assert rationals_equal(a, b) is False


class TestVerifyWithRationals:
    def test_sound_division_rule_is_exact(self, spec):
        # (a/b)/c == a/(b*c) wherever both are defined, and their
        # undefinedness patterns agree.
        result = verify_rule(
            parse("(/ (/ ?a ?b) ?c)"),
            parse("(/ ?a (* ?b ?c))"),
            spec,
        )
        assert result.ok
        assert result.method == "exact"

    def test_definedness_mismatch_still_rejected(self, spec):
        # (a*b)/b == a algebraically but is undefined at b=0: the
        # rational check passes and the definedness fuzz must reject.
        result = verify_rule(
            parse("(/ (* ?a ?b) ?b)"), parse("?a"), spec
        )
        assert not result.ok
        assert "definedness" in result.detail

    def test_unsound_division_rule_exactly_rejected(self, spec):
        result = verify_rule(
            parse("(/ ?a ?b)"), parse("(/ ?b ?a)"), spec
        )
        assert not result.ok
        assert result.method == "exact"

    def test_div_by_one_exact(self, spec):
        result = verify_rule(parse("(/ ?a 1)"), parse("?a"), spec)
        assert result.ok
        assert result.method == "exact"

    @pytest.mark.parametrize("denominator", ["(- ?b 4)", "(+ ?b 5)"])
    @pytest.mark.parametrize("n_samples", [12, 64])
    def test_shifted_denominator_definedness_rejected(
        self, spec, denominator, n_samples
    ):
        # Rationally equal to ?a, but undefined where the denominator
        # vanishes (?b = 4, ?b = -5): a value the standard corners
        # never hold, so the rule's own constants join its grid.
        result = verify_rule(
            parse(f"(/ (* ?a {denominator}) {denominator})"),
            parse("?a"),
            spec,
            n_samples=n_samples,
        )
        assert not result.ok
        assert result.method == "exact"
        assert "definedness mismatch" in result.detail


class TestDefinednessCorners:
    def test_constants_and_negations_join_the_corners(self):
        assert definedness_corners(
            parse("(/ (* ?a (- ?b 4)) (- ?b 4))"), parse("?a")
        ) == (Fraction(-4), Fraction(4))
        assert definedness_corners(
            parse("(/ ?a (+ ?b 5))"), parse("(/ (* ?a 2) (* 2 (+ ?b 5)))")
        ) == (Fraction(-5), Fraction(-2), Fraction(5))

    def test_zero_and_one_add_nothing(self):
        # The shipped rules' constants: their grids stay the standard
        # corner grid.
        assert definedness_corners(
            parse("(/ (+ ?a 1) (- ?b 0))"), parse("(* (+ ?a 1) (/ 1 ?b))")
        ) == ()

    def test_grid_cache_keys_on_the_extra_corners(self, spec):
        grids = GridCache(spec.interpreter())
        plain = grids.samples(("a", "b"), 12, 12345)
        extra = grids.samples(("a", "b"), 12, 12345,
                              corners=(Fraction(-4), Fraction(4)))
        assert plain is not extra and len(grids) == 2
        assert len(extra.envs) == 64 + 12 and len(plain.envs) == 36 + 12
        assert any(env["b"] == 4 for env in extra.envs[:64])
        assert grids.samples(("a", "b"), 12, 12345) is plain
