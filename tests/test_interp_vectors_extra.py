"""Extra interpreter coverage: vector edge cases, env forms, memo."""

import pytest
from fractions import Fraction

from repro.interp.env import merge_envs, random_env
from repro.interp.interpreter import EvalError
from repro.interp.value import UNDEFINED, make_vector
from repro.lang.parser import parse


@pytest.fixture(scope="module")
def interp(spec):
    return spec.interpreter()


class TestMakeVector:
    def test_plain(self):
        assert make_vector([1, 2]) == (1, 2)

    def test_undefined_lane_collapses(self):
        assert make_vector([1, UNDEFINED]) is UNDEFINED


class TestNestedStructure:
    def test_list_of_mixed_chunks(self, interp):
        term = parse("(List (Vec 1 2 3 4) (VecNeg (Vec 1 2 3 4)))")
        assert interp.evaluate(term, {}) == (
            (1, 2, 3, 4),
            (-1, -2, -3, -4),
        )

    def test_concat_then_op_width8(self, interp):
        term = parse(
            "(VecAdd (Concat (Vec 1 2) (Vec 3 4)) "
            "(Concat (Vec 10 20) (Vec 30 40)))"
        )
        assert interp.evaluate(term, {}) == (11, 22, 33, 44)

    def test_vec_of_vector_rejected(self, interp):
        with pytest.raises(EvalError):
            interp.evaluate(parse("(Vec (Vec 1 2) 3)"), {})

    def test_concat_of_scalars_rejected(self, interp):
        with pytest.raises(EvalError):
            interp.evaluate(parse("(Concat 1 2)"), {})


class TestSharedSubtermEvaluation:
    def test_dag_evaluated_once(self, spec):
        # A counting semantics wrapper proves memoization.
        calls = {"n": 0}
        plus = spec.instruction("+").lane_fn

        def counting_add(a, b):
            calls["n"] += 1
            return plus(a, b)

        from repro.interp.interpreter import Interpreter
        from repro.lang.ops import OpKind

        interp = Interpreter({"+": counting_add}, {"+": OpKind.SCALAR})
        shared = parse("(+ a b)")
        from repro.lang import builders as B

        term = B.add(shared, shared)
        assert interp.evaluate(term, {"a": 1, "b": 2}) == 6
        assert calls["n"] == 2  # shared evaluated once, outer once


class TestEnvHelpers:
    def test_random_env_exact_mode(self):
        import random

        env = random_env(("a", "b"), random.Random(1))
        assert all(type(v) in (int, Fraction) for v in env.values())
        # An integral draw is bound as an int, never as a Fraction.
        values = [
            v
            for seed in range(20)
            for v in random_env(("a", "b"), random.Random(seed)).values()
        ]
        assert all(
            type(v) is int or v.denominator != 1 for v in values
        )
        assert any(type(v) is int for v in values)

    def test_random_env_float_mode(self):
        import random

        env = random_env(("a",), random.Random(1), exact=False)
        assert isinstance(env["a"], float)

    def test_merge_envs_later_wins(self):
        merged = merge_envs([{"a": 1}, {"a": 2, "b": 3}])
        assert merged == {"a": 2, "b": 3}


class TestMixedNumericTypes:
    def test_fraction_and_int_mix(self, interp):
        env = {"a": Fraction(1, 2), "b": 3}
        assert interp.evaluate(parse("(* a b)"), env) == Fraction(3, 2)

    def test_exact_sqrt_of_perfect_square_fraction(self, interp):
        env = {"a": Fraction(9, 4)}
        assert interp.evaluate(parse("(sqrt a)"), env) == Fraction(3, 2)

    def test_inexact_sqrt_is_float(self, interp):
        value = interp.evaluate(parse("(sqrt 2)"), {})
        assert isinstance(value, float)
        assert abs(value - 2 ** 0.5) < 1e-12
