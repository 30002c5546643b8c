"""Integral samples bound as ``int``s, against all-``Fraction`` grids.

Every synthesis and verification grid binds an integral sample as an
``int`` and keeps ``Fraction`` for the others; ``cvec_oracle`` draws
the same grids with every exact value a ``Fraction``.  Both hold the
same numbers in the same order, and a term evaluates to the same
values on both, UNDEFINED in the same places, so it fingerprints
identically.

The one exception is a ``/`` or ``VecDiv`` with a float operand (a
``sqrt`` of a non-square): an integral sample divides with the float
in floating point, as an ``int`` always has, where its ``Fraction``
twin converts the float to an exact ``Fraction`` first.  Environments
where some division of a term takes a float operand are left out of
the comparison, and ``(/ a (sqrt b))`` pins the exception.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvec_oracle import (
    oracle_projection_envs,
    oracle_sample_envs,
    oracle_vector_envs,
)
from repro.interp.env import sample_envs
from repro.interp.value import UNDEFINED
from repro.isa import fusion_g3_spec, masked_spec
from repro.isa.custom import customized_spec
from repro.lang import term as T
from repro.lang.parser import parse
from repro.ruler.cvec import CvecEvaluator, fingerprint_key
from repro.ruler.verify import (
    _projection_actives,
    _projection_envs,
    _vector_envs,
)

_NAMES = ("a", "b", "c")
_VECTORS = (True, True, True)
_WIDTH = 4
# fusion-g3 and masked with both §5.4 custom instructions (mulsub,
# sqrtsgn and their vector forms).  The two families share their lane
# functions; the masked one adds the projection's grid.
_SPEC = customized_spec(fusion_g3_spec(_WIDTH), mulsub=True, sqrtsgn=True)
_INTERP = _SPEC.interpreter()
_MASKED_INTERP = customized_spec(
    masked_spec(_WIDTH), mulsub=True, sqrtsgn=True
).interpreter()


def _pair(interp, new_envs, oracle_envs) -> tuple:
    return CvecEvaluator(interp, new_envs), CvecEvaluator(interp, oracle_envs)


# (product grid, oracle grid): the enumeration grid and the single-lane
# verification grid at their synthesis defaults, the full-width grid and
# the masked projection's grid.
_SCALAR_GRIDS = [
    _pair(_INTERP, sample_envs(_NAMES, n_random=n, seed=seed),
          oracle_sample_envs(_NAMES, n_random=n, seed=seed))
    for n, seed in ((24, 0), (48, 12345))
]
_ACTIVES = _projection_actives(_WIDTH, 4)
_VECTOR_GRIDS = [
    _pair(_INTERP, _vector_envs(_NAMES, _VECTORS, _WIDTH, 16, 54321),
          oracle_vector_envs(_NAMES, _VECTORS, _WIDTH, 16, 54321)),
    _pair(_MASKED_INTERP,
          _projection_envs(_NAMES, _VECTORS, _WIDTH, 54321, _ACTIVES),
          oracle_projection_envs(_NAMES, _VECTORS, _WIDTH, 54321, _ACTIVES)),
]


def _terms(instructions, leaves):
    """Random terms over ``instructions`` with the given leaves."""

    def extend(children):
        return st.one_of([
            st.tuples(*[children] * instr.arity).map(
                lambda args, name=instr.name: T.make(name, *args)
            )
            for instr in instructions
        ])

    return st.recursive(st.sampled_from(leaves), extend, max_leaves=6)


# Every scalar and vector instruction; a vector instruction applied to
# scalars computes one lane, as enumeration uses it.
_SCALAR_TERMS = _terms(
    _SPEC.instructions,
    [T.symbol(n) for n in _NAMES] + [T.const(c) for c in (0, 1, 2)],
)
_VECTOR_TERMS = _terms(
    _SPEC.vector_instructions(),
    [T.symbol(n) for n in _NAMES]
    + [T.make("Vec", *[T.const(c)] * _WIDTH) for c in (0, 1, 2)],
)


def _holds_float(value) -> bool:
    if isinstance(value, tuple):
        return any(type(lane) is float for lane in value)
    return type(value) is float


def _float_divisions(pair, term) -> set:
    """Indices of the environments in which some ``/`` or ``VecDiv`` of
    ``term`` takes a float operand, on either grid."""
    out = set()
    for sub in T.subterms(term):
        if sub.op in ("/", "VecDiv"):
            for evaluator in pair:
                for arg in sub.args:
                    for index, value in enumerate(evaluator.row_of(arg)):
                        if _holds_float(value):
                            out.add(index)
    return out


def _assert_same_values(pair, term) -> None:
    new_row, oracle_row = (evaluator.row_of(term) for evaluator in pair)
    skipped = _float_divisions(pair, term)
    for index, (new, oracle) in enumerate(zip(new_row, oracle_row)):
        if index in skipped:
            continue
        assert (new is UNDEFINED) == (oracle is UNDEFINED), (term, index)
        assert new == oracle, (term, index, new, oracle)
    if not skipped:
        assert tuple(map(fingerprint_key, new_row)) == tuple(
            map(fingerprint_key, oracle_row)
        ), term


def _exact_values(envs):
    for env in envs:
        for value in env.values():
            yield from value if isinstance(value, tuple) else (value,)


class TestDraws:
    def test_grids_hold_the_oracle_numbers(self):
        for new, oracle in _SCALAR_GRIDS + _VECTOR_GRIDS:
            assert new.envs == oracle.envs

    def test_integral_values_are_ints(self):
        for new, oracle in _SCALAR_GRIDS + _VECTOR_GRIDS:
            values = list(_exact_values(new.envs))
            assert all(type(v) is int or (
                type(v) is Fraction and v.denominator != 1
            ) for v in values)
            assert any(type(v) is int for v in values)
            assert any(type(v) is Fraction for v in values)
            assert all(
                type(v) is Fraction for v in _exact_values(oracle.envs)
            )


class TestSameValues:
    @given(_SCALAR_TERMS)
    @settings(max_examples=300, deadline=None)
    @example(parse("(/ a b)"))
    @example(parse("(VecDiv (- a 1) (+ b c))"))
    @example(parse("(/ (sgn a) (mulsub a b c))"))
    @example(parse("(sqrt (/ (* a a) (sqrtsgn b c)))"))
    def test_scalar_grids(self, term):
        for pair in _SCALAR_GRIDS:
            _assert_same_values(pair, term)

    @given(_VECTOR_TERMS)
    @settings(max_examples=200, deadline=None)
    @example(parse("(VecDiv a b)"))
    @example(parse("(VecMulSub (VecSqrt a) (VecDiv b c) (VecSgn a))"))
    def test_vector_grids(self, term):
        for pair in _VECTOR_GRIDS:
            _assert_same_values(pair, term)


class TestTheDocumentedException:
    def test_integral_sample_over_a_float_root(self):
        term = parse("(/ a (sqrt b))")
        new, oracle = _SCALAR_GRIDS[0]
        index = new.envs.index({"a": 1, "b": 2, "c": 0})
        got = new.row_of(term)[index]
        was = oracle.row_of(term)[index]
        root = math.sqrt(2)
        # Float division now; exact division of the float's Fraction
        # before.  The values agree to float precision, the keys don't.
        assert type(got) is float and got == 1 / root
        assert was == Fraction(1) / Fraction(root)
        assert math.isclose(float(was), got)
        assert fingerprint_key(got) != fingerprint_key(was)

    def test_non_integral_sample_over_a_float_root_is_unchanged(self):
        term = parse("(/ a (sqrt b))")
        new, oracle = _SCALAR_GRIDS[1]
        index = next(
            i for i, env in enumerate(new.envs)
            if type(env["a"]) is Fraction and env["b"] in (2, 3, 5, 6, 7)
        )
        a, b = new.envs[index]["a"], new.envs[index]["b"]
        got = new.row_of(term)[index]
        assert got == a / Fraction(math.sqrt(b))
        assert got == oracle.row_of(term)[index]
