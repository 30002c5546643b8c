"""Differential tests: batched translation validation vs the oracle.

``GeneratedCompiler.validate_equivalence`` draws its samples up front
and evaluates the source and the compiled term as value rows on one
:class:`~repro.ruler.cvec.CvecEvaluator`, falling back to the
per-environment loop when the rows raise.
``validate_oracle.oracle_validate_equivalence`` is that loop as it ran
before: one tree walk per term per sample.  Both must give the same
outcome on every input — None, or the same exception type and
message — so the first failing sample decides, whether it fails by a
mismatch or by an evaluation error.

The inputs are hypothesis source/compiled pairs on fusion-g3 and
masked-w8 (``Vec`` of ``Get``s, vector instructions, ``Concat``,
``List`` outputs and constants, some mutated into mismatches or
ill-formed programs) and crafted cases for the orders that matter: a
mismatch at one sample only, UNDEFINED lanes, mismatched widths and an
evaluation error that an earlier mismatch must pre-empt.  Row parity
checks the evaluator underneath: ``row_of`` equals per-environment
:meth:`Interpreter.evaluate`, or both raise :class:`EvalError`, on
scalar grids and on the full-width verifier's vector grids.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import GeneratedCompiler, ValidationError
from repro.interp.env import sample_envs, term_inputs
from repro.interp.interpreter import EvalError
from repro.isa import fusion_g3_spec, masked_spec
from repro.lang import builders as B
from repro.lang import term as T
from repro.phases.assign import default_params
from repro.phases.cost import CostModel
from repro.phases.ruleset import PhasedRuleSet
from repro.ruler.cvec import CvecEvaluator
from repro.ruler.verify import _vector_envs
from validate_oracle import oracle_validate_equivalence

SPECS = {"fusion-g3": fusion_g3_spec(), "masked-w8": masked_spec(8)}

#: Every atom of the crafted cases: each crafted pair carries them all
#: as one shared output, so its samples are one fixed draw.
ATOMS = tuple(T.get(array, i) for array in ("a", "b") for i in range(8))


def _compiler(spec) -> GeneratedCompiler:
    """A rule-less compiler: validation reads only its spec."""
    return GeneratedCompiler(
        spec=spec,
        cost_model=CostModel(spec),
        ruleset=PhasedRuleSet((), (), (), default_params(spec)),
    )


COMPILERS = {name: _compiler(spec) for name, spec in SPECS.items()}


def _outcome(check) -> tuple | None:
    try:
        check()
    except Exception as exc:  # the outcome under test
        return type(exc), str(exc)
    return None


def _same_outcome(name: str, source, compiled) -> tuple | None:
    """Product and oracle outcomes agree; returns the shared one."""
    product = _outcome(
        lambda: COMPILERS[name].validate_equivalence(source, compiled)
    )
    oracle = _outcome(
        lambda: oracle_validate_equivalence(SPECS[name], source, compiled)
    )
    assert product == oracle
    return product


def _samples(source, compiled) -> list:
    """The validator's environments for this pair, in draw order."""
    rng = random.Random(7)
    inputs = sorted(set(term_inputs(source)) | set(term_inputs(compiled)))
    return [
        {atom: rng.uniform(-3.0, 3.0) for atom in inputs}
        for _ in range(8)
    ]


def _first(pattern, values) -> int | None:
    """Index of the first value satisfying ``pattern``."""
    return next((i for i, v in enumerate(values) if pattern(v)), None)


# -- hypothesis pairs -------------------------------------------------------


LEAVES = st.one_of(
    st.builds(T.get, st.sampled_from(("a", "b", "c")), st.integers(0, 7)),
    st.sampled_from((0, 1, 2, -1, 0.5)).map(T.const),
)
SCALAR_UNARY = ("neg", "sgn", "sqrt")
SCALAR_BINARY = ("+", "-", "*", "/")


def scalar_lanes():
    """Scalar lane expressions over ``Get``s and constants."""
    return st.recursive(
        LEAVES,
        lambda kids: st.one_of(
            st.builds(T.make, st.sampled_from(SCALAR_UNARY), kids),
            st.builds(T.make, st.sampled_from(SCALAR_BINARY), kids, kids),
            st.builds(lambda c, a, b: T.make("mac", c, a, b),
                      kids, kids, kids),
        ),
        max_leaves=3,
    )


def _vector_ops(spec) -> list:
    return [
        (i.name, i.arity, i.vector_of) for i in spec.vector_instructions()
    ]


@st.composite
def vector_pair(draw, spec, width: int, depth: int):
    """A vector term of ``width`` lanes and its lanes as scalar terms."""
    choice = draw(st.integers(0, 2)) if depth else 0
    if choice == 0:
        lanes = draw(st.lists(scalar_lanes(), min_size=width,
                              max_size=width))
        return B.vec(*lanes), lanes
    if choice == 1 and width > 1:
        left = draw(st.integers(1, width - 1))
        lv, ll = draw(vector_pair(spec, left, depth - 1))
        rv, rl = draw(vector_pair(spec, width - left, depth - 1))
        return B.concat(lv, rv), ll + rl
    name, arity, scalar = draw(st.sampled_from(_vector_ops(spec)))
    kids = [draw(vector_pair(spec, width, depth - 1)) for _ in range(arity)]
    lanes = [T.make(scalar, *column) for column in zip(*(k[1] for k in kids))]
    return T.make(name, *(k[0] for k in kids)), lanes


MUTATIONS = ("none", "none", "lane", "width", "scalar-op", "mixed",
             "widths")


@st.composite
def program_pair(draw, spec):
    """A source ``List`` of ``Vec`` outputs and its compiled form,
    possibly mutated into a mismatch or an ill-formed program."""
    width = draw(st.sampled_from((2, spec.vector_width)))
    outs = [
        draw(vector_pair(spec, width, 2))
        for _ in range(draw(st.integers(1, 2)))
    ]
    sources = [list(lanes) for _, lanes in outs]
    compiled = [vector for vector, _ in outs]
    mutation = draw(st.sampled_from(MUTATIONS))
    at = draw(st.integers(0, len(outs) - 1))
    if mutation == "lane":
        lane = draw(st.integers(0, width - 1))
        sources[at][lane] = draw(scalar_lanes())
    elif mutation == "width":
        sources[at].append(draw(scalar_lanes()))
    elif mutation == "scalar-op":
        compiled[at] = B.neg(compiled[at])
    elif mutation == "mixed":
        compiled[at] = B.vec_add(compiled[at], draw(scalar_lanes()))
    elif mutation == "widths":
        extra = draw(st.lists(scalar_lanes(), min_size=width + 1,
                              max_size=width + 1))
        compiled[at] = B.vec_mul(compiled[at], B.vec(*extra))
    source = B.prog(*(B.vec(*lanes) for lanes in sources))
    return source, B.prog(*compiled)


class TestHypothesisPairs:
    @pytest.mark.parametrize("name", sorted(SPECS))
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_product_matches_oracle(self, name, data):
        source, compiled = data.draw(program_pair(SPECS[name]))
        _same_outcome(name, source, compiled)

    @pytest.mark.parametrize("name", sorted(SPECS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_unmutated_pairs_validate(self, name, data):
        spec = SPECS[name]
        outs = [
            data.draw(vector_pair(spec, spec.vector_width, 2))
            for _ in range(2)
        ]
        source = B.prog(*(B.vec(*lanes) for _, lanes in outs))
        compiled = B.prog(*(vector for vector, _ in outs))
        # Lane-wise arithmetic is exact per lane, so a faithful
        # vectorization passes (UNDEFINED lanes included).
        assert _same_outcome(name, source, compiled) is None


# -- crafted cases ------------------------------------------------------------


def _pair(source_outputs: list, compiled_outputs: list):
    """Both terms with every crafted atom as a shared first output."""
    shared = B.vec(*ATOMS)
    return (
        B.prog(shared, *source_outputs),
        B.prog(shared, *compiled_outputs),
    )


SAMPLES = _samples(*_pair([], []))


def _signs_atom(pattern, lo: int, hi: int = 8):
    """An atom whose first sample satisfying ``pattern`` is in
    [lo, hi), with that index."""
    for atom in ATOMS:
        index = _first(pattern, [env[atom.payload] for env in SAMPLES])
        if index is not None and lo <= index < hi:
            return atom, index
    raise AssertionError("no atom with that sign pattern at seed 7")


@pytest.mark.parametrize("name", sorted(SPECS))
class TestCrafted:
    def test_one_lane_mismatch_at_sample_k(self, name):
        # (- (sgn y) 1) is 0 where y > 0, so the compiled lane differs
        # from the source first at the first sample with y < 0.
        y, k = _signs_atom(lambda v: v < 0, 2)
        x, other = [atom for atom in ATOMS if atom != y][:2]
        lanes = [x, other, T.const(0)]
        off = B.add(x, B.sub(B.sgn(y), T.const(1)))
        source, compiled = _pair(
            [B.vec(*lanes)],
            [B.vec_add(B.vec(off, *lanes[1:]), B.vec(*[T.const(0)] * 3))],
        )
        outcome = _same_outcome(name, source, compiled)
        assert outcome is not None and outcome[0] is ValidationError
        assert f"on {SAMPLES[k]}:" in outcome[1]

    def test_sqrt_of_a_negative_sample(self, name):
        a0, a1 = T.get("a", 0), T.get("a", 1)
        assert any(env[a0.payload] < 0 for env in SAMPLES)
        # UNDEFINED lanes on both sides: the pair validates.
        faithful = _pair([B.vec(B.sqrt(a0), B.sqrt(a1))],
                         [B.vec_sqrt(B.vec(a0, a1))])
        assert _same_outcome(name, *faithful) is None
        # sqrt(a1 * a1) is |a1|: the first mismatch is the first sample
        # where lane 0 is defined (a0 >= 0) and a1 < 0.
        source, compiled = _pair([B.vec(B.sqrt(a0), a1)],
                                 [B.vec_sqrt(B.vec(a0, B.mul(a1, a1)))])
        k = _first(lambda env: env[a0.payload] >= 0 > env[a1.payload],
                   SAMPLES)
        assert k is not None and k > 0
        outcome = _same_outcome(name, source, compiled)
        assert outcome is not None and outcome[0] is ValidationError
        assert f"on {SAMPLES[k]}:" in outcome[1]

    def test_division_by_a_vanishing_difference(self, name):
        a0, a1, b1 = T.get("a", 0), T.get("a", 1), T.get("b", 1)
        zero = B.sub(b1, b1)
        source = [B.vec(B.div(a1, zero), a0)]
        vanishing = B.vec_minus(B.vec(b1, b1), B.vec(b1, b1))
        # UNDEFINED at every sample on both sides.
        assert _same_outcome(
            name, *_pair(source, [B.vec_div(B.vec(a1, a0), vanishing)])
        ) is None
        # UNDEFINED against a value, at the first sample.
        outcome = _same_outcome(name, *_pair(source, [B.vec(a1, a0)]))
        assert outcome is not None and outcome[0] is ValidationError
        assert f"on {SAMPLES[0]}:" in outcome[1]
        assert "UNDEFINED" in outcome[1]

    def test_mismatched_widths(self, name):
        a = list(ATOMS[:4])
        # An ill-formed compiled term: the evaluation error itself.
        source, compiled = _pair(
            [B.vec(*a)], [B.vec_add(B.vec(*a), B.vec(*a[:3]))]
        )
        outcome = _same_outcome(name, source, compiled)
        assert outcome is not None and outcome[0] is EvalError
        assert "mismatched vector widths" in outcome[1]
        # A well-formed compiled term of the wrong width: a mismatch.
        source, compiled = _pair([B.vec(*a)], [B.vec(*a[:3])])
        outcome = _same_outcome(name, source, compiled)
        assert outcome is not None and outcome[0] is ValidationError

    def test_mismatch_preempts_later_mixed_node_error(self, name):
        # (VecAdd v (sqrt y)) is UNDEFINED while y < 0 and raises
        # "mixed scalar/vector" from sample j on.  The source is
        # UNDEFINED while z < 0, so the sides first differ at sample
        # i < j (a value against UNDEFINED): the batched rows raise at
        # j, and the per-environment order must still report i.
        z, i = _signs_atom(lambda v: v >= 0, 1)
        y, j = _signs_atom(lambda v: v >= 0, i + 1)
        lanes = [ATOMS[0], ATOMS[1]]
        mixed = B.vec_add(B.vec(*lanes), B.sqrt(y))
        source, compiled = _pair(
            [B.vec(B.sqrt(z), *lanes)],
            [B.vec(B.sqrt(z), *lanes), mixed],
        )
        outcome = _same_outcome(name, source, compiled)
        assert outcome is not None and outcome[0] is ValidationError
        assert f"on {SAMPLES[i]}:" in outcome[1]

        # With no earlier mismatch, the error decides, at sample j.
        source, compiled = _pair(
            [B.vec(B.sqrt(y), *lanes)], [B.vec(B.sqrt(y), *lanes), mixed],
        )
        outcome = _same_outcome(name, source, compiled)
        assert outcome == (
            EvalError, "VecAdd: mixed scalar/vector arguments"
        )


# -- row parity -----------------------------------------------------------------


ROW_LEAVES = st.sampled_from((
    T.symbol("a"), T.symbol("b"), T.symbol("c"),  # c is never bound
    T.get("a", 1), T.get("x", 0),  # array reads: lane 1 of a, unbound x
    T.const(0), T.const(2), T.const(0.5),
))


def any_terms(spec):
    """Terms over every op of ``spec`` plus ``Vec`` and ``Concat``, well
    formed or not, optionally under a root ``List`` (values stay flat,
    so every failure is an :class:`EvalError`)."""
    ops = [(i.name, i.arity) for i in spec.instructions]

    def extend(kids):
        return st.one_of(
            st.sampled_from(ops).flatmap(
                lambda op: st.lists(
                    kids, min_size=op[1], max_size=op[1]
                ).map(lambda args, name=op[0]: T.make(name, *args))
            ),
            st.lists(kids, min_size=1, max_size=4).map(
                lambda args: B.vec(*args)
            ),
            st.builds(B.concat, kids, kids),
        )

    inner = st.recursive(ROW_LEAVES, extend, max_leaves=8)
    return st.one_of(
        inner,
        st.lists(inner, min_size=1, max_size=3).map(
            lambda args: B.prog(*args)
        ),
    )


def _per_env(interpreter, term, envs) -> list | None:
    """Per-environment values, or None if any environment raises."""
    values = []
    for env in envs:
        try:
            values.append(interpreter.evaluate(term, env))
        except EvalError:
            return None
    return values


def _assert_row_parity(spec, envs, term) -> None:
    interpreter = spec.interpreter()
    evaluator = CvecEvaluator(interpreter, envs)
    try:
        row = evaluator.row_of(term)
    except EvalError:
        row = None
    expected = _per_env(interpreter, term, envs)
    if row is None or expected is None:
        assert row is None and expected is None
        return
    assert row == tuple(expected)
    assert [repr(v) for v in row] == [repr(v) for v in expected]


class TestRowParity:
    @pytest.mark.parametrize("name", sorted(SPECS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_scalar_grid(self, name, data):
        spec = SPECS[name]
        envs = sample_envs(("a", "b"), n_random=8, seed=3)
        _assert_row_parity(spec, envs, data.draw(any_terms(spec)))

    @pytest.mark.parametrize("name", sorted(SPECS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_vector_grid(self, name, data):
        # verify_vector_rule's grid: ``a`` binds full-width vectors,
        # ``b`` scalars.
        spec = SPECS[name]
        envs = _vector_envs(("a", "b"), (True, False), spec.vector_width,
                            16, 54321)
        _assert_row_parity(spec, envs, data.draw(any_terms(spec)))

    def test_missing_binding_in_some_envs_falls_back(self):
        spec = SPECS["fusion-g3"]
        envs = [{"a": Fraction(1)}, {"b": Fraction(2)}]
        for term in (T.symbol("a"), B.add(T.symbol("a"), T.const(1))):
            _assert_row_parity(spec, envs, term)
        envs = [{("x", 0): Fraction(3), "x": (Fraction(5),)},
                {"x": (Fraction(7),)}]
        _assert_row_parity(spec, envs, T.get("x", 0))
        row = CvecEvaluator(spec.interpreter(), envs).row_of(T.get("x", 0))
        assert row == (Fraction(3), Fraction(7))
