"""The one-rule-at-a-time lane generalizer, kept as a differential oracle.

This is the loop ``repro.ruler.lanes.generalize_rules`` ran before its
checks were grouped by grid signature, with the verifiers it called.
Each expanded rule is verified the moment it is emitted: the check
draws its own sample grid, builds a fresh evaluator and evaluates
every subterm afresh, and the masked projection interprets each of
its environments as a separate tree walk.  Accepted rules are
numbered in emission order.  It is kept verbatim so the differential
tests can check that the product generalizer and verifiers return the
same rules, names, order, verdicts and counterexample strings on
every input.  ``serial=True`` runs either verifier on the
per-environment fuzz loop alone, the path a rule side takes when its
batched rows raise.
"""

from __future__ import annotations

from fractions import Fraction

from repro.egraph.rewrite import Rewrite
from repro.interp.env import CORNER_VALUES, sample_envs
from repro.interp.interpreter import EvalError, Interpreter
from repro.interp.value import UNDEFINED, values_equal
from repro.isa.spec import IsaSpec
from repro.lang import term as T
from repro.lang.pattern import wildcards_of
from repro.lang.term import Term
from repro.ruler.candidates import canonical_wildcards
from repro.ruler.cvec import CvecEvaluator
from repro.ruler.lanes import (
    GeneralizationReport,
    _padding_rules,
    deep_lift,
    lift_lhs,
    scalarize,
    vectorize,
)
from repro.ruler.stats import SynthesisPerf
from repro.ruler.verify import (
    VerifyResult,
    _wildcard_kinds,
    definedness_corners,
    pattern_to_term,
    polynomial_of,
    rational_of,
    rationals_equal,
)


def oracle_generalize_rules(
    rules: list[Rewrite],
    spec: IsaSpec,
    perf: SynthesisPerf | None = None,
) -> tuple[list[Rewrite], GeneralizationReport]:
    """The one-check-at-a-time expansion (see the module doc)."""
    report = GeneralizationReport(n_input_rules=len(rules))
    seen: set[tuple[Term, Term]] = set()
    out: list[Rewrite] = []

    def emit(name: str, lhs: Term, rhs: Term, vector: bool) -> None:
        if lhs == rhs:
            return
        if set(wildcards_of(rhs)) - set(wildcards_of(lhs)):
            return
        lhs, rhs = canonical_wildcards(lhs, rhs)
        key = (lhs, rhs)
        if key in seen:
            return
        seen.add(key)
        if vector:
            check = oracle_verify_vector_rule(lhs, rhs, spec, perf=perf)
        else:
            check = oracle_verify_rule(lhs, rhs, spec, perf=perf)
        if not check.ok:
            report.n_rejected += 1
            report.rejected.append((name, lhs, rhs, check.detail))
            return
        out.append(Rewrite(f"{name}-{len(out)}", lhs, rhs))
        report.n_generated += 1

    # Canonical lift per vector instruction, straight from the ISA's
    # scalar<->vector correspondence.  Rule minimization can (rightly)
    # drop a single-lane bridge like (- a b) ~> (VecMinus a b) as
    # derivable through other rules, but its *lift* form is not
    # derivable at full width — without this, instructions whose
    # bridge was minimized away would never get a compilation rule.
    for vinstr in spec.vector_instructions():
        scalar_op = vinstr.vector_of
        if scalar_op is None or not spec.has_instruction(scalar_op):
            continue
        arity = spec.instruction(scalar_op).arity
        pattern = T.make(
            scalar_op, *(T.wildcard(f"x{j}") for j in range(arity))
        )
        lifted_rhs = deep_lift(T.make(
            vinstr.name, *(T.wildcard(f"x{j}") for j in range(arity))
        ), spec)
        if lifted_rhs is not None:
            emit("lift", lift_lhs(pattern, spec), lifted_rhs, vector=True)

    for rule in rules:
        lhs, rhs = rule.lhs, rule.rhs
        ground = not wildcards_of(lhs) and not wildcards_of(rhs)

        # Scalar form.
        s_lhs, s_rhs = scalarize(lhs, spec), scalarize(rhs, spec)
        if s_lhs is not None and s_rhs is not None:
            emit("scal", s_lhs, s_rhs, vector=False)

        # Ground rules are constant folding; their vector/lift variants
        # (e.g. rewriting (VecSqrt (Vec 1 1 1 1))) never fire on real
        # kernels and only slow down matching, so stop here for them.
        if ground:
            continue

        # Vector form.
        v_lhs, v_rhs = vectorize(lhs, spec), vectorize(rhs, spec)
        if v_lhs is not None and v_rhs is not None:
            emit("vect", v_lhs, v_rhs, vector=True)

        # Lift (compilation) form: scalar-shaped LHS in Vec lanes.
        if s_lhs is not None and not T.is_wildcard(s_lhs) and s_lhs.args:
            lifted_rhs = deep_lift(rhs, spec)
            if lifted_rhs is not None:
                emit("lift", lift_lhs(s_lhs, spec), lifted_rhs, vector=True)

        # Lane-restricted padding from identity introductions.
        for name, p_lhs, p_rhs in _padding_rules(rule, spec):
            emit(name, p_lhs, p_rhs, vector=True)

    return out, report


def oracle_verify_rule(
    lhs: Term,
    rhs: Term,
    spec: IsaSpec,
    n_samples: int = 64,
    seed: int = 12345,
    perf: SynthesisPerf | None = None,
    serial: bool = False,
) -> VerifyResult:
    """Check that ``lhs ~> rhs`` is sound under the ISA semantics.

    ``perf`` (optional) collects how many rule sides took the batched
    vs per-environment fuzz path; ``serial`` forces the latter.
    """
    poly_l = polynomial_of(lhs, spec)
    if poly_l is not None:
        poly_r = polynomial_of(rhs, spec)
        if poly_r is not None:
            if poly_l == poly_r:
                return VerifyResult(True, "exact")
            return VerifyResult(
                False, "exact", "polynomial normal forms differ"
            )

    # Division fragment: exact rational-function check proves equality
    # where both sides are defined; a short fuzz pass below still
    # confirms the *undefinedness* patterns agree.
    rationally_equal = False
    rat_l = rational_of(lhs, spec)
    if rat_l is not None:
        rat_r = rational_of(rhs, spec)
        if rat_r is not None:
            verdict = rationals_equal(rat_l, rat_r)
            if verdict is False:
                return VerifyResult(
                    False, "exact", "rational normal forms differ"
                )
            rationally_equal = verdict is True
    if rationally_equal:
        n_samples = min(n_samples, 12)

    interpreter = spec.interpreter()
    names = sorted(set(wildcards_of(lhs)) | set(wildcards_of(rhs)))
    lhs_term, rhs_term = pattern_to_term(lhs), pattern_to_term(rhs)
    # The sample grid depends on the rule's own variable names, so each
    # rule gets a fresh evaluator — sharing one across rules would
    # change the fuzz inputs and could flip verdicts vs the serial path.
    # A rationally-equal rule's corners hold its own constants too.
    corners = CORNER_VALUES
    if rationally_equal:
        corners += definedness_corners(lhs, rhs)
    envs = tuple(sample_envs(tuple(names), n_random=n_samples, seed=seed,
                             corner_values=corners))
    if not serial:
        result = _fuzz_batched(
            lhs_term, rhs_term, interpreter, envs, rationally_equal, perf
        )
        if result is not None:
            return result
        # Batched evaluation raised mid-grid; the serial loop below
        # reproduces its outcome (a counterexample found before the
        # failing environment, or the same error).
    if perf is not None:
        perf.verify_legacy_terms += 2
    return _fuzz_serial(
        lhs_term, rhs_term, interpreter, envs, rationally_equal
    )


def _fuzz_batched(
    lhs_term: Term,
    rhs_term: Term,
    interpreter: Interpreter,
    envs: tuple,
    rationally_equal: bool,
    perf: SynthesisPerf | None,
) -> VerifyResult | None:
    """Fuzz both sides as cached value rows; None means fall back."""
    evaluator = CvecEvaluator(interpreter, envs, perf=perf)
    try:
        left_row = evaluator.row_of(lhs_term)
        right_row = evaluator.row_of(rhs_term)
    except EvalError:
        return None
    if perf is not None:
        perf.verify_batched_terms += 2
    if rationally_equal:
        # Values already proven equal; only undefinedness agreement
        # remains to check.
        for env, left, right in zip(envs, left_row, right_row):
            if (left is UNDEFINED) != (right is UNDEFINED):
                return VerifyResult(
                    False, "exact", f"definedness mismatch on {env}"
                )
        return VerifyResult(True, "exact")
    for env, left, right in zip(envs, left_row, right_row):
        if not values_equal(left, right):
            return VerifyResult(
                False,
                "fuzz",
                f"counterexample {env}: {left!r} != {right!r}",
            )
    return VerifyResult(True, "fuzz")


def _fuzz_serial(
    lhs_term: Term,
    rhs_term: Term,
    interpreter: Interpreter,
    envs: tuple,
    rationally_equal: bool,
) -> VerifyResult:
    """The historical per-environment fuzz loop (the serial path and
    the fallback when batched evaluation errors mid-grid)."""
    for env in envs:
        left = interpreter.evaluate(lhs_term, env)
        right = interpreter.evaluate(rhs_term, env)
        if rationally_equal:
            # Values already proven equal; only undefinedness
            # agreement remains to check.
            if (left is UNDEFINED) != (right is UNDEFINED):
                return VerifyResult(
                    False,
                    "exact",
                    f"definedness mismatch on {env}",
                )
            continue
        if not values_equal(left, right):
            return VerifyResult(
                False,
                "fuzz",
                f"counterexample {env}: {left!r} != {right!r}",
            )
    return VerifyResult(True, "exact" if rationally_equal else "fuzz")


def oracle_verify_vector_rule(
    lhs: Term,
    rhs: Term,
    spec: IsaSpec,
    n_samples: int = 16,
    seed: int = 54321,
    perf: SynthesisPerf | None = None,
    serial: bool = False,
) -> VerifyResult:
    """Full-width check of a generalized rule (§3.1's re-verification).

    Wildcards are bound to random *vectors*; lanes evaluate through the
    real lane-wise interpreter, so any cross-lane unsoundness
    introduced by generalization is caught here.  Like
    :func:`oracle_verify_rule`, both sides evaluate as cached batched
    rows, with the per-environment loop as the ``serial`` path and the
    error fallback.
    """
    from random import Random

    interpreter = spec.interpreter()
    width = spec.vector_width
    names = sorted(set(wildcards_of(lhs)) | set(wildcards_of(rhs)))
    lhs_term, rhs_term = pattern_to_term(lhs), pattern_to_term(rhs)
    rng = Random(seed)

    kinds = _wildcard_kinds(lhs, spec)
    envs = []
    for _ in range(n_samples):
        env = {}
        for name in names:
            if kinds.get(name) == "vector":
                env[name] = tuple(
                    Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                    for _ in range(width)
                )
            else:
                env[name] = Fraction(
                    rng.randint(-6, 6), rng.choice((1, 2, 3))
                )
        envs.append(env)

    rows = None
    if not serial:
        evaluator = CvecEvaluator(interpreter, envs, perf=perf)
        try:
            rows = (
                evaluator.row_of(lhs_term), evaluator.row_of(rhs_term)
            )
        except EvalError:
            rows = None  # the serial loop reproduces the outcome
    if rows is not None:
        if perf is not None:
            perf.verify_batched_terms += 2
        pairs = zip(envs, rows[0], rows[1])
    else:
        if perf is not None:
            perf.verify_legacy_terms += 2
        pairs = (
            (
                env,
                interpreter.evaluate(lhs_term, env),
                interpreter.evaluate(rhs_term, env),
            )
            for env in envs
        )
    for env, left, right in pairs:
        if left is UNDEFINED and right is UNDEFINED:
            continue
        if not values_equal(left, right):
            return VerifyResult(
                False,
                "fuzz",
                f"vector counterexample {env}: {left!r} != {right!r}",
            )
    if spec.masked:
        failure = oracle_masked_projection(
            lhs_term, rhs_term, interpreter, names, kinds, width, seed
        )
        if failure is not None:
            return failure
    return VerifyResult(True, "fuzz")


def oracle_masked_projection(
    lhs_term: Term,
    rhs_term: Term,
    interpreter: Interpreter,
    names: list,
    kinds: dict,
    width: int,
    seed: int,
    n_envs: int = 4,
) -> VerifyResult | None:
    """Masked re-check for predicated ISAs; None means it passed.

    Under tail-masking only a prefix of each vector's lanes is
    observed, and the inactive tail may hold anything the rest of the
    program left there.  For each prefix mask we scramble the inactive
    lanes with out-of-distribution junk and require both sides to
    still agree on the *active* prefix — catching any generalized rule
    that would smuggle inactive-lane data into active lanes.  Lane-wise
    rules pass trivially; the check exists for cross-lane custom
    instructions.
    """
    from random import Random

    rng = Random(seed ^ 0x6D61736B)  # "mask"
    for active in sorted({1, max(1, width - 1)}):
        for _ in range(n_envs):
            env = {}
            for name in names:
                if kinds.get(name) == "vector":
                    lanes = [
                        Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                        for _ in range(width)
                    ]
                    for lane in range(active, width):
                        lanes[lane] = Fraction(rng.randint(-97, 97))
                    env[name] = tuple(lanes)
                else:
                    env[name] = Fraction(
                        rng.randint(-6, 6), rng.choice((1, 2, 3))
                    )
            left = interpreter.evaluate(lhs_term, env)
            right = interpreter.evaluate(rhs_term, env)
            if left is UNDEFINED or right is UNDEFINED:
                # Junk in an inactive lane made a side undefined; a
                # masked machine would not execute that lane, so this
                # environment proves nothing either way.
                continue
            left_prefix = (
                left[:active] if isinstance(left, tuple) else left
            )
            right_prefix = (
                right[:active] if isinstance(right, tuple) else right
            )
            if not values_equal(left_prefix, right_prefix):
                return VerifyResult(
                    False,
                    "fuzz",
                    f"masked (active={active}) counterexample {env}: "
                    f"{left!r} != {right!r}",
                )
    return None
