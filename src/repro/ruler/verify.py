"""Soundness verification of candidate rewrite rules.

The paper validates rules with an SMT solver behind Rosette.  Offline,
we get equivalent assurance from two mechanisms:

- **Exact normalization** for the polynomial fragment ({+, -, *, neg,
  mac} and the vector ops that reduce to them): both sides are
  normalized to multivariate polynomials with ``Fraction``
  coefficients; equal normal forms prove equality over the rationals
  (hence over the reals, by density/continuity of polynomials).
- **Structured fuzzing** for everything else (/ , sqrt, sgn, custom
  ops): both sides are evaluated on corner-case and random rational
  inputs and must agree exactly — *including* where they are undefined,
  so definedness-changing candidates like ``(/ (* a b) b) ~> a`` are
  rejected.

Candidates have already passed cvec filtering, so verification runs on
a disjoint, larger input set (different seed, more samples).

Fuzzing reuses the batched :class:`~repro.ruler.cvec.CvecEvaluator`:
each rule side is one cached DAG walk over the whole sample grid
instead of ``n_samples`` independent tree interpretations.  A check's
grid depends only on its signature (check kind, wildcard names and
kinds, sample count, seed and, for a rationally-equal rule, the extra
corner values of :func:`definedness_corners`), so a pass of many
checks shares one grid and one row cache per signature
(:class:`~repro.ruler.cvec.GridCache`, :func:`verify_rules`).  Both
sides pair up through :func:`~repro.ruler.cvec.side_values`: a side
the batched path cannot evaluate (an error mid-grid) falls back to the
historical per-environment loop, with the same verdict, method and
counterexample.  ``tests/generalize_oracle.py`` keeps the one-check,
one-grid verifiers this replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from repro.interp.env import CORNER_VALUES
from repro.interp.interpreter import Interpreter
from repro.interp.value import UNDEFINED, values_equal
from repro.isa.spec import IsaSpec
from repro.lang import term as T
from repro.lang.pattern import wildcards_of
from repro.lang.term import Term
from repro.ruler.cvec import GridCache, side_values
from repro.ruler.stats import SynthesisPerf

# Ops whose lane semantics are polynomial in their inputs.
_POLY_SCALAR_OPS = {"+", "-", "*", "neg", "mac", "mulsub"}

# Cap on monomial count during multiplication; beyond this we fall
# back to fuzzing rather than grind on huge products.
_MONOMIAL_LIMIT = 512


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    method: str  # "exact" | "fuzz"
    detail: str = ""


Poly = dict  # monomial (sorted tuple of var names) -> Fraction


def _poly_scalar_op(spec: IsaSpec, op: str) -> str | None:
    """The polynomial scalar op computed per lane, if any."""
    if op in _POLY_SCALAR_OPS:
        return op
    counterpart = None
    if spec.has_instruction(op):
        counterpart = spec.instruction(op).vector_of
    if counterpart in _POLY_SCALAR_OPS:
        return counterpart
    return None


def _poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, coeff in b.items():
        total = out.get(mono, Fraction(0)) + coeff
        if total:
            out[mono] = total
        else:
            out.pop(mono, None)
    return out


def _poly_neg(a: Poly) -> Poly:
    return {mono: -coeff for mono, coeff in a.items()}


def _poly_mul(a: Poly, b: Poly) -> Poly | None:
    if len(a) * len(b) > _MONOMIAL_LIMIT:
        return None
    out: Poly = {}
    for mono_a, coeff_a in a.items():
        for mono_b, coeff_b in b.items():
            mono = tuple(sorted(mono_a + mono_b))
            total = out.get(mono, Fraction(0)) + coeff_a * coeff_b
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
    return out


def polynomial_of(term: Term, spec: IsaSpec) -> Poly | None:
    """Normalize ``term`` to a polynomial, or None if out of fragment."""
    if T.is_const(term):
        value = term.payload
        if isinstance(value, float) and not value.is_integer():
            return None
        coeff = Fraction(value)
        return {(): coeff} if coeff else {}
    if T.is_wildcard(term) or T.is_symbol(term):
        return {(str(term.payload),): Fraction(1)}
    if T.is_get(term):
        array, index = term.payload
        return {(f"{array}[{index}]",): Fraction(1)}

    op = _poly_scalar_op(spec, term.op)
    if op is None:
        return None
    children = []
    for arg in term.args:
        poly = polynomial_of(arg, spec)
        if poly is None:
            return None
        children.append(poly)

    if op == "+":
        return _poly_add(children[0], children[1])
    if op == "-":
        return _poly_add(children[0], _poly_neg(children[1]))
    if op == "neg":
        return _poly_neg(children[0])
    if op == "*":
        return _poly_mul(children[0], children[1])
    if op == "mac":
        product = _poly_mul(children[1], children[2])
        return None if product is None else _poly_add(children[0], product)
    if op == "mulsub":
        product = _poly_mul(children[1], children[2])
        if product is None:
            return None
        return _poly_add(children[0], _poly_neg(product))
    return None


def rational_of(term: Term, spec: IsaSpec) -> tuple[Poly, Poly] | None:
    """Normalize to a rational function ``(numerator, denominator)``.

    Extends the polynomial fragment with division: the term equals
    ``num/den`` wherever defined.  Returns None outside the fragment
    or past the monomial cap.
    """
    if T.is_wildcard(term) or T.is_symbol(term) or T.is_const(term) or (
        T.is_get(term)
    ):
        poly = polynomial_of(term, spec)
        return (poly, {(): Fraction(1)}) if poly is not None else None

    op = term.op
    if op == "/" or (
        spec.has_instruction(op)
        and spec.instruction(op).vector_of == "/"
    ):
        left = rational_of(term.args[0], spec)
        right = rational_of(term.args[1], spec)
        if left is None or right is None:
            return None
        num = _poly_mul(left[0], right[1])
        den = _poly_mul(left[1], right[0])
        if num is None or den is None:
            return None
        return num, den

    scalar = _poly_scalar_op(spec, op)
    if scalar is None:
        return None
    parts = [rational_of(arg, spec) for arg in term.args]
    if any(p is None for p in parts):
        return None

    if scalar in ("+", "-"):
        (p1, q1), (p2, q2) = parts
        cross1 = _poly_mul(p1, q2)
        cross2 = _poly_mul(p2, q1)
        den = _poly_mul(q1, q2)
        if cross1 is None or cross2 is None or den is None:
            return None
        if scalar == "-":
            cross2 = _poly_neg(cross2)
        return _poly_add(cross1, cross2), den
    if scalar == "neg":
        (p, q) = parts[0]
        return _poly_neg(p), q
    if scalar == "*":
        (p1, q1), (p2, q2) = parts
        num = _poly_mul(p1, p2)
        den = _poly_mul(q1, q2)
        return (num, den) if num is not None and den is not None else None
    if scalar in ("mac", "mulsub"):
        (pc, qc), (pa, qa), (pb, qb) = parts
        prod_num = _poly_mul(pa, pb)
        prod_den = _poly_mul(qa, qb)
        if prod_num is None or prod_den is None:
            return None
        if scalar == "mulsub":
            prod_num = _poly_neg(prod_num)
        cross1 = _poly_mul(pc, prod_den)
        cross2 = _poly_mul(prod_num, qc)
        den = _poly_mul(qc, prod_den)
        if cross1 is None or cross2 is None or den is None:
            return None
        return _poly_add(cross1, cross2), den
    return None


def rationals_equal(
    a: tuple[Poly, Poly], b: tuple[Poly, Poly]
) -> bool | None:
    """Cross-multiplied equality of two rational functions.

    True means the functions agree wherever both are defined; None
    means the products blew past the monomial cap.
    """
    left = _poly_mul(a[0], b[1])
    right = _poly_mul(b[0], a[1])
    if left is None or right is None:
        return None
    return left == right


def pattern_to_term(pattern: Term) -> Term:
    """Wildcards become symbols so the interpreter can evaluate."""
    if T.is_wildcard(pattern):
        return T.symbol(pattern.payload)
    if not pattern.args:
        return pattern
    return T.make(
        pattern.op,
        *(pattern_to_term(arg) for arg in pattern.args),
        payload=pattern.payload,
    )


def verify_rule(
    lhs: Term,
    rhs: Term,
    spec: IsaSpec,
    n_samples: int = 64,
    seed: int = 12345,
    perf: SynthesisPerf | None = None,
    grids: GridCache | None = None,
) -> VerifyResult:
    """Check that ``lhs ~> rhs`` is sound under the ISA semantics.

    ``perf`` (optional) collects how many rule sides took the batched
    vs per-environment fuzz path.  ``grids`` (optional) is the pass's
    shared :class:`GridCache`; without one the check draws its own.
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
    corners: tuple = ()
    if rationally_equal:
        n_samples = min(n_samples, 12)
        corners = definedness_corners(lhs, rhs)

    if grids is None:
        grids = GridCache(spec.interpreter())
    # The grid is a function of (names, effective sample count, seed,
    # extra corners) alone: rules with one signature fuzz the same
    # inputs whether or not they share the cache, and sharing it
    # across signatures would change them.
    names = _rule_names(lhs, rhs)
    evaluator = grids.samples(names, n_samples, seed, perf, corners)
    for env, left, right in side_values(
        evaluator, pattern_to_term(lhs), pattern_to_term(rhs)
    ):
        if rationally_equal:
            # Values already proven equal; only undefinedness
            # agreement remains to check.
            if (left is UNDEFINED) != (right is UNDEFINED):
                return VerifyResult(
                    False, "exact", f"definedness mismatch on {env}"
                )
            continue
        if not values_equal(left, right):
            return VerifyResult(
                False,
                "fuzz",
                f"counterexample {env}: {left!r} != {right!r}",
            )
    return VerifyResult(True, "exact" if rationally_equal else "fuzz")


def definedness_corners(lhs: Term, rhs: Term) -> tuple:
    """The corner values a rationally-equal rule's grid adds: each
    constant ``c`` of the rule and ``-c``, sorted, minus the standard
    corners.

    Such a rule's sides can only disagree where a denominator
    vanishes, and a denominator like ``(- ?b 4)`` or ``(+ ?b 5)``
    vanishes at a value the standard corners never hold.  Rules whose
    constants are only 0 and ±1 add nothing, so their grid is the
    standard one.
    """
    values = set()
    for side in (lhs, rhs):
        for sub in T.subterms(side):
            if T.is_const(sub):
                value = Fraction(sub.payload)
                values.update((value, -value))
    return tuple(sorted(values.difference(CORNER_VALUES)))


def _rule_names(lhs: Term, rhs: Term) -> tuple:
    """The rule's wildcard names, sorted (its grid's variables)."""
    return tuple(sorted(set(wildcards_of(lhs)) | set(wildcards_of(rhs))))


def _full_width_signature(lhs: Term, rhs: Term, spec: IsaSpec) -> tuple:
    """A full-width check's wildcard names, their inferred kinds, and
    the per-name vector flags its grids are drawn from."""
    names = _rule_names(lhs, rhs)
    kinds = _wildcard_kinds(lhs, spec)
    return names, kinds, tuple(kinds.get(name) == "vector" for name in names)


def _random_lane(rng) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))


def _vector_envs(
    names: tuple, vectors: tuple, width: int, n_samples: int, seed: int
) -> list:
    """The full-width check's grid: random vectors or scalars per name."""
    rng = Random(seed)
    envs = []
    for _ in range(n_samples):
        env = {}
        for name, vector in zip(names, vectors):
            if vector:
                env[name] = tuple(_random_lane(rng) for _ in range(width))
            else:
                env[name] = _random_lane(rng)
        envs.append(env)
    return envs


def verify_vector_rule(
    lhs: Term,
    rhs: Term,
    spec: IsaSpec,
    n_samples: int = 16,
    seed: int = 54321,
    perf: SynthesisPerf | None = None,
    grids: GridCache | None = None,
) -> VerifyResult:
    """Full-width check of a generalized rule (§3.1's re-verification).

    Wildcards are bound to random *vectors*; lanes evaluate through the
    real lane-wise interpreter, so any cross-lane unsoundness
    introduced by generalization is caught here.  Like
    :func:`verify_rule`, both sides evaluate as cached batched rows on
    the pass's shared grid, with the per-environment loop as the
    error fallback.
    """
    if grids is None:
        grids = GridCache(spec.interpreter())
    width = spec.vector_width
    names, kinds, vectors = _full_width_signature(lhs, rhs, spec)
    lhs_term, rhs_term = pattern_to_term(lhs), pattern_to_term(rhs)
    evaluator = grids.evaluator(
        ("vector", names, vectors, width, n_samples, seed),
        lambda: _vector_envs(names, vectors, width, n_samples, seed),
        perf,
    )
    for env, left, right in side_values(evaluator, lhs_term, rhs_term):
        if left is UNDEFINED and right is UNDEFINED:
            continue
        if not values_equal(left, right):
            return VerifyResult(
                False,
                "fuzz",
                f"vector counterexample {env}: {left!r} != {right!r}",
            )
    if spec.masked:
        failure = _verify_masked_projection(
            lhs_term, rhs_term, grids.interpreter, names, kinds, width,
            seed, grids=grids, perf=perf,
        )
        if failure is not None:
            return failure
    return VerifyResult(True, "fuzz")


def _projection_actives(width: int, n_envs: int) -> list:
    """Each masked re-check environment's active-lane count, in grid
    order: ``n_envs`` environments per prefix mask."""
    return [
        active
        for active in sorted({1, max(1, width - 1)})
        for _ in range(n_envs)
    ]


def _projection_envs(
    names: tuple, vectors: tuple, width: int, seed: int, actives: list
) -> list:
    """The masked re-check's grid: random lanes, with every lane past
    the environment's active prefix scrambled with out-of-distribution
    junk."""
    rng = Random(seed ^ 0x6D61736B)  # "mask"
    envs = []
    for active in actives:
        env = {}
        for name, vector in zip(names, vectors):
            if vector:
                lanes = [_random_lane(rng) for _ in range(width)]
                for lane in range(active, width):
                    lanes[lane] = Fraction(rng.randint(-97, 97))
                env[name] = tuple(lanes)
            else:
                env[name] = _random_lane(rng)
        envs.append(env)
    return envs


def _verify_masked_projection(
    lhs_term: Term,
    rhs_term: Term,
    interpreter: Interpreter,
    names: list,
    kinds: dict,
    width: int,
    seed: int,
    n_envs: int = 4,
    grids: GridCache | None = None,
    perf: SynthesisPerf | None = None,
) -> VerifyResult | None:
    """Masked re-check for predicated ISAs; None means it passed.

    Under tail-masking only a prefix of each vector's lanes is
    observed, and the inactive tail may hold anything the rest of the
    program left there.  For each prefix mask we scramble the inactive
    lanes with out-of-distribution junk and require both sides to
    still agree on the *active* prefix — catching any generalized rule
    that would smuggle inactive-lane data into active lanes.  Lane-wise
    rules pass trivially; the check exists for cross-lane custom
    instructions.  Both sides evaluate as batched rows on the pass's
    shared projection grid (``grids``, which must be over
    ``interpreter``).
    """
    if grids is None:
        grids = GridCache(interpreter)
    names = tuple(names)
    vectors = tuple(kinds.get(name) == "vector" for name in names)
    actives = _projection_actives(width, n_envs)
    evaluator = grids.evaluator(
        ("mask", names, vectors, width, n_envs, seed),
        lambda: _projection_envs(names, vectors, width, seed, actives),
        perf,
    )
    triples = side_values(evaluator, lhs_term, rhs_term)
    for active, (env, left, right) in zip(actives, triples):
        if left is UNDEFINED or right is UNDEFINED:
            # Junk in an inactive lane made a side undefined; a
            # masked machine would not execute that lane, so this
            # environment proves nothing either way.
            continue
        left_prefix = left[:active] if isinstance(left, tuple) else left
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


def verify_rules(
    checks: list,
    spec: IsaSpec,
    perf: SynthesisPerf | None = None,
) -> list[VerifyResult]:
    """Verdicts for ``(lhs, rhs, vector)`` checks, in input order.

    Each check is :func:`verify_vector_rule` when ``vector`` is true
    and :func:`verify_rule` otherwise, with the same answer as a
    one-off call.  Checks run grouped by grid signature — the check
    kind and the wildcard names (and, at full width, their kinds) —
    over one :class:`GridCache`, whose rows are freed after each
    group's last check so only one signature's rows are alive at a
    time.
    """
    grids = GridCache(spec.interpreter())
    groups: dict[tuple, list[int]] = {}
    for index, (lhs, rhs, vector) in enumerate(checks):
        if vector:
            names, _, vectors = _full_width_signature(lhs, rhs, spec)
            key = (True, names, vectors)
        else:
            key = (False, _rule_names(lhs, rhs))
        groups.setdefault(key, []).append(index)
    results: list = [None] * len(checks)
    for indices in groups.values():
        for index in indices:
            lhs, rhs, vector = checks[index]
            check = verify_vector_rule if vector else verify_rule
            results[index] = check(lhs, rhs, spec, perf=perf, grids=grids)
        grids.clear()
    return results


def _wildcard_kinds(pattern: Term, spec: IsaSpec) -> dict:
    """Infer vector/scalar kind of each wildcard from its contexts."""
    from repro.lang.ops import OpKind

    kinds: dict[str, str] = {}

    def visit(term: Term, expected: str) -> None:
        if T.is_wildcard(term):
            kinds.setdefault(term.payload, expected)
            return
        if term.op == "Vec":
            for arg in term.args:
                visit(arg, "scalar")
            return
        if spec.has_instruction(term.op):
            kind = spec.instruction(term.op).kind
            child = "vector" if kind is OpKind.VECTOR else "scalar"
            for arg in term.args:
                visit(arg, child)
            return
        for arg in term.args:
            visit(arg, expected)

    visit(pattern, "vector")
    return kinds
