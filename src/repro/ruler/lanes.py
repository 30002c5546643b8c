"""Vector lane generalization (paper §3.1).

Rule synthesis runs on the *single-lane reduction* of the ISA, where
vector instructions act on scalars.  This module expands each verified
single-lane rule back to the architecture's real vector width,
producing up to four full-width rules:

- a **scalar rule** (vector ops replaced by their scalar
  counterparts) — pure per-lane algebra;
- a **vector rule** (scalar ops replaced by their vector counterparts,
  constants splatted) — the same algebra on whole vectors;
- a **lift rule**: the left side becomes a ``Vec`` literal whose lanes
  repeat the scalar pattern with fresh wildcards per lane, and the
  right side is the deep lift of the rule's right side — e.g.

      (Vec (+ a0 b0) ... (+ a3 b3))  ~>  (VecAdd (Vec a0..a3) (Vec b0..b3))

  These are the scalar→vector *compilation* rules;
- **lane-restricted padding rules** for identity introductions
  (``a ~> (+ a 0)``): one rule per lane position rewriting
  ``(Vec .. x ..)`` to ``(Vec .. (+ x 0) ..)``.  Restricting padding to
  ``Vec`` lanes — the only place it enables vectorization — avoids the
  every-e-class match explosion of the global rule (§2.2's "must be
  used carefully"); see DESIGN.md.

Generalizing lane-wise is unsound for instructions with cross-lane
behaviour, so every expanded rule is re-verified on the full-width
interpreter (:func:`repro.ruler.verify.verify_vector_rule`) before
acceptance, mirroring the paper's formal re-verification step.  The
checks run as one pass over shared per-signature sample grids
(:func:`repro.ruler.verify.verify_rules`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.egraph.rewrite import Rewrite
from repro.isa.spec import IsaSpec
from repro.lang import builders as B
from repro.lang import term as T
from repro.lang.ops import OpKind
from repro.lang.pattern import instantiate, suffix_wildcards, wildcards_of
from repro.lang.term import Term
from repro.ruler.candidates import canonical_wildcards
from repro.ruler.stats import SynthesisPerf
from repro.ruler.verify import verify_rules


@dataclass
class GeneralizationReport:
    n_input_rules: int = 0
    n_generated: int = 0
    n_rejected: int = 0
    rejected: list = field(default_factory=list)


def _op_kind(spec: IsaSpec, op: str) -> OpKind | None:
    return spec.instruction(op).kind if spec.has_instruction(op) else None


def scalarize(term: Term, spec: IsaSpec) -> Term | None:
    """Vector ops -> scalar counterparts; None if one is missing."""
    if not term.args:
        return term
    op = term.op
    if _op_kind(spec, op) is OpKind.VECTOR:
        op = spec.scalar_counterpart(term.op)
        if op is None or not spec.has_instruction(op):
            return None
    args = []
    for arg in term.args:
        lowered = scalarize(arg, spec)
        if lowered is None:
            return None
        args.append(lowered)
    return T.make(op, *args)


def vectorize(term: Term, spec: IsaSpec) -> Term | None:
    """Scalar ops -> vector counterparts, constants splatted."""
    if T.is_const(term):
        return B.vec(*([term] * spec.vector_width))
    if T.is_wildcard(term):
        return term
    if T.is_symbol(term) or T.is_get(term):
        return None  # enumeration terms never reach here
    op = term.op
    if _op_kind(spec, op) is OpKind.SCALAR:
        op = spec.vector_counterpart(term.op)
        if op is None:
            return None
    args = []
    for arg in term.args:
        lifted = vectorize(arg, spec)
        if lifted is None:
            return None
        args.append(lifted)
    return T.make(op, *args)


def deep_lift(term: Term, spec: IsaSpec) -> Term | None:
    """Full lift: wildcards -> per-lane Vec literals, ops -> vector ops."""
    width = spec.vector_width
    if T.is_wildcard(term):
        return B.vec(
            *(T.wildcard(f"{term.payload}.{i}") for i in range(width))
        )
    if T.is_const(term):
        return B.vec(*([term] * width))
    op = term.op
    if _op_kind(spec, op) is OpKind.SCALAR:
        op = spec.vector_counterpart(term.op)
        if op is None:
            return None
    args = []
    for arg in term.args:
        lifted = deep_lift(arg, spec)
        if lifted is None:
            return None
        args.append(lifted)
    return T.make(op, *args)


def lift_lhs(scalar_pattern: Term, spec: IsaSpec) -> Term:
    """A Vec literal repeating the scalar pattern with fresh wildcards."""
    width = spec.vector_width
    lanes = [
        suffix_wildcards(scalar_pattern, f".{i}") for i in range(width)
    ]
    return B.vec(*lanes)


def _padding_rules(
    rule: Rewrite, spec: IsaSpec
) -> list[tuple[str, Term, Term]]:
    """Per-lane padding rules from an identity introduction ``?a ~> r``."""
    if not T.is_wildcard(rule.lhs):
        return []
    body = scalarize(rule.rhs, spec)
    if body is None:
        return []
    width = spec.vector_width
    hole = rule.lhs.payload
    out = []
    wilds = [B.wildcard(f"x{i}") for i in range(width)]
    for lane in range(width):
        lanes = list(wilds)
        mapping = {
            name: B.wildcard(name) for name in wildcards_of(body)
        }
        mapping[hole] = wilds[lane]
        lanes[lane] = instantiate(body, mapping)
        out.append((f"pad{lane}", B.vec(*wilds), B.vec(*lanes)))
    return out


def generalize_rules(
    rules: list[Rewrite],
    spec: IsaSpec,
    perf: SynthesisPerf | None = None,
) -> tuple[list[Rewrite], GeneralizationReport]:
    """Expand verified single-lane rules to full width (see module doc).

    Every expanded rule is collected first, then all of them are
    re-verified in one :func:`~repro.ruler.verify.verify_rules` pass
    that shares a sample grid per wildcard signature; accepted rules
    are numbered in emission order.  ``perf`` (optional) collects the
    re-verification batching counters.
    """
    report = GeneralizationReport(n_input_rules=len(rules))
    seen: set[tuple[Term, Term]] = set()
    emitted: list[tuple[str, Term, Term, bool]] = []

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
        emitted.append((name, lhs, rhs, vector))

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

    checks = verify_rules(
        [(lhs, rhs, vector) for _, lhs, rhs, vector in emitted],
        spec,
        perf=perf,
    )
    out: list[Rewrite] = []
    for (name, lhs, rhs, _), check in zip(emitted, checks):
        if not check.ok:
            report.n_rejected += 1
            report.rejected.append((name, lhs, rhs, check.detail))
            continue
        out.append(Rewrite(f"{name}-{len(out)}", lhs, rhs))
        report.n_generated += 1
    return out, report
