"""Cost-aware dominated-rule pruning (the Daly et al. shrink).

Every rule a synthesis run keeps pays match cost in every phase of
every compile, forever — so beyond *soundness* (verification) and
*deductive novelty* (derivability minimization), the offline pipeline
asks a third question: does this rule ever win?  Following "Efficiently
Synthesizing Lowest Cost Rewrite Rules for Instruction Selection"
(Daly et al., PAPERS.md), a rule is **dominated** when an
already-kept rule with an equal-or-more-general LHS achieves an
equal-or-better cost delta under the ISA cost model: every program
point the dominated rule could improve, the keeper improves at least
as much, so the dominated rule never changes extraction and is pure
match-time overhead.

Three deliberate conservatisms keep pruning quality-neutral:

- pure *introduction* rules (bare-wildcard LHS, e.g. ``?x => (+ ?x
  0)``) are exempt on both sides of the relation: a bare wildcard
  matches every node, so "more general LHS" carries no information
  there, and these generative seeds are exactly the rules whose RHS
  structure matters most;
- every dominated rule must also be *derivable* from the survivors: a
  greedy batched derivability pass (deterministic saturation budgets,
  no wall-clock) rescues any dominated rule the kept set cannot
  re-derive, so pruning never removes deductive power — a dropped rule
  is both cost-dominated and a consequence of what remains;
- each ISA instruction keeps its cheapest introduction: if dominance
  would orphan an instruction (no kept cost-non-increasing rule whose
  RHS introduces it), the minimal-LHS introducer is rescued, so every
  custom/vector op stays reachable through its cheapest pattern.

Survivors are returned in their **input order** (a stable filter).
Dominance itself is decided on a delta-ranked scan, but the output
must not be re-sorted: synthesis feeds candidate orientation pairs
(``L => R`` next to ``R => L``) to the derivability shrink in
:mod:`repro.ruler.minimize`, whose greedy batches only spare rules
that share a batch — re-ordering by delta splits every pair across
batches and the shrink then drops each generative orientation as
equivalence-derivable from its own contraction, silently emptying the
expansion phase.

``SynthesisConfig(cost_prune=False)`` skips the stage in synthesis;
``repro.tools.regen_rules`` uses it to write the unpruned
``fusion_g3_rules_full.txt`` that the differential tests and
``BENCH_minimize`` compare the pruned default against.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.egraph.rewrite import Rewrite
from repro.egraph.runner import RunnerLimits
from repro.isa.spec import IsaSpec
from repro.lang import term as T
from repro.lang.term import Term, term_size
from repro.phases.cost import CostModel
from repro.ruler.stats import SynthesisPerf

# Derivability-rescue saturation budgets: iteration/node/match-work
# bounded (all deterministic), never wall-clock, so the pruned rule
# set cannot vary with machine load.  Tighter than the minimize-stage
# filter limits — rescue only needs shallow derivations, and it runs
# in the family-compiler bootstrap path.
_RESCUE_LIMITS = RunnerLimits(
    max_iterations=2,
    max_nodes=20_000,
    time_limit=float("inf"),
    match_limit=2000,
    ban_length=1,
    match_work=200_000,
)
_RESCUE_BATCH = 64


def rule_delta(model: CostModel, rule: Rewrite) -> float:
    """The achievable cost delta ``C(lhs) - C(rhs)`` of one rule.

    Positive deltas are cost-decreasing rewrites (instruction
    selection, fusion); negative deltas are generative/expansion
    rewrites.  Wildcards are costed as unit leaves (Definition 1
    extends to patterns).
    """
    return model.term_cost(rule.lhs) - model.term_cost(rule.rhs)


def lhs_subsumes(general: Term, specific: Term) -> bool:
    """True when every instance of ``specific`` is one of ``general``.

    Pattern-over-pattern matching: wildcards in ``general`` bind whole
    subpatterns of ``specific`` (a repeated wildcard must bind equal
    subpatterns); concrete structure must match exactly.  Alpha-renamed
    patterns subsume each other.
    """
    binding: dict = {}
    stack = [(general, specific)]
    while stack:
        gen, spec = stack.pop()
        if T.is_wildcard(gen):
            bound = binding.get(gen.payload)
            if bound is None:
                binding[gen.payload] = spec
            elif bound != spec:
                return False
            continue
        if (
            gen.op != spec.op
            or gen.payload != spec.payload
            or len(gen.args) != len(spec.args)
        ):
            return False
        stack.extend(zip(gen.args, spec.args))
    return True


def cost_model_digest(spec: IsaSpec) -> str:
    """A short stable digest of the ISA cost model pruning ran under.

    Persisted with pruning provenance so a ruleset pruned under one
    cost model is never mistaken for one pruned under another (the
    dominance relation depends on every per-op cost).
    """
    model = CostModel(spec)
    doc = {
        "isa": spec.name,
        "width": spec.vector_width,
        "op_costs": sorted(spec.op_costs().items()),
        "leaf": model.leaf_cost,
        "vec_lane_literal": model.vec_lane_literal_cost,
        "vec_lane_compute": model.vec_lane_compute_cost,
        "vec_contiguous": model.vec_contiguous_cost,
        "concat": model.concat_cost,
        "masked": model.masked,
        "mask": model.mask_cost,
        "vec_unaligned": model.vec_unaligned_cost,
    }
    payload = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class CostPruneReport:
    """What one dominance-pruning pass did.

    ``n_dominated`` counts rules actually dropped; ``n_rescued``
    counts dominated rules re-admitted (derivability + instruction
    coverage), so ``n_in == n_kept + n_dominated`` always holds.
    """

    n_in: int = 0
    n_kept: int = 0
    n_dominated: int = 0
    n_rescued: int = 0
    cost_model_digest: str = ""

    def as_dict(self) -> dict:
        """A JSON-ready provenance dict (artifact / bench payloads)."""
        return {
            "n_in": self.n_in,
            "n_kept": self.n_kept,
            "n_dominated": self.n_dominated,
            "n_rescued": self.n_rescued,
            "cost_model_digest": self.cost_model_digest,
        }


def _introduced_ops(rule: Rewrite) -> set:
    """Operators the rule's RHS mentions but its LHS does not."""

    def ops_of(side: Term) -> set:
        ops = set()
        stack = [side]
        while stack:
            node = stack.pop()
            if not T.is_leaf(node) and not T.is_wildcard(node):
                ops.add(node.op)
            stack.extend(node.args)
        return ops

    return ops_of(rule.rhs) - ops_of(rule.lhs)


def cost_prune_rules(
    rules: list[Rewrite],
    spec: IsaSpec,
    perf: SynthesisPerf | None = None,
) -> tuple[list[Rewrite], CostPruneReport]:
    """Drop cost-dominated rules; keep every instruction reachable.

    Rules are ranked by delta (descending, minimal-LHS-first on ties)
    and scanned greedily: a rule already covered by a kept rule whose
    LHS subsumes its own and whose delta is equal-or-better is
    dominated.  Pure introduction rules (bare-wildcard LHS) are exempt
    on both sides.  Dominated rules the kept set cannot re-derive
    under deterministic saturation budgets are rescued back (greedy
    batches, so each rescued batch helps derive the rest), and ISA
    instructions whose every cost-non-increasing introduction was
    dominated get their minimal-LHS introducer rescued too.  Returns
    the survivors — in input order, see the module docstring — and a
    :class:`CostPruneReport`.
    """
    # Imported here, not at module top: minimize imports nothing from
    # this module today, but keeping the dependency one-way at import
    # time makes that robust.
    from repro.ruler.minimize import _filter_pass

    model = CostModel(spec)
    deltas = {rule: rule_delta(model, rule) for rule in rules}
    ranked = sorted(
        rules,
        key=lambda r: (-deltas[r], term_size(r.lhs), r.name),
    )
    kept: list[Rewrite] = []
    dropped: list[Rewrite] = []
    dominators: list[Rewrite] = []
    for rule in ranked:
        if not T.is_wildcard(rule.lhs) and any(
            lhs_subsumes(k.lhs, rule.lhs) and deltas[k] >= deltas[rule]
            for k in dominators
        ):
            dropped.append(rule)
            continue
        kept.append(rule)
        if not T.is_wildcard(rule.lhs):
            dominators.append(rule)

    # Derivability rescue: a dominated rule only stays dropped if the
    # survivors derive it.  The saturation base excludes the
    # bare-wildcard introduction rules — they are kept regardless, and
    # seeding every node with introductions blows the filter e-graph
    # up without proving anything the compact rules cannot.
    n_derive_rescued = 0
    if dropped:
        base = [r for r in kept if not T.is_wildcard(r.lhs)]
        rescued_rules: list[Rewrite] = []
        remaining = _filter_pass(dropped, base, _RESCUE_LIMITS)
        while remaining:
            take = remaining[:_RESCUE_BATCH]
            remaining = remaining[_RESCUE_BATCH:]
            rescued_rules.extend(take)
            if remaining:
                remaining = _filter_pass(
                    remaining, base + rescued_rules, _RESCUE_LIMITS
                )
        if rescued_rules:
            n_derive_rescued = len(rescued_rules)
            kept.extend(rescued_rules)
            still_dropped = set(dropped) - set(rescued_rules)
            dropped = [r for r in dropped if r in still_dropped]

    # Instruction-selection preference: every ISA instruction some
    # dropped rule introduced must stay reachable through at least one
    # kept cost-decreasing rule; rescue the minimal-LHS introducer.
    instruction_ops = {instr.name for instr in spec.instructions}
    covered = set()
    for rule in kept:
        if deltas[rule] >= 0:
            covered |= _introduced_ops(rule) & instruction_ops
    rescued: list[Rewrite] = []
    by_op: dict[str, list[Rewrite]] = {}
    for rule in dropped:
        for op in _introduced_ops(rule) & instruction_ops:
            if op not in covered:
                by_op.setdefault(op, []).append(rule)
    for op in sorted(by_op):
        if op in covered:
            continue  # an earlier rescue may introduce several ops
        best = min(
            by_op[op],
            key=lambda r: (term_size(r.lhs), -deltas[r], r.name),
        )
        rescued.append(best)
        covered |= _introduced_ops(best) & instruction_ops
    kept.extend(rescued)
    rescued_set = set(rescued)
    dropped = [rule for rule in dropped if rule not in rescued_set]

    kept_set = set(kept)
    kept = [rule for rule in rules if rule in kept_set]
    report = CostPruneReport(
        n_in=len(rules),
        n_kept=len(kept),
        n_dominated=len(dropped),
        n_rescued=n_derive_rescued + len(rescued),
        cost_model_digest=cost_model_digest(spec),
    )
    if perf is not None:
        perf.costprune_dominated += report.n_dominated
        perf.costprune_rescued += report.n_rescued
    return kept, report
