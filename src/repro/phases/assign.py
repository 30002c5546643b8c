"""Cost-based phase assignment (paper §3.2, Definitions 3-4).

Each candidate rewrite rule is assigned to one of three phases by two
metrics computed from the abstract cost model:

1. rules with cost differential ``CD(P ~> Q) > α`` are **compilation**
   rules — they lower cost dramatically, which in this cost model only
   scalar→vector transitions do;
2. of the rest, rules with aggregate cost ``CA(P ~> Q) > β`` are
   **expansion** rules (both sides still scalar-heavy), and the rest
   are **optimization** rules (both sides vector-cheap).

The default α/β come from the paper's guidance: β sits between the
cost of a scalar addition pattern and a vector addition pattern, and α
exceeds the largest cost difference any scalar↔scalar rule can have.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.egraph.rewrite import Rewrite
from repro.isa.spec import IsaSpec
from repro.obs import current_tracer
from repro.phases.cost import CostModel
from repro.phases.ruleset import PhasedRuleSet


class Phase(enum.Enum):
    """The three rule phases of §3.2."""

    EXPANSION = "expansion"
    COMPILATION = "compilation"
    OPTIMIZATION = "optimization"


@dataclass(frozen=True)
class PhaseParams:
    """The α/β thresholds of §3.2 (swept in the Fig. 9 experiment)."""

    alpha: float
    beta: float


def cost_differential(model: CostModel, rule: Rewrite) -> float:
    """Definition 3: ``CD(P ~> Q) = C(P) - C(Q)``."""
    return model.term_cost(rule.lhs) - model.term_cost(rule.rhs)


def aggregate_cost(model: CostModel, rule: Rewrite) -> float:
    """Definition 4: ``CA(P ~> Q) = C(P) + C(Q)``."""
    return model.term_cost(rule.lhs) + model.term_cost(rule.rhs)


def assign_phase(
    model: CostModel,
    rule: Rewrite,
    params: PhaseParams,
    costs: tuple[float, float] | None = None,
) -> Phase:
    """The paper's two-step assignment.

    ``costs`` is ``(C(lhs), C(rhs))`` when the caller has already
    computed them; otherwise they are computed here.
    """
    lhs_cost, rhs_cost = costs or (
        model.term_cost(rule.lhs), model.term_cost(rule.rhs)
    )
    if lhs_cost - rhs_cost > params.alpha:
        return Phase.COMPILATION
    if lhs_cost + rhs_cost > params.beta:
        return Phase.EXPANSION
    return Phase.OPTIMIZATION


def default_params(spec: IsaSpec) -> PhaseParams:
    """α/β selected by inspecting the cost model (paper §3.2, §5.5).

    - α must exceed the cost differential of any scalar↔scalar rule; the
      most lopsided such rule erases two scalar operations (e.g.
      ``(neg (neg a)) ~> a``), so take ``2 * max scalar op cost + 1``.
      Compilation rules clear this easily — eliminating a computed
      ``Vec`` lane saves ~``vec_lane_compute_cost``.
    - β must separate scalar rules from vector rules by aggregate cost;
      the cheapest scalar pattern is one scalar op over leaves, so put β
      at ``min scalar op cost + 2 leaves`` (the cost of ``(+ ?a ?b)``),
      which every scalar-containing rule's aggregate strictly exceeds
      while vector↔vector rule aggregates stay below.
    """
    scalar_costs = [i.base_cost for i in spec.scalar_instructions()]
    if not scalar_costs:
        raise ValueError("ISA spec has no scalar instructions")
    alpha = 2.0 * max(scalar_costs) + 1.0
    beta = min(scalar_costs) + 2.0 * spec.leaf_cost
    return PhaseParams(alpha=alpha, beta=beta)


def assign_phases(
    model: CostModel,
    rules: list[Rewrite],
    params: PhaseParams,
) -> PhasedRuleSet:
    """Split candidate rules into the three phases.

    Within each phase, rules are emitted in canonical order: highest
    cost differential first (most general LHS, then name, on ties).
    The saturation runner applies rules in list order, and under
    budget-capped regimes the e-graph's growth trajectory — and so the
    wall-clock to close — depends on that order; making it a function
    of the cost model alone keeps compile behaviour independent of the
    accidental order synthesis or pruning produced the rules in.

    Each rule's side costs ``C(lhs)`` and ``C(rhs)`` are computed
    once, and serve both the α/β test and the sort key.

    When tracing is enabled (see :mod:`repro.obs`) emits an
    ``assign_phases`` span with the α/β thresholds and the rule count
    that landed in each phase.
    """
    from repro.lang.term import term_size

    with current_tracer().span(
        "assign_phases", n_rules=len(rules),
        alpha=params.alpha, beta=params.beta,
    ) as span:
        # Per phase: (sort key, rule), the key being (-CD, size, name).
        keyed: dict[Phase, list] = {phase: [] for phase in Phase}
        for rule in rules:
            costs = model.term_cost(rule.lhs), model.term_cost(rule.rhs)
            key = (-(costs[0] - costs[1]), term_size(rule.lhs), rule.name)
            keyed[assign_phase(model, rule, params, costs)].append(
                (key, rule)
            )
        span.add(
            n_expansion=len(keyed[Phase.EXPANSION]),
            n_compilation=len(keyed[Phase.COMPILATION]),
            n_optimization=len(keyed[Phase.OPTIMIZATION]),
        )

    def canonical(phase: Phase) -> tuple[Rewrite, ...]:
        return tuple(rule for _key, rule in sorted(
            keyed[phase], key=lambda pair: pair[0]
        ))

    return PhasedRuleSet(
        expansion=canonical(Phase.EXPANSION),
        compilation=canonical(Phase.COMPILATION),
        optimization=canonical(Phase.OPTIMIZATION),
        params=params,
    )
