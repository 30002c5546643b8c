"""The end-to-end rule synthesis pipeline (paper Fig. 2, offline part).

``synthesize_rules`` runs: single-lane term enumeration → cvec
candidate pairs → orientation → soundness verification → derivability
minimization → vector lane generalization.  The whole pipeline honours
a wall-clock budget (the independent variable of the Fig. 7
experiment): when time runs out mid-stage, later candidates are simply
dropped, yielding a smaller — but still sound — rule set.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from repro.egraph.rewrite import Rewrite
from repro.isa.spec import IsaSpec
from repro.obs import current_tracer
from repro.ruler.candidates import candidate_rules
from repro.ruler.cost_prune import cost_prune_rules
from repro.ruler.cvec import CvecSpec, GridCache
from repro.ruler.enumerate import enumerate_terms
from repro.ruler.lanes import GeneralizationReport, generalize_rules
from repro.ruler.minimize import minimize_rules
from repro.ruler.stats import SynthesisPerf
from repro.ruler.verify import verify_rule


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs for one offline synthesis run."""

    max_term_size: int = 5
    variables: tuple[str, ...] = ("a", "b", "c")
    constants: tuple = (0, 1)
    n_cvec_random: int = 24
    cvec_seed: int = 0
    n_verify_samples: int = 48
    verify_seed: int = 12345
    time_budget: float | None = None  # seconds; None = unbounded
    minimize: bool = True
    # Cost-aware dominated-rule pruning (repro.ruler.cost_prune): drop
    # verified candidates an equal-or-more-general kept rule already
    # beats on cost delta, before and after lane generalization.
    cost_prune: bool = True
    # Restrict enumeration to these operators (None = all).  Used for
    # focused incremental synthesis around custom instructions, where
    # the interesting rules need size-6 terms that are intractable to
    # enumerate over the full instruction set.
    op_allowlist: tuple | None = None

    @staticmethod
    def budgeted(seconds: float) -> "SynthesisConfig":
        """A config scaled to a Fig. 7-style offline budget.

        Small budgets enumerate shallower terms — the same trade the
        paper makes when cutting rule generation from a day to minutes.
        """
        if seconds < 5:
            size = 3
        elif seconds < 30:
            size = 4
        else:
            size = 5
        return SynthesisConfig(max_term_size=size, time_budget=seconds)


@dataclass
class SynthesisResult:
    """Everything the offline stage produced."""

    rules: list[Rewrite]
    single_lane_rules: list[Rewrite]
    n_enumerated: int = 0
    n_representatives: int = 0
    n_pairs: int = 0
    n_candidates: int = 0
    n_verified: int = 0
    n_unsound: int = 0
    generalization: GeneralizationReport | None = None
    # Dominance-pruning provenance: {"single_lane": {...},
    # "full_width": {...}} CostPruneReport dicts, or None when
    # ``SynthesisConfig.cost_prune`` disabled the stage.
    pruning: dict | None = None
    elapsed: float = 0.0
    aborted: bool = False
    stage_times: dict = field(default_factory=dict)
    perf: SynthesisPerf = field(default_factory=SynthesisPerf)


def synthesize_rules(
    spec: IsaSpec, config: SynthesisConfig | None = None
) -> SynthesisResult:
    """Run the full offline pipeline against ``spec``.

    When tracing is enabled (see :mod:`repro.obs`) the run emits a
    ``synthesize`` span with one ``synthesize.<stage>`` child per
    pipeline stage, each carrying that stage's candidate counts.
    """
    config = config or SynthesisConfig()
    tracer = current_tracer()
    with tracer.span(
        "synthesize", max_term_size=config.max_term_size,
        time_budget=config.time_budget,
    ) as span:
        result = _synthesize_rules(spec, config, tracer)
        if span.enabled:
            span.add(
                n_enumerated=result.n_enumerated,
                n_pairs=result.n_pairs,
                n_candidates=result.n_candidates,
                n_verified=result.n_verified,
                n_unsound=result.n_unsound,
                n_rules=len(result.rules),
                aborted=result.aborted,
            )
    return result


def _synthesize_rules(
    spec: IsaSpec, config: SynthesisConfig, tracer
) -> SynthesisResult:
    start = time.monotonic()
    deadline = (
        start + config.time_budget if config.time_budget is not None else None
    )
    stage_times: dict[str, float] = {}
    perf = SynthesisPerf()

    # 1. Enumerate single-lane terms, deduplicated by cvec.
    t0 = time.monotonic()
    cvec_spec = CvecSpec.make(
        config.variables,
        n_random=config.n_cvec_random,
        seed=config.cvec_seed,
    )
    enumeration = enumerate_terms(
        spec,
        cvec_spec,
        max_size=config.max_term_size,
        constants=config.constants,
        deadline=deadline,
        op_allowlist=config.op_allowlist,
        perf=perf,
    )
    stage_times["enumerate"] = time.monotonic() - t0
    if tracer.enabled:
        tracer.record(
            "synthesize.enumerate", stage_times["enumerate"],
            n_enumerated=enumeration.n_enumerated,
            n_representatives=enumeration.n_representatives,
            n_pairs=len(enumeration.pairs),
            aborted=enumeration.aborted,
            size_times={
                str(k): v for k, v in sorted(perf.per_size_times.items())
            },
            size_terms={
                str(k): v for k, v in sorted(perf.per_size_terms.items())
            },
            size_new={
                str(k): v for k, v in sorted(perf.per_size_new.items())
            },
        )

    # 2. Orient cvec-equal pairs into directed candidates.
    t0 = time.monotonic()
    candidates = candidate_rules(enumeration.pairs)
    stage_times["candidates"] = time.monotonic() - t0
    if tracer.enabled:
        tracer.record(
            "synthesize.candidates", stage_times["candidates"],
            n_candidates=len(candidates),
        )

    # 3. Verify soundness (exact where possible, fuzz otherwise), in
    # candidate order, checking the deadline before each candidate.
    # Checks with one signature share a sample grid through one cache.
    t0 = time.monotonic()
    verified: list[Rewrite] = []
    n_unsound = 0
    aborted = enumeration.aborted
    grids = GridCache(spec.interpreter())
    for rule in candidates:
        if deadline is not None and time.monotonic() > deadline:
            aborted = True
            break
        if verify_rule(
            rule.lhs,
            rule.rhs,
            spec,
            n_samples=config.n_verify_samples,
            seed=config.verify_seed,
            perf=perf,
            grids=grids,
        ).ok:
            verified.append(rule)
        else:
            n_unsound += 1
    grids.clear()  # the stage's rows are dead weight from here on
    stage_times["verify"] = time.monotonic() - t0
    if tracer.enabled:
        tracer.record(
            "synthesize.verify", stage_times["verify"],
            n_verified=len(verified), n_unsound=n_unsound,
            batched_terms=perf.verify_batched_terms,
            legacy_terms=perf.verify_legacy_terms,
        )

    # 4. Cost-aware dominated-rule pruning (Daly et al.), then the
    # derivability shrink.  Pruning is a stable filter: survivors keep
    # candidate order so orientation pairs (L => R next to R => L)
    # stay adjacent — minimize's greedy batches only spare rules that
    # share a batch, and splitting a pair lets the equivalence-based
    # derivability check drop the generative orientation.
    pruning: dict | None = None
    if config.cost_prune:
        t0 = time.monotonic()
        pruned, prune_report = cost_prune_rules(verified, spec, perf=perf)
        pruning = {"single_lane": asdict(prune_report)}
        stage_times["cost_prune"] = time.monotonic() - t0
        if tracer.enabled:
            tracer.record(
                "synthesize.cost_prune", stage_times["cost_prune"],
                n_in=prune_report.n_in, n_kept=prune_report.n_kept,
                n_dominated=prune_report.n_dominated,
                n_rescued=prune_report.n_rescued,
            )
    else:
        pruned = verified

    t0 = time.monotonic()
    if config.minimize:
        kept, min_aborted = minimize_rules(
            pruned,
            deadline=deadline,
            interpreter=spec.interpreter(),
            perf=perf,
        )
        aborted = aborted or min_aborted
    else:
        kept = pruned
    stage_times["minimize"] = time.monotonic() - t0
    if tracer.enabled:
        tracer.record(
            "synthesize.minimize", stage_times["minimize"],
            n_in=len(pruned), n_kept=len(kept),
            n_screened=perf.minimize_screened,
        )

    # 5. Lane generalization to full vector width.  Generalization
    # re-stamps lane-count variants of every kept rule, recreating
    # dominated patterns at full width, so the pruned path prunes
    # again after it.
    t0 = time.monotonic()
    full_width, gen_report = generalize_rules(kept, spec, perf=perf)
    if config.cost_prune:
        full_width, full_report = cost_prune_rules(
            full_width, spec, perf=perf
        )
        pruning["full_width"] = asdict(full_report)
    stage_times["generalize"] = time.monotonic() - t0
    if tracer.enabled:
        tracer.record(
            "synthesize.generalize", stage_times["generalize"],
            n_in=len(kept), n_rules=len(full_width),
        )

    return SynthesisResult(
        rules=full_width,
        single_lane_rules=kept,
        n_enumerated=enumeration.n_enumerated,
        n_representatives=enumeration.n_representatives,
        n_pairs=len(enumeration.pairs),
        n_candidates=len(candidates),
        n_verified=len(verified),
        n_unsound=n_unsound,
        generalization=gen_report,
        pruning=pruning,
        elapsed=time.monotonic() - start,
        aborted=aborted,
        stage_times=stage_times,
        perf=perf,
    )
