"""The Compile algorithm (paper Fig. 3).

``compile_term`` vectorizes a scalar program by scheduled equality
saturation:

1. loop: saturate with **expansion** rules, then **compilation** rules
   (each a separate bounded ``EqSat`` call), extract the cheapest
   program, and — if it improved — *prune*: throw the e-graph away and
   restart from the extracted program alone;
2. when extraction stops improving, run one **optimization** phase and
   extract the final program.

Both of the paper's §5.2 ablations are switchable here: ``phased=False``
replaces the schedule with a single saturation over all rules (the
configuration that exhausts memory in the paper), and ``pruning=False``
keeps the e-graph across loop rounds instead of restarting from the
extracted program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.egraph.egraph import EGraph
from repro.egraph.extract import Extractor
from repro.egraph.runner import (
    RunnerLimits,
    RunnerReport,
    SaturationPerf,
)
from repro.lang.term import Term
from repro.obs import current_tracer, merge_counters
from repro.phases.cost import CostModel
from repro.phases.ruleset import PhasedRuleSet

_EPSILON = 1e-9

# The pruning loop stops when a round fails to improve extraction cost
# meaningfully; requiring a small relative improvement avoids burning
# rounds (and EqSat calls) on sub-0.1% scalar tweaks.
_MIN_RELATIVE_GAIN = 0.002


@dataclass(frozen=True)
class CompileOptions:
    """Knobs for one compilation."""

    phased: bool = True
    pruning: bool = True
    max_rounds: int = 8
    # Round index at which the expansion phase starts participating.
    # Round 0 runs compilation rules alone: the front end's aligned
    # chunks lift deterministically, and polluting the e-graph with
    # scalar variants *before* the first lift pass starves the lift
    # chains of match budget (measured: 40x worse extraction).  Later
    # rounds explore variants of the already-vectorized program.
    expansion_start_round: int = 1
    # Expansion explores scalar variants; with hundreds of synthesized
    # rules its match budget must stay small or the e-graph explodes
    # before compilation rules ever run (§2.3).
    expansion_limits: RunnerLimits = RunnerLimits(
        max_iterations=2,
        max_nodes=5_000,
        time_limit=4.0,
        match_limit=100,
        ban_length=1,
        match_work=40_000,
    )
    # Compilation lifts one Vec level per iteration, so deep scalar
    # chains need many *small* iterations: low per-rule match/work
    # budgets keep each iteration fast enough that the chain completes
    # within the time limit.
    compilation_limits: RunnerLimits = RunnerLimits(
        max_iterations=30,
        max_nodes=30_000,
        time_limit=25.0,
        match_limit=80,
        ban_length=3,
        match_work=25_000,
    )
    optimization_limits: RunnerLimits = RunnerLimits(
        max_iterations=6,
        max_nodes=15_000,
        time_limit=8.0,
        match_limit=300,
        ban_length=2,
    )
    # Used only by the phased=False ablation.
    unphased_limits: RunnerLimits = RunnerLimits(
        max_iterations=10, max_nodes=120_000, time_limit=60.0
    )


@dataclass
class RoundReport:
    """One trip around the Fig. 3 loop."""

    index: int
    expansion: RunnerReport | None
    compilation: RunnerReport | None
    extracted_cost: float
    n_nodes: int
    n_classes: int


@dataclass
class PassReport:
    """One pipeline pass's contribution to a compilation.

    ``status`` is ``"ok"`` or ``"skipped"`` (a pass that does not
    apply under the current options still appears, so pass order is
    stable across ablations); ``detail`` carries the pass's own
    structured payload (final cost, instruction counts, ...).
    """

    name: str
    elapsed: float
    status: str = "ok"
    detail: dict = field(default_factory=dict)


@dataclass
class CompileReport:
    """Everything that happened during one compilation."""

    initial_cost: float
    final_cost: float
    rounds: list[RoundReport] = field(default_factory=list)
    optimization: RunnerReport | None = None
    elapsed: float = 0.0
    peak_nodes: int = 0
    # Wall clock spent in minimum-cost extraction, across all rounds.
    extract_time: float = 0.0
    # One entry per pipeline pass, in execution order; their elapsed
    # segments sum to ``elapsed`` (the pipeline accumulates both).
    passes: list[PassReport] = field(default_factory=list)
    # Lane-utilization counters from simulating the compiled program
    # (filled by drivers that run the machine — e.g. CompiledKernel.run
    # and the bench harness; zero until then).
    lanes_issued: int = 0
    lanes_active: int = 0

    @property
    def lane_utilization(self) -> float | None:
        """Active/issued lane ratio, or None before any simulation."""
        if self.lanes_issued == 0:
            return None
        return self.lanes_active / self.lanes_issued

    @property
    def n_eqsat_calls(self) -> int:
        """How many bounded ``EqSat`` runs this compile made."""
        calls = sum(
            (r.expansion is not None) + (r.compilation is not None)
            for r in self.rounds
        )
        return calls + (self.optimization is not None)

    def saturation_perf(self) -> SaturationPerf:
        """Hot-path counters aggregated over every ``EqSat`` call."""
        total = SaturationPerf()
        sats = [s for r in self.rounds for s in (r.expansion, r.compilation)]
        for sat in sats + [self.optimization]:
            if sat is not None:
                merge_counters(total, sat.perf)
        return total

    @property
    def speedup_estimate(self) -> float:
        """Abstract-cost improvement ratio (not measured cycles)."""
        if self.final_cost <= 0:
            return float("inf")
        return self.initial_cost / self.final_cost

    def pass_times(self) -> dict[str, float]:
        """Per-pass elapsed seconds, in pipeline order.

        Skipped passes appear with their (near-zero) timing so the
        keys are stable across ablation options.  The span-level view
        is the ``pass.<name>`` rows of ``repro.tools.trace_report``'s
        per-phase rollup, with ``status`` tallied ``ok`` / ``skipped``.
        """
        return {p.name: p.elapsed for p in self.passes}


def _extract(
    egraph: EGraph, root: int, cost_model: CostModel, report: CompileReport
):
    t0 = time.perf_counter()
    extractor = Extractor(egraph, cost_model)
    result = extractor.best(root)
    report.extract_time += time.perf_counter() - t0
    return result


def compile_term(
    program: Term,
    ruleset: PhasedRuleSet,
    cost_model: CostModel,
    options: CompileOptions | None = None,
) -> tuple[Term, CompileReport]:
    """Vectorize ``program``; returns the compiled term and a report.

    A thin configuration of the pass pipeline (see
    :mod:`repro.compiler.pipeline`): saturate → optimize → extract
    over one shared context.  When tracing is enabled (see
    :mod:`repro.obs`) the compilation emits a ``compile`` span wrapping
    a ``pass.<name>`` child per pipeline pass; the saturate pass nests
    one ``compile.round`` span per trip around the Fig. 3 loop, each
    with ``phase.expansion`` / ``phase.compilation`` spans around their
    ``EqSat`` calls.
    """
    from repro.compiler.pipeline import CompilationContext, term_pipeline

    options = options or CompileOptions()
    tracer = current_tracer()
    with tracer.span(
        "compile", phased=options.phased, pruning=options.pruning
    ) as span:
        ctx = CompilationContext(
            ruleset=ruleset,
            cost_model=cost_model,
            options=options,
            term=program,
        )
        term_pipeline().run(ctx)
        compiled, report = ctx.compiled, ctx.report
        if span.enabled:
            span.add(
                initial_cost=report.initial_cost,
                final_cost=report.final_cost,
                n_rounds=len(report.rounds),
                n_eqsat_calls=report.n_eqsat_calls,
                peak_nodes=report.peak_nodes,
                extract_time=report.extract_time,
            )
    return compiled, report
