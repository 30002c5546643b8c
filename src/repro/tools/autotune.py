"""``repro-autotune``: search saturation schedules from perf data.

The offline half of the adaptive-scheduling loop.  Trace data shows
per-rule costs are heavily skewed (on the quaternion-style workload
two of five rules consume ~60% of match time while merging nothing);
the paper's phased schedule (§5) is a *hand-tuned* answer to the same
problem.  This tool searches the schedule space automatically:

1. **profile** — run each workload under the default backoff schedule
   (or replay a ``REPRO_TRACE`` corpus) and aggregate per-rule match
   time, node visits, and productive unions;
2. **propose** — derive candidate schedule moves: disable rules with
   match cost and zero merges, tighten match budgets / lengthen bans
   for the hottest productive rules, cap phase iterations at the
   observed count;
3. **search** — greedy hill-climbing over those moves with
   random-restart move orders, deterministic under a fixed seed: the
   objective is total matcher *node visits* (a deterministic proxy
   for match time), never wall clock;
4. **validate** — a move is accepted only if every workload's
   extracted cost stays equal-or-better than the default schedule's;
   the final spec is re-validated the same way before it is returned.

The emitted :class:`~repro.egraph.scheduling.ScheduleSpec` can be
saved to a file (consumed via ``REPRO_SCHEDULE``) or attached to a
:class:`~repro.core.artifact.CompilerArtifact` (``--attach``), where
the compile pipeline picks it up for every saturation phase.

    python -m repro.tools.autotune --workload skewed -o schedule.json
    python -m repro.tools.autotune --attach artifact.json --seed 7

(Installed entry point: ``repro-autotune``.)
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.egraph.egraph import EGraph
from repro.egraph.extract import Extractor
from repro.egraph.rewrite import Rewrite, parse_rewrite
from repro.egraph.runner import RunnerLimits, run_saturation
from repro.egraph.scheduling import (
    PhasePolicy,
    RulePolicy,
    ScheduleSpec,
)
from repro.lang.parser import parse, to_sexpr
from repro.obs import current_tracer
from repro.tools.trace_report import has_rule_unions

# Match-budget ladder the search may tighten a hot productive rule to,
# and the ban length it may stretch an overflowing rule to.
_BUDGET_LADDER = (16, 64)
_LONG_BAN = 4

# A rule must carry at least this share of total node visits before
# budget-tightening moves are proposed for it (disables have no floor:
# a zero-merge rule is dead weight at any share).
_HOT_SHARE = 0.10


@dataclass
class TuneWorkload:
    """One replayable saturation workload the tuner measures.

    ``build`` returns a fresh e-graph plus the e-class roots whose
    extracted cost defines the quality bar; ``phase`` names which
    schedule phase the workload's saturation stands for (its phase
    policies apply).  The same 5-tuple of rules/limits/graph runs
    under every candidate schedule, so measurements are comparable.
    """

    name: str
    phase: str
    rules: list
    limits: RunnerLimits
    build: Callable[[], tuple]
    cost_model: object


@dataclass
class Measurement:
    """One workload run under one schedule."""

    workload: str
    elapsed: float
    node_visits: int
    cost: float
    extracted: tuple
    stop_reason: str
    n_iterations: int
    perf: object


@dataclass
class RuleProfile:
    """Aggregated per-rule counters driving move proposal."""

    match_time: dict = field(default_factory=dict)
    node_visits: dict = field(default_factory=dict)
    unions: dict = field(default_factory=dict)
    iterations: int = 0

    def absorb_perf(self, perf, n_iterations: int = 0) -> None:
        """Fold one run's ``SaturationPerf`` counters into this."""
        for name, t in perf.rule_match_time.items():
            self.match_time[name] = self.match_time.get(name, 0.0) + t
        for name, n in perf.rule_node_visits.items():
            self.node_visits[name] = self.node_visits.get(name, 0) + n
        for name, n in perf.rule_unions.items():
            self.unions[name] = self.unions.get(name, 0) + n
        self.iterations = max(self.iterations, n_iterations)

    @classmethod
    def from_trace_events(cls, events: list) -> "RuleProfile":
        """Aggregate a ``REPRO_TRACE`` JSONL corpus into a profile.

        Reads the per-rule counters off every ``eqsat`` span; merges
        are taken from ``rule_unions`` payloads, and reconstructed from
        ``eqsat.iteration`` ``applied`` maps (which count the same
        merges again) only for traces recorded before that counter
        existed.
        """
        profile = cls()
        from_applied = not has_rule_unions(events)
        for event in events:
            attrs = event.get("attrs", {})
            for name, t in (attrs.get("rule_match_time") or {}).items():
                profile.match_time[name] = (
                    profile.match_time.get(name, 0.0) + t
                )
            for name, n in (attrs.get("rule_node_visits") or {}).items():
                profile.node_visits[name] = (
                    profile.node_visits.get(name, 0) + n
                )
            for name, n in (attrs.get("rule_unions") or {}).items():
                profile.unions[name] = profile.unions.get(name, 0) + n
            if from_applied and event.get("name") == "eqsat.iteration":
                for name, n in (attrs.get("applied") or {}).items():
                    profile.unions[name] = (
                        profile.unions.get(name, 0) + n
                    )

    # from_trace_events intentionally tolerates rule names appearing
    # in only some maps: a rule with match time but no recorded unions
    # is exactly the disable candidate the tuner looks for.

        return profile

    def table(self) -> str:
        """Human-readable profile: rules ranked by match-time share."""
        total = sum(self.match_time.values()) or 1.0
        lines = [
            f"{'share':>7}  {'match time':>11}  {'visits':>10}  "
            f"{'merges':>8}  rule"
        ]
        lines.append("-" * 60)
        for name, t in sorted(
            self.match_time.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append(
                f"{t / total:>6.1%}  {t * 1e3:>9.1f}ms"
                f"  {self.node_visits.get(name, 0):>10}"
                f"  {self.unions.get(name, 0):>8}  {name}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Move:
    """One candidate schedule mutation the search may apply."""

    description: str
    apply: Callable[[ScheduleSpec], ScheduleSpec]


@dataclass
class AutotuneResult:
    """What one autotune run produced."""

    spec: ScheduleSpec
    baseline: list
    tuned: list
    decisions: list
    seed: int

    @property
    def visit_reduction(self) -> float:
        """Baseline/tuned ratio of total matcher node visits."""
        before = sum(m.node_visits for m in self.baseline)
        after = sum(m.node_visits for m in self.tuned)
        return before / after if after else float("inf")

    def summary(self) -> str:
        """One-paragraph human description of the tuned schedule."""
        before = sum(m.elapsed for m in self.baseline)
        after = sum(m.elapsed for m in self.tuned)
        lines = [
            f"tuned schedule: {self.spec.summary()}",
            f"  node visits: {self.visit_reduction:.2f}x fewer "
            f"({sum(m.node_visits for m in self.baseline)} -> "
            f"{sum(m.node_visits for m in self.tuned)})",
            f"  saturation time: {before:.3f}s -> {after:.3f}s "
            "(informational; the search objective is visits)",
        ]
        for decision in self.decisions:
            lines.append(f"  + {decision}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure(
    workload: TuneWorkload, spec: ScheduleSpec | None = None
) -> Measurement:
    """Run ``workload`` under ``spec`` (None → default backoff).

    Rebuilds the graph from scratch, saturates, and extracts the
    cheapest term per root — so cost comparisons between schedules are
    end-to-end, not proxy-based.
    """
    egraph, roots = workload.build()
    limits = workload.limits
    scheduler = None
    if spec is not None:
        limits = spec.limits_for(workload.phase, limits)
        scheduler = spec.scheduler_for(workload.phase, limits)
    t0 = time.perf_counter()
    report = run_saturation(
        egraph, workload.rules, limits, scheduler=scheduler
    )
    elapsed = time.perf_counter() - t0
    extractor = Extractor(egraph, workload.cost_model)
    cost = 0.0
    extracted = []
    for root in roots:
        best_cost, term = extractor.best(egraph.find(root))
        cost += best_cost
        extracted.append(to_sexpr(term))
    return Measurement(
        workload=workload.name,
        elapsed=elapsed,
        node_visits=report.perf.node_visits,
        cost=cost,
        extracted=tuple(extracted),
        stop_reason=report.stop_reason.value,
        n_iterations=report.n_iterations,
        perf=report.perf,
    )


def profile_workloads(workloads: list) -> tuple[RuleProfile, list]:
    """Default-schedule profile + baseline measurements per workload."""
    profile = RuleProfile()
    baseline = []
    for workload in workloads:
        m = measure(workload, None)
        baseline.append(m)
        profile.absorb_perf(m.perf, m.n_iterations)
    return profile, baseline


# ---------------------------------------------------------------------------
# move proposal
# ---------------------------------------------------------------------------


def candidate_moves(
    profile: RuleProfile, workloads: list
) -> list[Move]:
    """The deterministic move list the search explores, in rank order.

    Disables come first (largest match-time savings), then budget
    tightening and ban stretching for hot productive rules, then
    phase iteration caps.  Order matters only for the plain greedy
    pass — restarts shuffle it.
    """
    moves: list[Move] = []
    total_visits = sum(profile.node_visits.values()) or 1
    # Rank by node visits, never wall time: the move list (and with it
    # every decision description) must be identical across runs.
    seen = set(profile.node_visits) | set(profile.match_time)
    by_cost = sorted(
        seen, key=lambda n: (-profile.node_visits.get(n, 0), n)
    )
    for name in by_cost:
        merges = profile.unions.get(name, 0)
        visits = profile.node_visits.get(name, 0)
        if profile.match_time.get(name, 0.0) <= 0.0 and visits <= 0:
            continue
        if merges == 0:
            moves.append(
                Move(
                    f"disable {name} (zero merges, "
                    f"{visits} node visits)",
                    _rule_move(name, RulePolicy(disabled=True)),
                )
            )
    for name in by_cost:
        merges = profile.unions.get(name, 0)
        visits = profile.node_visits.get(name, 0)
        if merges == 0 or visits / total_visits < _HOT_SHARE:
            continue
        for budget in _BUDGET_LADDER:
            moves.append(
                Move(
                    f"cap {name} at {budget} matches/iteration",
                    _rule_move(name, RulePolicy(match_limit=budget)),
                )
            )
        moves.append(
            Move(
                f"stretch {name} ban to {_LONG_BAN} iterations",
                _rule_move(name, RulePolicy(ban_length=_LONG_BAN)),
            )
        )
    for workload in workloads:
        observed = profile.iterations
        if 0 < observed < workload.limits.max_iterations:
            moves.append(
                Move(
                    f"cap {workload.phase} phase at {observed} "
                    "iterations (observed maximum)",
                    _phase_move(
                        workload.phase,
                        PhasePolicy(max_iterations=observed),
                    ),
                )
            )
    return moves


def _rule_move(name: str, policy: RulePolicy):
    def apply(spec: ScheduleSpec) -> ScheduleSpec:
        return spec.with_rule(name, policy)

    return apply


def _phase_move(phase: str, policy: PhasePolicy):
    def apply(spec: ScheduleSpec) -> ScheduleSpec:
        return spec.with_phase(phase, policy)

    return apply


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _evaluate(
    workloads: list, spec: ScheduleSpec, baseline: list
) -> tuple[int, bool, list]:
    """(total visits, cost-parity-holds, measurements) for one spec."""
    measurements = [measure(w, spec) for w in workloads]
    visits = sum(m.node_visits for m in measurements)
    ok = all(
        m.cost <= b.cost for m, b in zip(measurements, baseline)
    )
    return visits, ok, measurements


def autotune(
    workloads: list,
    seed: int = 0,
    restarts: int = 2,
    profile: RuleProfile | None = None,
) -> AutotuneResult:
    """Search a :class:`ScheduleSpec` for ``workloads``.

    Greedy first-improvement over :func:`candidate_moves`, restarted
    ``restarts`` times with seed-derived move orders; the best spec by
    total node visits wins (ties broken by serialized form, so the
    result is a pure function of workloads and ``seed``).  Every
    accepted move — and the final spec — must keep each workload's
    extracted cost equal-or-better than the default schedule's.

    ``profile`` replaces the profiling run (e.g. one built by
    :meth:`RuleProfile.from_trace_events` from a trace corpus);
    baseline measurements are always taken fresh, since validation
    needs them.
    """
    with current_tracer().span(
        "autotune", n_workloads=len(workloads), seed=seed
    ) as span:
        measured_profile, baseline = profile_workloads(workloads)
        if profile is None:
            profile = measured_profile
        moves = candidate_moves(profile, workloads)
        baseline_visits = sum(m.node_visits for m in baseline)

        best: tuple | None = None  # (visits, spec_json, spec, decisions)
        for restart in range(max(1, restarts)):
            order = list(moves)
            if restart:
                random.Random(seed * 9973 + restart).shuffle(order)
            spec = ScheduleSpec()
            visits = baseline_visits
            decisions: list[str] = []
            improved = True
            while improved:
                improved = False
                for move in order:
                    candidate = move.apply(spec)
                    if candidate.to_dict() == spec.to_dict():
                        continue
                    cand_visits, ok, _ = _evaluate(
                        workloads, candidate, baseline
                    )
                    if ok and cand_visits < visits:
                        spec, visits = candidate, cand_visits
                        decisions.append(move.description)
                        improved = True
            key = (visits, spec.to_json())
            if best is None or key < (best[0], best[1]):
                best = (visits, spec.to_json(), spec, decisions)

        spec, decisions = best[2], best[3]
        names = ",".join(w.name for w in workloads)
        spec = ScheduleSpec(
            rules=spec.rules,
            phases=spec.phases,
            note=f"autotuned seed={seed} workloads={names}",
        )
        # Final validation: the emitted spec must never worsen
        # extracted cost on its own validation set.
        _, ok, tuned = _evaluate(workloads, spec, baseline)
        if not ok:
            raise AssertionError(
                "autotuned schedule worsened extracted cost on the "
                "validation set — refusing to emit it"
            )
        if span.enabled:
            span.add(
                n_moves=len(moves),
                n_accepted=len(decisions),
                baseline_visits=baseline_visits,
                tuned_visits=sum(m.node_visits for m in tuned),
            )
        return AutotuneResult(
            spec=spec,
            baseline=baseline,
            tuned=tuned,
            decisions=decisions,
            seed=seed,
        )


# ---------------------------------------------------------------------------
# the bundled workload corpus
# ---------------------------------------------------------------------------


def skewed_workload(
    n_plus: int = 400, n_mul: int = 60, n_vec: int = 40,
    n_driver: int = 10,
) -> TuneWorkload:
    """The quaternion-style skewed corpus (BENCH_saturation's shape).

    One very wide ``+`` e-class that several fail-late rules scan in
    full every iteration without ever matching, plus a cheap driver
    rule that keeps iterations coming.  The pathological case the
    tuner exists for: most match time buys zero merges.
    """
    from repro.isa import fusion_g3_spec
    from repro.phases.cost import CostModel

    rules = [
        parse_rewrite("drive-comm", "(- ?a ?b) => (- ?b ?a)"),
        parse_rewrite(
            "mul-lift",
            "(* (+ ?a ?b) (+ ?c ?d)) => (* (+ ?b ?a) (+ ?d ?c))",
        ),
        parse_rewrite(
            "mul-lift-flip",
            "(* (+ ?a ?b) (+ ?c ?d)) => (* (+ ?d ?c) (+ ?b ?a))",
        ),
        parse_rewrite("mul-sq", "(* (+ ?a ?a) ?c) => (* ?c (+ ?a ?a))"),
        parse_rewrite(
            "vec-sq",
            "(Vec (+ ?a ?a) ?b ?c ?d) => (Vec (+ ?a ?a) ?d ?c ?b)",
        ),
    ]

    def build():
        g = EGraph()
        plus = g.add_term(parse("(+ (Get a 0) (Get b 0))"))
        for i in range(1, n_plus):
            g.union(
                plus, g.add_term(parse(f"(+ (Get a {i}) (Get b {i}))"))
            )
        mul = g.add_term(parse("(* (+ (Get a 0) (Get b 0)) (Get k 0))"))
        for i in range(1, n_mul):
            g.union(mul, g.add_term(parse(
                f"(* (+ (Get a {i}) (Get b {i})) (Get k {i}))"
            )))
        vec = g.add_term(parse(
            "(Vec (+ (Get a 0) (Get b 0)) (Get c 0) (Get d 0) (Get e 0))"
        ))
        for i in range(1, n_vec):
            g.union(vec, g.add_term(parse(
                f"(Vec (+ (Get a {i}) (Get b {i})) "
                f"(Get c {i}) (Get d {i}) (Get e {i}))"
            )))
        for i in range(n_driver):
            g.add_term(parse(f"(- (Get p {i}) (Get q {i}))"))
        g.rebuild()
        return g, [mul, vec]

    return TuneWorkload(
        name="skewed",
        phase="unphased",
        rules=rules,
        limits=RunnerLimits(
            max_iterations=10,
            max_nodes=10**9,
            time_limit=120.0,
            match_limit=10**9,
            match_work=10**9,
        ),
        build=build,
        cost_model=CostModel(fusion_g3_spec()),
    )


def chain_workload(depth: int = 7) -> TuneWorkload:
    """Assoc/comm explosion on a sum chain: every rule is productive.

    The backoff-tuning (rather than disabling) case — the tuner may
    tighten budgets or stretch bans, but cost parity forces it to keep
    the closure rich enough that extraction stays optimal.
    """
    from repro.isa import fusion_g3_spec
    from repro.phases.cost import CostModel

    rules = [
        parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)"),
        parse_rewrite("assoc", "(+ (+ ?a ?b) ?c) => (+ ?a (+ ?b ?c))"),
    ]

    def build():
        g = EGraph()
        term = "(Get x 0)"
        for i in range(1, depth):
            term = f"(+ {term} (Get x {i}))"
        root = g.add_term(parse(term))
        g.rebuild()
        return g, [root]

    return TuneWorkload(
        name="chain",
        phase="unphased",
        rules=rules,
        limits=RunnerLimits(
            max_iterations=8,
            max_nodes=50_000,
            time_limit=60.0,
            match_limit=400,
            ban_length=2,
        ),
        build=build,
        cost_model=CostModel(fusion_g3_spec()),
    )


#: Named workloads the CLI can tune against.
WORKLOADS: dict[str, Callable[[], TuneWorkload]] = {
    "skewed": skewed_workload,
    "chain": chain_workload,
}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-autotune`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-autotune", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="corpus workload to tune against (repeatable; "
        "default: skewed)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="search seed (the result is deterministic per seed)",
    )
    parser.add_argument(
        "--restarts", type=int, default=2,
        help="random-restart move orders to try (default: 2)",
    )
    parser.add_argument(
        "--trace", type=Path, default=None,
        help="REPRO_TRACE JSONL corpus to profile from instead of a "
        "fresh profiling run",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the tuned ScheduleSpec JSON here",
    )
    parser.add_argument(
        "--attach", type=Path, default=None,
        help="compiler artifact file to embed the tuned schedule into",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    workloads = [
        WORKLOADS[name]() for name in (args.workload or ["skewed"])
    ]

    profile = None
    if args.trace is not None:
        from repro.tools.trace_report import load_events

        try:
            profile = RuleProfile.from_trace_events(
                load_events(args.trace)
            )
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"== profile (from {args.trace}) ==")
    else:
        print("== profile (fresh run, default schedule) ==")

    result = autotune(
        workloads,
        seed=args.seed,
        restarts=args.restarts,
        profile=profile,
    )
    shown = profile
    if shown is None:
        shown = RuleProfile()
        for m in result.baseline:
            shown.absorb_perf(m.perf, m.n_iterations)
    print(shown.table())
    print()
    print(result.summary())

    if args.output is not None:
        path = result.spec.save(args.output)
        print(f"wrote {path}")
    if args.attach is not None:
        import dataclasses as _dc

        from repro.core.artifact import ARTIFACT_VERSION, CompilerArtifact

        artifact = CompilerArtifact.load(args.attach)
        artifact = _dc.replace(
            artifact, schedule=result.spec, version=ARTIFACT_VERSION
        )
        artifact.save(args.attach)
        print(f"attached schedule to {args.attach}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
