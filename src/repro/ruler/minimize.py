"""Rule-set minimization by derivability (Ruler's shrink step).

Candidates are ordered smallest/most-general-first.  Selection runs in
batches, as Ruler's ``choose_eqs`` does: accept the best few remaining
candidates, then run *one* equality-saturation pass with everything
accepted so far over a single e-graph seeded with the left and right
sides of every remaining candidate (they share structure heavily, so
the graph stays small), and drop each candidate whose sides merged —
it is derivable and adds no deductive power.

Batching makes minimization O(rules/batch) saturation passes instead
of O(candidates), which is what lets a size-5 enumeration (thousands
of candidates) minimize in seconds.

When an ``interpreter`` is supplied, candidates are first screened
through the batched :class:`~repro.ruler.cvec.CvecEvaluator`: a rule
whose sides fingerprint differently on a sample grid is unsound and is
dropped before paying for any saturation pass.  Rules that agree
everywhere always fingerprint equal, so the screen never drops a sound
rule — for already-verified pipeline candidates it is a no-op.
"""

from __future__ import annotations

import time

from repro.egraph.egraph import EGraph
from repro.egraph.rewrite import Rewrite
from repro.egraph.runner import RunnerLimits, run_saturation
from repro.interp.interpreter import EvalError, Interpreter
from repro.lang.pattern import wildcards_of
from repro.ruler.cvec import GridCache
from repro.ruler.stats import SynthesisPerf
from repro.ruler.verify import pattern_to_term

# Filter passes are bounded by iteration/node/match-work budgets (all
# deterministic) rather than wall-clock, so the kept rule set does not
# depend on machine load — time_limit is explicitly infinite.
_FILTER_LIMITS = RunnerLimits(
    max_iterations=3,
    max_nodes=40_000,
    time_limit=float("inf"),
    match_limit=4000,
    ban_length=1,
    match_work=400_000,
)


def is_derivable(
    rule: Rewrite,
    accepted: list[Rewrite],
    limits: RunnerLimits = _FILTER_LIMITS,
) -> bool:
    """True if ``accepted`` proves ``rule.lhs == rule.rhs``."""
    if not accepted:
        return False
    egraph = EGraph()
    lhs = egraph.add_term(pattern_to_term(rule.lhs))
    rhs = egraph.add_term(pattern_to_term(rule.rhs))
    if egraph.equivalent(lhs, rhs):
        return True
    run_saturation(egraph, accepted, limits)
    return egraph.equivalent(lhs, rhs)


def _filter_pass(
    remaining: list[Rewrite],
    accepted: list[Rewrite],
    limits: RunnerLimits,
) -> list[Rewrite]:
    """Drop every remaining candidate the accepted rules now derive."""
    egraph = EGraph()
    seeded = []
    for rule in remaining:
        lhs = egraph.add_term(pattern_to_term(rule.lhs))
        rhs = egraph.add_term(pattern_to_term(rule.rhs))
        seeded.append((lhs, rhs, rule))
    run_saturation(egraph, accepted, limits)
    return [
        rule
        for lhs, rhs, rule in seeded
        if not egraph.equivalent(lhs, rhs)
    ]


def _cvec_screen(
    candidates: list[Rewrite],
    interpreter: Interpreter,
    perf: SynthesisPerf | None,
    n_samples: int = 24,
    seed: int = 97531,
) -> list[Rewrite]:
    """Drop candidates whose sides fingerprint differently (unsound).

    One cached DAG walk per rule side — far cheaper than the
    saturation pass each surviving candidate costs downstream.
    Sample grids (and their evaluators) are shared per wildcard-name
    signature through one :class:`GridCache`: most rules share
    ``(?a, ?b)``-style signatures, so the cache also pools cvec rows
    across rules.
    """
    kept: list[Rewrite] = []
    grids = GridCache(interpreter)
    for rule in candidates:
        names = tuple(
            sorted(
                set(wildcards_of(rule.lhs)) | set(wildcards_of(rule.rhs))
            )
        )
        evaluator = grids.samples(names, n_samples, seed, perf)
        try:
            left = evaluator.fingerprint_of(
                evaluator.row_of(pattern_to_term(rule.lhs))
            )
            right = evaluator.fingerprint_of(
                evaluator.row_of(pattern_to_term(rule.rhs))
            )
        except EvalError:
            kept.append(rule)  # not screenable; let saturation decide
            continue
        if left == right:
            kept.append(rule)
        elif perf is not None:
            perf.minimize_screened += 1
    if perf is not None:
        perf.screen_env_cache_misses += len(grids)
        perf.screen_env_cache_hits += len(candidates) - len(grids)
    return kept


def minimize_rules(
    candidates: list[Rewrite],
    deadline: float | None = None,
    limits: RunnerLimits = _FILTER_LIMITS,
    batch_size: int = 16,
    interpreter: Interpreter | None = None,
    perf: SynthesisPerf | None = None,
) -> tuple[list[Rewrite], bool]:
    """Batched greedy selection of underivable rules.

    Returns ``(kept, aborted)``; hitting ``deadline`` drops the
    not-yet-examined tail (the paper's Fig. 7 behaviour: a short
    offline budget yields a smaller rule set).  With an
    ``interpreter``, unsound candidates are screened out first via the
    batched cvec evaluator.
    """
    kept: list[Rewrite] = []
    remaining = list(candidates)
    if interpreter is not None and remaining:
        remaining = _cvec_screen(remaining, interpreter, perf)
    aborted = False
    while remaining:
        if deadline is not None and time.monotonic() > deadline:
            aborted = True
            break
        batch, remaining = remaining[:batch_size], remaining[batch_size:]
        kept.extend(batch)
        if remaining:
            remaining = _filter_pass(remaining, kept, limits)
    return kept, aborted
