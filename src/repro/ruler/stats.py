"""Statistics over rule sets and the offline synthesis hot path.

Used by the inspection tooling (the synthesis-tour example, Fig. 8's
bench) to answer "what did synthesis actually learn?": operator
coverage, rule-shape histograms, and per-operator rule counts.  Also
home of :class:`SynthesisPerf`, the offline-stage counter block that
``synthesize_rules`` folds into its result and tracer spans — the
synthesis-side sibling of the saturation engine's ``SaturationPerf``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.egraph.rewrite import Rewrite
from repro.lang.ops import LEAF_OPS
from repro.lang.term import subterms, term_size


@dataclass
class SynthesisPerf:
    """Counters for the offline synthesis hot path.

    Filled in by :mod:`repro.ruler.enumerate` (batched cvec
    evaluation), :mod:`repro.ruler.verify` (batched fuzzing) and
    :mod:`repro.ruler.minimize` (cvec screening); merged across
    enumeration shards and verify chunks with
    :func:`repro.obs.merge_counters`.
    """

    # Batched-evaluator counters (see repro.ruler.cvec.CvecEvaluator).
    batched_evals: int = 0        # rows computed by one root-op application
    cvec_cache_hits: int = 0      # child rows served from the cvec cache
    cvec_cache_misses: int = 0    # rows that had to be computed
    fingerprint_collisions: int = 0  # interned fingerprint seen before
    interned_fingerprints: int = 0   # distinct fingerprints interned
    # Pipeline-stage counters.
    enumeration_shards: int = 0   # parallel shards of the largest size
    verify_batched_terms: int = 0  # rule sides evaluated batched
    # Rule sides whose batched rows raised, so they fell back to one
    # tree walk per environment (see repro.ruler.cvec.side_values).
    verify_legacy_terms: int = 0
    minimize_screened: int = 0     # rules dropped by the cvec screen
    screen_env_cache_hits: int = 0   # cvec screens reusing a cached evaluator
    screen_env_cache_misses: int = 0  # wildcard signatures needing fresh envs
    costprune_dominated: int = 0   # rules dropped as cost-dominated
    costprune_rescued: int = 0     # dominated instsel rules rescued back
    # Per-term-size enumeration breakdown (size -> value).
    per_size_times: dict = field(default_factory=dict)
    per_size_terms: dict = field(default_factory=dict)
    per_size_new: dict = field(default_factory=dict)


def ops_used(rules: list[Rewrite]) -> Counter:
    """How many rules mention each (non-leaf) operator."""
    counts: Counter = Counter()
    for rule in rules:
        mentioned = set()
        for side in (rule.lhs, rule.rhs):
            for sub in subterms(side):
                if sub.op not in LEAF_OPS:
                    mentioned.add(sub.op)
        counts.update(mentioned)
    return counts


def size_histogram(rules: list[Rewrite], bins=(4, 8, 12, 20)) -> dict:
    """Rules bucketed by total pattern size (lhs + rhs nodes)."""
    labels = []
    lower = 0
    for upper in bins:
        labels.append(f"{lower + 1}-{upper}")
        lower = upper
    labels.append(f">{bins[-1]}")
    histogram = {label: 0 for label in labels}
    for rule in rules:
        size = term_size(rule.lhs) + term_size(rule.rhs)
        for upper, label in zip(bins, labels):
            if size <= upper:
                histogram[label] += 1
                break
        else:
            histogram[labels[-1]] += 1
    return histogram


def coverage_gaps(rules: list[Rewrite], spec) -> list[str]:
    """ISA instructions no rule mentions (likely synthesis gaps)."""
    used = ops_used(rules)
    return [
        instr.name
        for instr in spec.instructions
        if instr.name not in used
    ]


def summarize(rules: list[Rewrite], spec=None) -> str:
    """A multi-line human-readable rule-set summary."""
    lines = [f"{len(rules)} rules"]
    histogram = size_histogram(rules)
    lines.append(
        "sizes: "
        + ", ".join(f"{k}: {v}" for k, v in histogram.items())
    )
    top = ops_used(rules).most_common(8)
    lines.append(
        "top operators: "
        + ", ".join(f"{op} ({n})" for op, n in top)
    )
    if spec is not None:
        gaps = coverage_gaps(rules, spec)
        lines.append(
            "uncovered instructions: "
            + (", ".join(gaps) if gaps else "none")
        )
    return "\n".join(lines)
