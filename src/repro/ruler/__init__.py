"""Rewrite-rule synthesis: an extended Ruler (paper §3.1).

Reimplements the Ruler pipeline (Nandi et al., OOPSLA 2021) that Isaria
builds on, plus Isaria's vector-lane extension:

1. :mod:`repro.ruler.enumerate` — enumerate terms over the *single-lane
   reduction* of the ISA (vector instructions applied to scalars),
   deduplicated by characteristic vector;
2. :mod:`repro.ruler.cvec` — characteristic vectors: fingerprints of a
   term's behaviour on corner-case + random inputs;
3. :mod:`repro.ruler.candidates` — candidate rules from cvec
   collisions, oriented in every wildcard-sound direction;
4. :mod:`repro.ruler.verify` — soundness checking: exact multivariate
   rational-function normalization for the polynomial fragment, and
   high-volume fuzzing (undefinedness-exact) for the rest — our
   offline substitute for Ruler's SMT backend;
5. :mod:`repro.ruler.cost_prune` — cost-aware dominated-rule pruning
   (Daly et al.): drop rules an equal-or-more-general kept rule
   already beats on cost delta, with a derivability rescue so the
   survivors still derive everything dropped;
6. :mod:`repro.ruler.minimize` — shrink the rule set by dropping
   candidates derivable from already-accepted rules via bounded
   equality saturation;
7. :mod:`repro.ruler.lanes` — Isaria's vector lane generalization:
   re-expand single-lane rules to full width as scalar rules,
   vector↔vector rules, Vec *lift* (compilation) rules, and
   lane-restricted padding rules, each re-verified at full width;
8. :mod:`repro.ruler.synthesize` — the budgeted end-to-end pipeline.

The hot path computes cvecs with the batched, caching
:class:`~repro.ruler.cvec.CvecEvaluator`, and
:class:`~repro.ruler.stats.SynthesisPerf` counts what it did.
"""

from repro.ruler.cvec import CvecEvaluator, CvecSpec
from repro.ruler.enumerate import enumerate_terms, EnumerationResult
from repro.ruler.candidates import candidate_rules, orient_pair
from repro.ruler.cost_prune import (
    CostPruneReport,
    cost_model_digest,
    cost_prune_rules,
    lhs_subsumes,
    rule_delta,
)
from repro.ruler.verify import verify_rule, VerifyResult
from repro.ruler.minimize import minimize_rules
from repro.ruler.stats import SynthesisPerf
from repro.ruler.lanes import generalize_rules
from repro.ruler.synthesize import (
    SynthesisConfig,
    SynthesisResult,
    synthesize_rules,
)

__all__ = [
    "CvecEvaluator",
    "CvecSpec",
    "enumerate_terms",
    "EnumerationResult",
    "candidate_rules",
    "orient_pair",
    "verify_rule",
    "VerifyResult",
    "CostPruneReport",
    "cost_model_digest",
    "cost_prune_rules",
    "lhs_subsumes",
    "rule_delta",
    "minimize_rules",
    "SynthesisPerf",
    "generalize_rules",
    "SynthesisConfig",
    "SynthesisResult",
    "synthesize_rules",
]
