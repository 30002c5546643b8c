"""Regenerate the pregenerated rule sets shipped under repro/data.

Writes both shipped files: ``fusion_g3_rules_full.txt`` (the unpruned
synthesis output) and ``fusion_g3_rules.txt`` (the default — the same
set with cost-dominated rules pruned via :mod:`repro.ruler.cost_prune`).
Deriving the pruned file from the full one keeps the two sets
differential-testable: the pruned set is exactly the full set minus
dominated rules.

Usage: python -m repro.tools.regen_rules [max_term_size]
"""

from __future__ import annotations

import sys
import time

from repro.core.artifact import rules_to_text
from repro.core.pregen import DEFAULT_RULES_FILE
from repro.isa import fusion_g3_spec
from repro.ruler import SynthesisConfig, synthesize_rules
from repro.ruler.cost_prune import cost_prune_rules


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    spec = fusion_g3_spec()
    # The full file always sits next to the default file (tests point
    # DEFAULT_RULES_FILE at a scratch path; both writes must follow).
    full_file = DEFAULT_RULES_FILE.with_name(
        DEFAULT_RULES_FILE.stem + "_full" + DEFAULT_RULES_FILE.suffix
    )
    start = time.time()
    result = synthesize_rules(
        spec, SynthesisConfig(max_term_size=size, cost_prune=False)
    )
    full_header = (
        "Pregenerated Isaria rule set for the fusion-g3 base ISA "
        "(full, unpruned).\n"
        f"Produced by synthesize_rules(SynthesisConfig(max_term_size={size}, "
        "cost_prune=False));\n"
        "regenerate with: python -m repro.tools.regen_rules\n"
        f"single-lane rules: {len(result.single_lane_rules)}; "
        f"full-width rules: {len(result.rules)}"
    )
    full_file.parent.mkdir(parents=True, exist_ok=True)
    full_file.write_text(rules_to_text(result.rules, full_header))
    print(f"wrote {len(result.rules)} rules to {full_file}")

    pruned, report = cost_prune_rules(result.rules, spec)
    pruned_header = (
        "Pregenerated Isaria rule set for the fusion-g3 base ISA "
        "(cost-pruned default).\n"
        f"Derived from {full_file.name} "
        f"(synthesized at max_term_size={size}) by "
        "repro.ruler.cost_prune;\n"
        "regenerate with: python -m repro.tools.regen_rules\n"
        f"kept {report.n_kept} of {report.n_in} rules "
        f"({report.n_dominated} dominated, {report.n_rescued} rescued); "
        f"cost model {report.cost_model_digest}"
    )
    DEFAULT_RULES_FILE.write_text(rules_to_text(pruned, pruned_header))
    print(
        f"wrote {len(pruned)} rules to {DEFAULT_RULES_FILE} "
        f"in {time.time() - start:.0f}s"
    )


if __name__ == "__main__":
    main()
