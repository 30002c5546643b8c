"""The size-4 fusion-g3 synthesis, pinned.

Enumeration, candidate extraction, verification, cost pruning,
minimization and lane generalization together decide which rules the
offline stage ships.  These figures and the rule-text digest are the
record of that output: a change that moves any of them changes the
synthesized compiler, and must update the record on purpose.
"""

import hashlib

from repro.core.artifact import rules_to_text

RULES_SHA256 = (
    "8418ccdf920cd8e255bb6aef83207c1fca8cb3e3768d07975ba330d8cab632d7"
)


class TestSize4SynthesisRecord:
    def test_stage_counts(self, synthesis_size4):
        result = synthesis_size4
        assert result.n_enumerated == 1693
        assert result.n_representatives == 345
        assert result.n_candidates == 878
        assert result.n_verified == 878

    def test_rule_counts(self, synthesis_size4):
        assert len(synthesis_size4.single_lane_rules) == 176
        assert len(synthesis_size4.rules) == 252

    def test_rule_text_digest(self, synthesis_size4):
        text = rules_to_text(synthesis_size4.rules)
        assert hashlib.sha256(text.encode()).hexdigest() == RULES_SHA256
