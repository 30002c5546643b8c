"""Unit tests for rule serialization, caching, and pregen loading."""

import pytest

from repro.core.artifact import (
    rules_from_text,
    rules_to_text,
    spec_fingerprint,
)
from repro.core.pregen import DEFAULT_RULES_FILE, load_pregenerated_rules
from repro.egraph.rewrite import parse_rewrite
from repro.isa import customized_spec
from repro.ruler import SynthesisConfig


@pytest.fixture
def sample_rules():
    return [
        parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)"),
        parse_rewrite(
            "lift",
            "(Vec (+ ?a0 ?b0) (+ ?a1 ?b1) (+ ?a2 ?b2) (+ ?a3 ?b3)) => "
            "(VecAdd (Vec ?a0 ?a1 ?a2 ?a3) (Vec ?b0 ?b1 ?b2 ?b3))",
        ),
        parse_rewrite("fold", "(* 0.5 2) => 1"),
    ]


class TestSerialization:
    def test_roundtrip(self, sample_rules):
        text = rules_to_text(sample_rules, header="demo\ntwo lines")
        parsed = rules_from_text(text)
        assert [str(r) for r in parsed] == [str(r) for r in sample_rules]
        assert [r.name for r in parsed] == [r.name for r in sample_rules]

    def test_header_is_comments(self, sample_rules):
        text = rules_to_text(sample_rules, header="hello")
        assert text.startswith("# hello")

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            rules_from_text("name-without-body")


class TestFingerprint:
    def test_stable(self, spec):
        config = SynthesisConfig(max_term_size=4)
        assert spec_fingerprint(spec, config) == spec_fingerprint(
            spec, config
        )

    def test_sensitive_to_spec_and_config(self, spec):
        config = SynthesisConfig(max_term_size=4)
        other_config = SynthesisConfig(max_term_size=5)
        assert spec_fingerprint(spec, config) != spec_fingerprint(
            spec, other_config
        )
        custom = customized_spec(spec, sqrtsgn=True)
        assert spec_fingerprint(spec, config) != spec_fingerprint(
            custom, config
        )


class TestDiskCache:
    def test_framework_cache_roundtrip(self, spec, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RULE_CACHE", str(tmp_path))
        from repro.core import IsariaFramework
        from repro.ruler import SynthesisConfig as SC

        framework = IsariaFramework(
            spec, synthesis_config=SC(max_term_size=3)
        )
        first = framework.generate_compiler(cache=True)
        assert list(tmp_path.glob("artifact-*.json"))
        second = framework.generate_compiler(cache=True)
        assert second.synthesis is None  # came from cache
        assert len(second.ruleset) == len(first.ruleset)


class TestPregenerated:
    def test_default_rules_exist_and_parse(self):
        if not DEFAULT_RULES_FILE.exists():
            pytest.skip("pregenerated rules not built")
        rules = load_pregenerated_rules()
        assert len(rules) > 300
        # contains the canonical VecAdd lift
        assert any(
            r.lhs.op == "Vec" and r.rhs.op == "VecAdd" for r in rules
        )
