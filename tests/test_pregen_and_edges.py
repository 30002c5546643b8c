"""Pregen compiler overrides and miscellaneous API edge cases."""

import pytest

from repro.core.pregen import DEFAULT_RULES_FILE, default_compiler
from repro.egraph.egraph import EGraph
from repro.lang.parser import parse

needs_pregen = pytest.mark.skipif(
    not DEFAULT_RULES_FILE.exists(),
    reason="pregenerated rules not built",
)


@needs_pregen
class TestDefaultCompilerOverrides:
    def test_custom_phase_params(self, spec):
        from repro.phases import PhaseParams

        compiler = default_compiler(
            spec, phase_params=PhaseParams(alpha=10**9, beta=10**9)
        )
        # degenerate thresholds: everything lands in optimization
        assert len(compiler.ruleset.expansion) == 0
        assert len(compiler.ruleset.compilation) == 0

    def test_custom_compile_options(self, spec):
        from repro.compiler.compile import CompileOptions

        options = CompileOptions(max_rounds=1)
        compiler = default_compiler(spec, compile_options=options)
        assert compiler.options.max_rounds == 1

    def test_missing_rules_file_raises(self, tmp_path):
        from repro.core.pregen import load_pregenerated_rules

        with pytest.raises(FileNotFoundError):
            load_pregenerated_rules(tmp_path / "nope.txt")


class TestEGraphEdges:
    def test_add_instantiation_missing_binding(self):
        g = EGraph()
        real = g.add_term(parse("1"))
        with pytest.raises(KeyError):
            g.add_instantiation(parse("(+ ?a ?b)"), {"a": real})

    def test_lookup_term_on_empty_graph(self):
        g = EGraph()
        assert g.lookup_term(parse("(+ 1 2)")) is None

    def test_eclass_accessor_follows_unions(self):
        g = EGraph()
        a = g.add_term(parse("1"))
        b = g.add_term(parse("2"))
        g.union(a, b)
        g.rebuild()
        assert g.eclass(a) is g.eclass(b)

    def test_canonicalize_is_stable_on_clean_graph(self):
        g = EGraph()
        g.add_term(parse("(+ (Get x 0) (Get y 0))"))
        g.rebuild()
        for eclass in g.classes():
            for node in eclass.nodes:
                assert g.canonicalize(node) == node


class TestCacheFingerprintEdges:
    def test_allowlist_changes_fingerprint(self, spec):
        from repro.core.artifact import spec_fingerprint
        from repro.ruler import SynthesisConfig

        base = SynthesisConfig(max_term_size=4)
        focused = SynthesisConfig(
            max_term_size=4, op_allowlist=("+", "-")
        )
        assert spec_fingerprint(spec, base) != spec_fingerprint(
            spec, focused
        )

    def test_minimize_flag_changes_fingerprint(self, spec):
        from repro.core.artifact import spec_fingerprint
        from repro.ruler import SynthesisConfig

        a = SynthesisConfig(max_term_size=4, minimize=True)
        b = SynthesisConfig(max_term_size=4, minimize=False)
        assert spec_fingerprint(spec, a) != spec_fingerprint(spec, b)
