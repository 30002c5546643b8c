"""Serialization round-trips preserve compiler behaviour."""

import pytest

from repro.core.artifact import rules_from_text, rules_to_text
from repro.phases import CostModel, assign_phases, default_params


class TestRuleSerializationFidelity:
    def test_phase_assignment_survives_roundtrip(
        self, spec, synthesis_size3
    ):
        model = CostModel(spec)
        params = default_params(spec)
        original = assign_phases(model, synthesis_size3.rules, params)
        restored_rules = rules_from_text(
            rules_to_text(synthesis_size3.rules)
        )
        restored = assign_phases(model, restored_rules, params)
        assert original.counts() == restored.counts()
        assert [str(r) for r in original] == [str(r) for r in restored]

    def test_compilation_results_identical(
        self, spec, synthesis_size3, isaria_compiler
    ):
        from repro.core import GeneratedCompiler
        from repro.kernels import matmul_kernel

        model = CostModel(spec)
        params = default_params(spec)
        restored_rules = rules_from_text(
            rules_to_text(synthesis_size3.rules)
        )
        compiler = GeneratedCompiler(
            spec=spec,
            cost_model=model,
            ruleset=assign_phases(model, restored_rules, params),
            options=isaria_compiler.options,
        )
        program = matmul_kernel(2, 2, 2).program.term
        direct = GeneratedCompiler(
            spec=spec,
            cost_model=model,
            ruleset=assign_phases(model, synthesis_size3.rules, params),
            options=isaria_compiler.options,
        )
        a, _ = direct.compile_term(program)
        b, _ = compiler.compile_term(program)
        assert a == b

    def test_unicode_and_floats_roundtrip(self):
        from repro.egraph.rewrite import parse_rewrite

        rules = [parse_rewrite("half", "(* ?a 0.5) => (/ ?a 2)")]
        restored = rules_from_text(rules_to_text(rules))
        assert str(restored[0]) == "(* ?a 0.5) => (/ ?a 2)"
