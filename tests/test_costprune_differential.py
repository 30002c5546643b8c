"""Differential test: pruned vs full shipped ruleset parity.

The full compiler is built from ``fusion_g3_rules_full.txt``, the
unpruned synthesis output the shipped default is pruned from.  The
pruned default must never compile worse code: under deterministic
fixpoint-style saturation budgets the two rulesets close their
e-graphs over the same terms (every dropped rule is derivable from
survivors), and canonical tie-breaking makes extraction a function of
that term set — so the compiled program should be byte-identical, and
must at minimum be equal-or-cheaper.
"""

from __future__ import annotations

import pytest

from repro.compiler.compile import CompileOptions
from repro.compiler.frontend import trace_kernel
from repro.core.framework import GeneratedCompiler
from repro.core.pregen import (
    FULL_RULES_FILE,
    default_compiler,
    load_pregenerated_rules,
)
from repro.egraph.runner import RunnerLimits
from repro.isa import fusion_g3_spec
from repro.phases.assign import assign_phases, default_params
from repro.phases.cost import CostModel

_LENGTH = 8


def _fixpoint_options() -> CompileOptions:
    def fix(iterations: int, nodes: int) -> RunnerLimits:
        return RunnerLimits(
            max_iterations=iterations,
            max_nodes=nodes,
            time_limit=600.0,
            match_limit=10**9,
            ban_length=0,
            match_work=10**9,
        )

    return CompileOptions(
        max_rounds=1,
        expansion_limits=fix(2, 2_000),
        compilation_limits=fix(4, 4_000),
        optimization_limits=fix(2, 2_000),
    )


def _mac_program():
    def mac(a, b, c):
        return [a[i] * b[i] + c[i] for i in range(_LENGTH)]

    return trace_kernel(
        "ew-mac-8", mac,
        {"a": _LENGTH, "b": _LENGTH, "c": _LENGTH}, width=4,
    ), mac


def _full_compiler(spec, options: CompileOptions) -> GeneratedCompiler:
    """``default_compiler`` over the full, unpruned rule file."""
    cost_model = CostModel(spec)
    ruleset = assign_phases(
        cost_model, load_pregenerated_rules(FULL_RULES_FILE),
        default_params(spec),
    )
    return GeneratedCompiler(
        spec=spec, cost_model=cost_model, ruleset=ruleset, options=options,
    )


@pytest.fixture()
def compiled_pair():
    """(full, pruned) compile results for the same kernel."""
    program, mac = _mac_program()
    spec = fusion_g3_spec()
    options = _fixpoint_options()
    compilers = {
        "full": _full_compiler(spec, options),
        "pruned": default_compiler(spec, compile_options=options),
    }
    results = {}
    for mode, compiler in compilers.items():
        compiled = compiler.compile_kernel(program, validate=False)
        results[mode] = {
            "n_rules": len(compiler.ruleset),
            "term": str(compiled.compiled_term),
            "cost": compiler.cost_model.term_cost(
                compiled.compiled_term
            ),
            "compiled": compiled,
            "reference": mac,
        }
    return results


def test_pruned_ruleset_is_smaller(compiled_pair):
    assert (
        compiled_pair["pruned"]["n_rules"]
        < compiled_pair["full"]["n_rules"]
    )


def test_pruned_compile_is_equal_or_cheaper(compiled_pair):
    full, pruned = compiled_pair["full"], compiled_pair["pruned"]
    assert pruned["cost"] <= full["cost"], (
        f"pruned ruleset compiled a costlier program "
        f"({pruned['cost']} vs {full['cost']})"
    )
    assert (
        pruned["term"] == full["term"]
        or pruned["cost"] < full["cost"]
    ), "pruned output differs without being cheaper"


def test_pruned_compile_is_correct(compiled_pair):
    pruned = compiled_pair["pruned"]
    inputs = {
        "a": [float(i + 1) for i in range(_LENGTH)],
        "b": [float(2 * i - 3) for i in range(_LENGTH)],
        "c": [float(i * i % 7) for i in range(_LENGTH)],
    }
    result = pruned["compiled"].run(inputs)
    got = list(result.memory[pruned["compiled"].output][:_LENGTH])
    want = [
        float(x)
        for x in pruned["reference"](inputs["a"], inputs["b"], inputs["c"])
    ]
    assert got == want
