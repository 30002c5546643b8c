"""Differential tests: the optimization pass vs. the unfiltered oracle.

The product ``optimize`` pass leaves identity-introduction rules
(bare-wildcard LHS) out of the final optimization-phase saturation.
``optimize_oracle.oracle_compile`` runs the same pipeline with the
pass that handed the runner every rule of the phase.  Both must
extract the same compiled term and lower the same machine program:
on two Fig. 4 kernels under Fig. 4 budgets (fusion-g3, width 4), where
the phase still lowers ``qr-3x3``'s cost below its best round's, and
on masked-w4 elementwise and dot-product kernels of non-lane-multiple
lengths under the small budgets of the service workload.
"""

from __future__ import annotations

import pytest
from test_extract_differential import NO_WALL_CLOCK_S, fig4_style_options

from optimize_oracle import oracle_compile
from repro.compiler.compile import CompileOptions
from repro.compiler.frontend import trace_kernel
from repro.core.pregen import default_compiler, family_compiler
from repro.egraph.runner import RunnerLimits
from repro.isa import fusion_g3_spec, masked_spec
from repro.kernels.suite import suite_by_key
from repro.lang.parser import to_sexpr
from repro.lang.term import is_wildcard

FIG4_KERNELS = ("2dconv-3x3-3x3", "qr-3x3")


def tight_options() -> CompileOptions:
    """One round under small iteration and node budgets."""
    return CompileOptions(
        max_rounds=1,
        expansion_limits=RunnerLimits(
            max_iterations=2, max_nodes=2_000, time_limit=NO_WALL_CLOCK_S
        ),
        compilation_limits=RunnerLimits(
            max_iterations=4, max_nodes=4_000, time_limit=NO_WALL_CLOCK_S
        ),
        optimization_limits=RunnerLimits(
            max_iterations=2, max_nodes=2_000, time_limit=NO_WALL_CLOCK_S
        ),
    )


def masked_kernels() -> list:
    """Elementwise and dot kernels whose lengths are not multiples of 4."""
    return [
        trace_kernel(
            "ew-mac-7",
            lambda a, b, c: [a[i] * b[i] + c[i] for i in range(7)],
            {"a": 7, "b": 7, "c": 7}, 4,
        ),
        trace_kernel(
            "ew-sub-5",
            lambda a, b: [a[i] - b[i] for i in range(5)],
            {"a": 5, "b": 5}, 4,
        ),
        trace_kernel(
            "dot-9",
            lambda a, b: [sum((a[i] * b[i] for i in range(1, 9)),
                              a[0] * b[0])],
            {"a": 9, "b": 9}, 4,
        ),
    ]


def _compile_both(compiler, programs, options) -> dict:
    """name -> (product CompiledKernel, oracle CompilationContext)."""
    return {
        program.name: (
            compiler.compile_kernel(program, options=options,
                                    validate=False),
            oracle_compile(compiler, program, options),
        )
        for program in programs
    }


@pytest.fixture(scope="module")
def g3_compiler():
    return default_compiler(fusion_g3_spec())


@pytest.fixture(scope="module")
def masked_compiler():
    return family_compiler(masked_spec(4))


@pytest.fixture(scope="module")
def g3_compiles(g3_compiler):
    suite = suite_by_key(width=4)
    return _compile_both(
        g3_compiler,
        [suite[key].program for key in FIG4_KERNELS],
        fig4_style_options(),
    )


@pytest.fixture(scope="module")
def masked_compiles(masked_compiler):
    return _compile_both(masked_compiler, masked_kernels(), tight_options())


def _introductions_applied(compiler, report) -> set:
    """Bare-wildcard rules of the phase that ran in ``report``'s
    optimization-phase saturation."""
    names = {rule.name for rule in compiler.ruleset.optimization
             if is_wildcard(rule.lhs)}
    assert names, "the phase holds no introduction rule"
    return {name for it in report.optimization.iterations
            for name in it.applied if name in names}


def _assert_same_programs(compiles):
    for name, (product, oracle) in compiles.items():
        assert to_sexpr(product.compiled_term) == to_sexpr(
            oracle.compiled
        ), name
        assert [str(i) for i in product.machine_program.instrs] == [
            str(i) for i in oracle.machine.instrs
        ], name
        assert product.report.final_cost == oracle.report.final_cost, name


class TestSamePrograms:
    def test_fig4_kernels(self, g3_compiles):
        _assert_same_programs(g3_compiles)

    def test_masked_w4_kernels(self, masked_compiles):
        _assert_same_programs(masked_compiles)


class TestIntroductionsStayOut:
    @pytest.mark.parametrize("family", ["g3", "masked"])
    def test_no_introduction_applied(self, request, family):
        compiler = request.getfixturevalue(f"{family}_compiler")
        compiles = request.getfixturevalue(f"{family}_compiles")
        for name, (product, oracle) in compiles.items():
            assert not _introductions_applied(compiler, product.report), name
            # The oracle does run them, so the check above is not vacuous.
            assert _introductions_applied(compiler, oracle.report), name


class TestPhaseStillPays:
    def test_qr_ends_below_its_best_round(self, g3_compiles):
        product, _ = g3_compiles["qr-3x3"]
        report = product.report
        assert min(r.extracted_cost for r in report.rounds) == 85_029
        assert report.final_cost == 85_013
