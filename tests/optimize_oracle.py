"""The unfiltered optimization pass, kept as a differential oracle.

This is the ``optimize`` pass ``repro.compiler.pipeline`` ran before
it left identity-introduction rules (bare-wildcard LHS) out of the
final optimization-phase saturation: it hands the runner every rule
of the phase, so the introductions pad every e-class and the other
rules match on the padding.  It is kept so
``tests/test_optimize_differential.py`` can check that the product
pass extracts the same compiled term and lowers the same machine
program.
"""

from __future__ import annotations

from repro.compiler.pipeline import (
    SKIPPED,
    CompilationContext,
    ExtractPass,
    FrontendPass,
    LowerPass,
    Pass,
    Pipeline,
    SaturatePass,
)
from repro.egraph.egraph import EGraph
from repro.egraph.runner import run_saturation
from repro.obs import current_tracer


class OracleOptimizePass(Pass):
    """The final optimization-phase saturation over every phase rule."""

    name = "optimize"

    def run(self, ctx: CompilationContext):
        """Saturate with all optimization rules, or skip when unphased."""
        if not ctx.options.phased:
            return SKIPPED
        egraph = EGraph()
        root = egraph.add_term(ctx.current)
        with current_tracer().span("phase.optimization"):
            ctx.report.optimization = run_saturation(
                egraph,
                list(ctx.ruleset.optimization),
                ctx.options.optimization_limits,
            )
        ctx.egraph, ctx.root = egraph, root
        return {"n_iterations": ctx.report.optimization.n_iterations}


def oracle_compile(compiler, program, options) -> CompilationContext:
    """Compile ``program`` like ``compile_kernel(validate=False)``, with
    the oracle pass in place of the product ``optimize`` pass."""
    ctx = CompilationContext(
        ruleset=compiler.ruleset,
        cost_model=compiler.cost_model,
        options=options,
        program=program,
        spec=compiler.spec,
    )
    Pipeline([
        FrontendPass(),
        SaturatePass(),
        OracleOptimizePass(),
        ExtractPass(),
        LowerPass(),
    ]).run(ctx)
    return ctx
