"""The online stage as a composable pass pipeline.

The paper's compile-time stage is a *fixed schedule* of bounded eqsat
calls (Fig. 3) bracketed by front-end lowering, translation
validation, and machine lowering.  Instead of one monolithic function
that every driver re-wraps by hand, this module decomposes it into
named passes over a shared :class:`CompilationContext`:

    frontend → saturate → optimize → extract → validate → lower
    (→ schedule)

``compile_term`` runs the middle three; ``compile_kernel`` runs the
full schedule; the Diospyros baseline swaps its own greedy loop in for
the ``saturate``/``optimize``/``extract`` trio while sharing the outer
stages; the bench harness and :func:`compile_many` are thin
configurations on top.  Every pass emits a ``pass.<name>`` span (see
:mod:`repro.obs`) and appends a :class:`~repro.compiler.compile.PassReport`
to the compile report, and the report's ``elapsed`` is exactly the sum
of its pass entries.

Pass order never changes with options: a pass that does not apply
(``optimize`` under ``phased=False``, ``validate`` with no validator)
reports status ``skipped`` rather than disappearing, so per-pass
timings are comparable across ablations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.compiler.compile import (
    _EPSILON,
    _MIN_RELATIVE_GAIN,
    CompileOptions,
    CompileReport,
    PassReport,
    RoundReport,
    _extract,
)
from repro.egraph.egraph import EGraph
from repro.egraph.runner import RunnerReport, run_saturation
from repro.lang.term import Term
from repro.obs import current_tracer
from repro.phases.cost import CostModel
from repro.phases.ruleset import PhasedRuleSet

#: Sentinel a pass returns when it did not apply under the current
#: options; the pipeline records it with status ``"skipped"``.
SKIPPED = "skipped"
_OK = "ok"


@dataclass
class CompilationContext:
    """Shared state threaded through the passes of one compilation.

    Inputs (``term``/``program``, ``ruleset``, ``cost_model``,
    ``options``, ``spec``, ``validator``) are set by the driver;
    passes fill in ``report``, ``compiled``, ``machine`` and
    ``scheduled`` as the pipeline advances.  The remaining fields are
    inter-pass scratch (the live e-graph between ``optimize`` and
    ``extract``, the running best term between rounds).
    """

    ruleset: PhasedRuleSet | None = None
    cost_model: CostModel | None = None
    options: CompileOptions = field(default_factory=CompileOptions)
    term: Term | None = None
    program: Any = None  # KernelProgram (or KernelInstance pre-frontend)
    spec: Any = None  # IsaSpec, needed by lower/schedule
    validator: Callable | None = None
    report: CompileReport | None = None
    compiled: Term | None = None
    machine: Any = None  # machine Program after ``lower``
    scheduled: Any = None  # scheduled Program after ``schedule``
    current: Term | None = None
    egraph: EGraph | None = None
    root: int | None = None
    unphased_report: RunnerReport | None = None

    def ensure_report(self) -> CompileReport:
        """The compile report, creating it from ``term``'s cost once."""
        if self.report is None:
            cost = self.cost_model.term_cost(self.term)
            self.report = CompileReport(initial_cost=cost, final_cost=cost)
        return self.report


class Pass:
    """One named stage of the online pipeline.

    Subclasses set ``name`` and implement :meth:`run`, which mutates
    the context and returns ``None`` (ran, nothing to report), a dict
    of span/report detail, or :data:`SKIPPED`.
    """

    name = "pass"

    def run(self, ctx: CompilationContext):
        """Execute the pass against ``ctx``."""
        raise NotImplementedError


class FnPass(Pass):
    """Adapter wrapping an arbitrary ``fn(ctx)`` as a named pass.

    How drivers splice non-standard stages into the standard schedule
    — e.g. the Diospyros baseline's greedy compile loop standing in
    for ``saturate``/``optimize``/``extract``.
    """

    def __init__(self, name: str, fn: Callable[[CompilationContext], Any]):
        self.name = name
        self._fn = fn

    def run(self, ctx: CompilationContext):
        """Call the wrapped function with the context."""
        return self._fn(ctx)


class Pipeline:
    """An ordered sequence of passes sharing one context.

    ``run`` times each pass, wraps it in a ``pass.<name>`` span, and
    appends a :class:`PassReport` to the context's compile report; the
    report's ``elapsed`` accumulates exactly the per-pass segments, so
    the pass entries always sum to it.  A pass may *replace*
    ``ctx.report`` (the baseline adapter adopts the report its
    compiler built); earlier pass entries and elapsed carry over.
    """

    def __init__(self, passes: list):
        self.passes = tuple(passes)

    def names(self) -> list[str]:
        """Pass names in execution order."""
        return [p.name for p in self.passes]

    def run(self, ctx: CompilationContext) -> CompilationContext:
        """Run every pass in order against ``ctx``; returns ``ctx``."""
        tracer = current_tracer()
        pending: list[PassReport] = []
        for p in self.passes:
            before = ctx.report
            t0 = time.monotonic()
            with tracer.span(f"pass.{p.name}") as span:
                result = p.run(ctx)
                elapsed = time.monotonic() - t0
                status = SKIPPED if result is SKIPPED else _OK
                detail = dict(result) if isinstance(result, dict) else {}
                if span.enabled:
                    span.add(status=status, **detail)
            if ctx.report is not None and ctx.report is not before:
                # The pass brought its own report: keep the pipeline's
                # accounting (earlier pass entries + elapsed) and let
                # this pass's segment be re-added below.
                prior_passes = before.passes if before else []
                prior_elapsed = before.elapsed if before else 0.0
                ctx.report.passes = list(prior_passes) + ctx.report.passes
                ctx.report.elapsed = prior_elapsed
            pending.append(PassReport(p.name, elapsed, status, detail))
            if ctx.report is not None:
                for entry in pending:
                    ctx.report.passes.append(entry)
                    ctx.report.elapsed += entry.elapsed
                pending.clear()
        return ctx


class FrontendPass(Pass):
    """Resolve the kernel front end and seed the compile report.

    Accepts either a traced ``KernelProgram`` or a ``KernelInstance``
    wrapper (unwrapped here); the actual symbolic evaluation and
    Diospyros-style normalization happen in
    :func:`repro.compiler.frontend.trace_kernel` when the kernel was
    traced — this pass anchors them in the pipeline's accounting and
    fixes ``ctx.term`` for the eqsat stages.
    """

    name = "frontend"

    def run(self, ctx: CompilationContext):
        """Unwrap the kernel, set ``ctx.term``, create the report."""
        program = ctx.program
        if program is not None and hasattr(program, "program"):
            program = program.program  # KernelInstance → KernelProgram
            ctx.program = program
        if ctx.term is None and program is not None:
            ctx.term = program.term
        ctx.ensure_report()
        if program is None:
            return None
        return {"kernel": program.name, "width": program.width}


class SaturatePass(Pass):
    """The scheduled-saturation rounds of paper Fig. 3.

    Phased mode runs the expansion→compilation loop with per-round
    extraction and greedy pruning, leaving the best term in
    ``ctx.current``.  Under the ``phased=False`` ablation it runs one
    saturation over all rules and leaves the live e-graph for the
    ``extract`` pass.
    """

    name = "saturate"

    def run(self, ctx: CompilationContext):
        """Run the saturation schedule configured by ``ctx.options``."""
        report = ctx.ensure_report()
        options = ctx.options
        ruleset = ctx.ruleset
        tracer = current_tracer()

        if not options.phased:
            # The §5.2 no-phasing ablation: one saturation, all rules.
            egraph = EGraph()
            root = egraph.add_term(ctx.term)
            with tracer.span("phase.unphased"):
                sat_report = run_saturation(
                    egraph, ruleset.all_rules(), options.unphased_limits
                )
            ctx.egraph, ctx.root = egraph, root
            ctx.unphased_report = sat_report
            return {"mode": "unphased",
                    "n_iterations": sat_report.n_iterations}

        # --- the Fig. 3 loop: expansion → compilation → extract, pruned --
        current = ctx.term
        cost_old = report.initial_cost
        egraph: EGraph | None = None
        root: int | None = None

        for index in range(options.max_rounds):
            run_expansion = index >= options.expansion_start_round
            with tracer.span("compile.round", index=index) as round_span:
                if options.pruning or egraph is None:
                    egraph = EGraph()
                    root = egraph.add_term(current)
                exp_report = None
                if run_expansion:
                    with tracer.span("phase.expansion"):
                        exp_report = run_saturation(
                            egraph, ruleset.table("expansion"),
                            options.expansion_limits,
                        )
                # Frontier matching: compilation rules chain (each lift
                # mints the Vec literal the next lift fires on), so after
                # the first sweep the budget goes to newly created
                # structure instead of re-matching the expansion phase's
                # variants.
                with tracer.span("phase.compilation"):
                    comp_report = run_saturation(
                        egraph, ruleset.table("compilation"),
                        options.compilation_limits, frontier=True,
                    )

                cost_new, extracted = _extract(
                    egraph, root, ctx.cost_model, report
                )
                report.peak_nodes = max(report.peak_nodes, egraph.n_nodes)
                report.rounds.append(
                    RoundReport(
                        index=index,
                        expansion=exp_report,
                        compilation=comp_report,
                        extracted_cost=cost_new,
                        n_nodes=egraph.n_nodes,
                        n_classes=egraph.n_classes,
                    )
                )
                threshold = max(_EPSILON, cost_old * _MIN_RELATIVE_GAIN)
                improved = cost_new < cost_old - threshold
                if round_span.enabled:
                    round_span.add(
                        cost_before=cost_old,
                        extracted_cost=cost_new,
                        improved=improved,
                        # The prune decision: an improving round restarts
                        # the next one from the extracted program alone.
                        pruned=bool(options.pruning and improved),
                        n_nodes=egraph.n_nodes,
                        n_classes=egraph.n_classes,
                    )
                if cost_new < cost_old:
                    # An improving round's extraction becomes the next
                    # round's input; a too-small win is kept anyway.
                    cost_old = cost_new
                    current = extracted
                # Never give up before the expansion phase has had at
                # least one round to expose new structure.
                if not improved and run_expansion:
                    break

        ctx.current = current
        return {"mode": "phased", "n_rounds": len(report.rounds)}


class OptimizePass(Pass):
    """The final optimization-phase saturation of Fig. 3.

    Rebuilds a fresh e-graph from the loop's best term, saturates with
    the optimization rules, and leaves the e-graph for ``extract``.
    Skipped under ``phased=False`` (the unphased saturation already
    included every rule).

    Identity-introduction rules (a bare-wildcard LHS such as
    ``?a => (VecAdd ?a (Vec 0 ...))``) stay out of this saturation.
    They pad e-classes for a later compilation phase to lift, and the
    runner applies them uncapped; with no compilation phase after
    this one, the padding only gives the other rules more to match
    and lowers no bundled kernel's cost.  The rules keep their phase
    membership in the rule set and the artifact.
    """

    name = "optimize"

    def run(self, ctx: CompilationContext):
        """Saturate with optimization rules, or skip when unphased."""
        if not ctx.options.phased:
            return SKIPPED
        egraph = EGraph()
        root = egraph.add_term(ctx.current)
        with current_tracer().span("phase.optimization"):
            ctx.report.optimization = run_saturation(
                egraph,
                ctx.ruleset.table("optimization", identities=False),
                ctx.options.optimization_limits,
            )
        ctx.egraph, ctx.root = egraph, root
        return {"n_iterations": ctx.report.optimization.n_iterations}


class ExtractPass(Pass):
    """Minimum-cost extraction of the final program.

    Sets ``ctx.compiled`` and the report's ``final_cost``; in unphased
    mode this is also where the single :class:`RoundReport` describing
    the one saturation is recorded.
    """

    name = "extract"

    def run(self, ctx: CompilationContext):
        """Extract the cheapest term from the live e-graph."""
        report = ctx.report
        cost, compiled = _extract(ctx.egraph, ctx.root, ctx.cost_model,
                                  report)
        report.peak_nodes = max(report.peak_nodes, ctx.egraph.n_nodes)
        if ctx.unphased_report is not None:
            report.rounds.append(
                RoundReport(
                    index=0,
                    expansion=None,
                    compilation=ctx.unphased_report,
                    extracted_cost=cost,
                    n_nodes=ctx.egraph.n_nodes,
                    n_classes=ctx.egraph.n_classes,
                )
            )
        report.final_cost = cost
        ctx.compiled = compiled
        return {"final_cost": cost}


class ValidatePass(Pass):
    """Translation validation of the compiled term.

    Calls ``ctx.validator(original, compiled)`` — typically
    :meth:`GeneratedCompiler.validate_equivalence` — and reports
    ``skipped`` when the driver disabled validation.
    """

    name = "validate"

    def run(self, ctx: CompilationContext):
        """Check source/compiled equivalence via the context validator."""
        if ctx.validator is None:
            return SKIPPED
        ctx.validator(ctx.term, ctx.compiled)
        return None


class LowerPass(Pass):
    """Lower the compiled vector term onto machine code."""

    name = "lower"

    def run(self, ctx: CompilationContext):
        """Select data movement and emit the machine program."""
        from repro.compiler.lowering import lower_program

        program = ctx.program
        ctx.machine = lower_program(
            ctx.compiled,
            ctx.spec,
            program.arrays,
            output=program.output,
            output_len=program.output_len,
        )
        detail = {"n_instructions": len(ctx.machine.instrs)}
        masked_stores = ctx.machine.count("v.store.m")
        if masked_stores:
            detail["masked_stores"] = masked_stores
        return detail


class SchedulePass(Pass):
    """Run the toolchain instruction scheduler over the lowered code.

    Optional tail stage used by drivers that go on to simulate (the
    bench harness, :func:`compile_many` with ``schedule=True``).
    """

    name = "schedule"

    def run(self, ctx: CompilationContext):
        """Schedule ``ctx.machine`` for the target machine model."""
        from repro.machine.schedule import schedule_program
        from repro.machine.simulator import Machine

        ctx.scheduled = schedule_program(ctx.machine, Machine(ctx.spec))
        return {"n_instructions": len(ctx.scheduled.instrs)}


def term_pipeline() -> Pipeline:
    """The ``compile_term`` schedule: saturate → optimize → extract."""
    return Pipeline([SaturatePass(), OptimizePass(), ExtractPass()])


def kernel_pipeline(schedule: bool = False) -> Pipeline:
    """The full per-kernel schedule behind ``compile_kernel``.

    frontend → saturate → optimize → extract → validate → lower, plus
    the instruction ``schedule`` stage when requested.  Validation is
    controlled by ``ctx.validator`` (None → the pass reports
    ``skipped``), so the pass order is identical either way.
    """
    passes: list[Pass] = [
        FrontendPass(),
        SaturatePass(),
        OptimizePass(),
        ExtractPass(),
        ValidatePass(),
        LowerPass(),
    ]
    if schedule:
        passes.append(SchedulePass())
    return Pipeline(passes)


def baseline_kernel_pipeline(
    compile_fn: Callable, schedule: bool = False
) -> Pipeline:
    """A kernel schedule with a custom middle stage (the baselines).

    ``compile_fn(term)`` must return ``(compiled_term, CompileReport)``
    — e.g. :meth:`DiospyrosCompiler.compile`.  Its report is adopted
    into the pipeline (earlier pass entries carry over), so the shared
    pre/post stages (frontend, lower, schedule) are literally the same
    passes the generated compiler runs.
    """

    def run_baseline(ctx: CompilationContext):
        compiled, report = compile_fn(ctx.term)
        ctx.compiled = compiled
        ctx.report = report
        return {"final_cost": report.final_cost}

    passes: list[Pass] = [
        FrontendPass(),
        FnPass("saturate", run_baseline),
        LowerPass(),
    ]
    if schedule:
        passes.append(SchedulePass())
    return Pipeline(passes)


class KernelCompileError(RuntimeError):
    """Compilation of one kernel in a batch failed.

    Wraps whatever the underlying pass raised with the *identity* of
    the failing kernel — its suite key/name and its compile-surface
    spec hash (:func:`repro.kernels.specs.kernel_spec_hash`) — so a
    ``compile_many`` over dozens of kernels names the culprit instead
    of surfacing a bare worker traceback.  Defines ``__reduce__`` so
    the error survives the process-pool pickling round trip intact.
    """

    def __init__(self, kernel_key: str, spec_hash: str, message: str):
        super().__init__(
            f"kernel {kernel_key!r} (spec {spec_hash}) failed: {message}"
        )
        self.kernel_key = kernel_key
        self.spec_hash = spec_hash
        self.message = message

    def __reduce__(self):
        return (type(self), (self.kernel_key, self.spec_hash, self.message))


def _kernel_key(kernel) -> str:
    """The kernel's suite key (or program name) for error reports."""
    key = getattr(kernel, "key", None) or getattr(kernel, "name", None)
    return str(key) if key else "<kernel>"


def _kernel_spec_hash(kernel) -> str:
    """Best-effort spec hash of a kernel/instance for error reports."""
    from repro.kernels.specs import kernel_spec_hash

    program = getattr(kernel, "program", kernel)
    try:
        return kernel_spec_hash(program)
    except Exception:
        return "<unhashable>"


def _compile_one(compiler, kernel, options, validate):
    """Worker for :func:`compile_many` (module-level: must pickle)."""
    try:
        return compiler.compile_kernel(kernel, options=options,
                                       validate=validate)
    except KernelCompileError:
        raise
    except Exception as exc:
        raise KernelCompileError(
            _kernel_key(kernel), _kernel_spec_hash(kernel), str(exc)
        ) from exc


def compile_many(
    compiler,
    kernels: list,
    options: CompileOptions | None = None,
    validate: bool = True,
    jobs: int | None = None,
) -> list:
    """Compile many kernels against one generated compiler.

    The batch driver for the artifact workflow: load one
    :class:`~repro.core.artifact.CompilerArtifact`, then compile a
    kernel list with it.  ``jobs`` ≤ 1 runs serially in-process;
    otherwise each kernel's whole compile is one task fanned out across
    worker processes via :func:`repro.bench.parallel.parallel_starmap`,
    so ordering is deterministic and the fan-out degrades to a serial
    loop when pools are unavailable or ``REPRO_PARALLEL=0``.  Either
    way every kernel runs the same pass pipeline, so the results are
    identical.  Returns one :class:`~repro.core.framework.CompiledKernel`
    per input kernel, in input order; a failing kernel raises
    :class:`KernelCompileError` naming the kernel and its spec hash.
    """
    kernels = list(kernels)
    if jobs is None or jobs <= 1:
        return [
            _compile_one(compiler, k, options, validate) for k in kernels
        ]

    from repro.bench.parallel import parallel_starmap

    return parallel_starmap(
        _compile_one,
        [(compiler, k, options, validate) for k in kernels],
        max_workers=jobs,
    )
