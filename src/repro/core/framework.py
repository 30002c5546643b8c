"""End-to-end framework: offline generation + the generated compiler."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.compiler.codegen import emit_c
from repro.compiler.compile import (
    CompileOptions,
    CompileReport,
    compile_term,
)
from repro.compiler.frontend import KernelProgram
from repro.interp.value import values_equal
from repro.isa.spec import IsaSpec
from repro.kernels.specs import KernelInstance
from repro.lang.term import Term
from repro.machine.program import Program
from repro.obs import current_tracer
from repro.phases.assign import PhaseParams, assign_phases, default_params
from repro.phases.cost import CostModel
from repro.phases.ruleset import PhasedRuleSet
from repro.ruler.cvec import CvecEvaluator, side_values
from repro.ruler.synthesize import (
    SynthesisConfig,
    SynthesisResult,
    synthesize_rules,
)


class ValidationError(AssertionError):
    """Translation validation failed: compiled term is not equivalent."""


@dataclass
class CompiledKernel:
    """The output of compiling one kernel."""

    name: str
    scalar_term: Term
    compiled_term: Term
    machine_program: Program
    report: CompileReport
    arrays: dict
    output: str
    spec: IsaSpec | None = None

    def c_source(self) -> str:
        """The kernel rendered as C with vector intrinsics."""
        return emit_c(
            self.machine_program,
            name=self.name.replace("-", "_"),
            arrays=self.arrays,
            output=self.output,
        )

    def run(self, inputs: dict, schedule: bool = True):
        """Execute the kernel on the cycle-level simulator.

        ``inputs`` maps input array names to number sequences
        (unpadded); the output buffer is allocated automatically.
        Returns the :class:`~repro.machine.simulator.SimResult`.
        """
        if self.spec is None:
            raise ValueError("CompiledKernel.run needs a spec")
        from repro.machine.schedule import schedule_program
        from repro.machine.simulator import Machine

        machine = Machine(self.spec)
        program = self.machine_program
        if schedule:
            program = schedule_program(program, machine)
        width = self.spec.vector_width
        memory = {}
        for name, length in self.arrays.items():
            data = [float(x) for x in inputs[name]]
            if len(data) != length:
                raise ValueError(
                    f"input {name!r} has {len(data)} values, expected "
                    f"{length}"
                )
            while len(data) % width:
                data.append(0.0)
            memory[name] = data
        n_stores = sum(
            1
            for instr in self.machine_program.instrs
            if instr.opcode in ("v.store", "v.store.m")
            and instr.array == self.output
        )
        memory[self.output] = [0.0] * max(n_stores * width, width)
        result = machine.run(program, memory)
        # Surface the machine's lane-utilization counters on the
        # compile report (the per-program metric the ISA sweep reads).
        self.report.lanes_issued = result.lanes_issued
        self.report.lanes_active = result.lanes_active
        return result


@dataclass
class GeneratedCompiler:
    """A vectorizing compiler generated from an ISA specification.

    Holds everything the offline stage produced: the phased rule set,
    the cost model, and (for inspection) the synthesis result.
    """

    spec: IsaSpec
    cost_model: CostModel
    ruleset: PhasedRuleSet
    options: CompileOptions = field(default_factory=CompileOptions)
    synthesis: SynthesisResult | None = None

    @classmethod
    def from_artifact(
        cls,
        artifact,
        spec: IsaSpec,
        options: CompileOptions | None = None,
        check: bool = True,
    ) -> "GeneratedCompiler":
        """Reconstruct a compiler from a saved offline artifact.

        Neither ``synthesize_rules`` nor ``assign_phases`` runs: the
        artifact carries the phased rule set with its phase membership
        already assigned.  With ``check`` (default) the spec's probed
        semantics must match the artifact's ``spec_hash`` — loading a
        stale artifact against a customized ISA raises
        :class:`~repro.core.artifact.ArtifactError`.
        """
        from repro.core.artifact import ArtifactError, spec_semantics_hash

        if check and spec_semantics_hash(spec) != artifact.spec_hash:
            raise ArtifactError(
                f"artifact {artifact.fingerprint} was built for a "
                f"different ISA semantics than {spec.name!r} "
                "(pass check=False to override)"
            )
        return cls(
            spec=spec,
            cost_model=CostModel(spec),
            ruleset=artifact.ruleset,
            options=options or artifact.options,
            synthesis=None,
        )

    def to_artifact(self, config: SynthesisConfig | None = None):
        """Capture this compiler as a durable
        :class:`~repro.core.artifact.CompilerArtifact`.

        ``config`` is the synthesis configuration the rules came from
        (it participates in the artifact fingerprint).
        """
        from repro.core.artifact import CompilerArtifact

        return CompilerArtifact.from_compiler(self, config=config)

    def compile_term(
        self, term: Term, options: CompileOptions | None = None
    ) -> tuple[Term, CompileReport]:
        """Vectorize a DSL term (paper Fig. 3)."""
        return compile_term(
            term,
            self.ruleset,
            self.cost_model,
            options or self.options,
        )

    def compile_kernel(
        self,
        kernel: KernelProgram | KernelInstance,
        options: CompileOptions | None = None,
        validate: bool = True,
    ) -> CompiledKernel:
        """Compile a traced kernel down to machine code.

        Runs the full pass pipeline (see
        :mod:`repro.compiler.pipeline`): frontend → saturate →
        optimize → extract → validate → lower.  When tracing is
        enabled (see :mod:`repro.obs`) every pass nests as a
        ``pass.<name>`` span under one ``compile_kernel`` span named
        after the kernel, and the report's ``passes`` list records
        per-pass timings.
        """
        from repro.compiler.pipeline import CompilationContext, kernel_pipeline

        program = (
            kernel.program if isinstance(kernel, KernelInstance) else kernel
        )
        tracer = current_tracer()
        with tracer.span("compile_kernel", kernel=program.name) as span:
            ctx = CompilationContext(
                ruleset=self.ruleset,
                cost_model=self.cost_model,
                options=options or self.options,
                program=program,
                spec=self.spec,
                validator=self.validate_equivalence if validate else None,
            )
            kernel_pipeline().run(ctx)
            report = ctx.report
            span.add(
                initial_cost=report.initial_cost,
                final_cost=report.final_cost,
                elapsed=report.elapsed,
            )
        return CompiledKernel(
            name=program.name,
            scalar_term=program.term,
            compiled_term=ctx.compiled,
            machine_program=ctx.machine,
            report=report,
            arrays=dict(program.arrays),
            output=program.output,
            spec=self.spec,
        )

    def validate_equivalence(
        self, original: Term, compiled: Term, n_samples: int = 8,
        seed: int = 7,
    ) -> None:
        """Translation validation: both terms agree on random inputs.

        A direct consequence of rule soundness, but checked anyway —
        it would catch bugs in the e-graph or extraction, not just in
        the rules.  The ``n_samples`` random environments are drawn up
        front and both terms evaluate as value rows on one
        :class:`~repro.ruler.cvec.CvecEvaluator`, so leaves and shared
        subterms are computed once; the rows are compared environment
        by environment, in draw order.  When batched evaluation raises,
        the per-environment loop decides the outcome, as it did before
        (see :func:`~repro.ruler.cvec.side_values`).
        """
        from repro.interp.env import term_inputs

        rng = random.Random(seed)
        inputs = sorted(
            set(term_inputs(original)) | set(term_inputs(compiled))
        )
        envs = [
            {atom: rng.uniform(-3.0, 3.0) for atom in inputs}
            for _ in range(n_samples)
        ]
        evaluator = CvecEvaluator(self.spec.interpreter(), envs)
        for env, left, right in side_values(evaluator, original, compiled):
            if not values_equal(left, right):
                raise ValidationError(
                    f"compiled program differs from source on {env}: "
                    f"{left!r} != {right!r}"
                )


class IsariaFramework:
    """The offline workflow: ISA spec + cost model in, compiler out."""

    def __init__(
        self,
        spec: IsaSpec,
        synthesis_config: SynthesisConfig | None = None,
        phase_params: PhaseParams | None = None,
        compile_options: CompileOptions | None = None,
    ):
        self.spec = spec
        self.synthesis_config = synthesis_config or SynthesisConfig(
            max_term_size=4
        )
        self.cost_model = CostModel(spec)
        self.phase_params = phase_params or default_params(spec)
        self.compile_options = compile_options or CompileOptions()

    def generate_compiler(self, cache: bool = False) -> GeneratedCompiler:
        """Run rule synthesis + phase discovery (paper Fig. 2, offline).

        With ``cache=True`` the *whole* offline product — synthesized
        rules, their phase assignment, and provenance — is looked up
        in / stored to the on-disk artifact cache (see
        :mod:`repro.core.artifact`), keyed by the ISA's probed
        semantics, the synthesis config, and the phase parameters.  A
        hit skips both ``synthesize_rules`` and ``assign_phases``,
        amortizing the offline stage across processes (§5.3's
        once-per-instruction-set argument made literal); a corrupt
        cache file is treated as a miss and rebuilt.
        """
        from repro.core import artifact as artifact_store

        with current_tracer().span("generate_compiler") as span:
            if cache:
                cached = artifact_store.load_cached_artifact(
                    self.spec, self.synthesis_config, self.phase_params
                )
                if cached is not None:
                    compiler = GeneratedCompiler.from_artifact(
                        cached, self.spec, options=self.compile_options
                    )
                    span.add(
                        n_rules=len(compiler.ruleset), cache_hit=True
                    )
                    return compiler
            synthesis = synthesize_rules(self.spec, self.synthesis_config)
            ruleset = assign_phases(
                self.cost_model, synthesis.rules, self.phase_params
            )
            compiler = GeneratedCompiler(
                spec=self.spec,
                cost_model=self.cost_model,
                ruleset=ruleset,
                options=self.compile_options,
                synthesis=synthesis,
            )
            if cache:
                artifact_store.store_artifact(
                    compiler.to_artifact(config=self.synthesis_config),
                    self.spec,
                    self.synthesis_config,
                )
            span.add(n_rules=len(ruleset), cache_hit=False)
        return compiler
