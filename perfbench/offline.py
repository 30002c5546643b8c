"""Workload ``offline-g3``: the offline stage that generates a compiler.

``synthesize_rules(fusion_g3_spec(), SynthesisConfig(max_term_size=4))``
with no wall-clock budget, then ``assign_phases``, a
``CompilerArtifact`` save/load round trip and
``GeneratedCompiler.from_artifact``.  The loaded artifact must equal
the saved one and its phased rule set must match earlier runs'
digest.  The first build's compiler then compiles two small suite
kernels under tight options, ``CHECK_REPEATS`` times each, and their
programs are simulated and checked, so the offline product is checked
end to end; these compiles take about a twentieth of a build and give
``compile_s``.  Then builds repeat until the run's seconds are used,
each reproducing the first one's digest.  A host-speed probe runs
after each build and each compile.

Set-up: the spec, cost model, phase parameters and the traced suite
(median of ``SETUP_REPS``).  A request is one offline build.
"""

from __future__ import annotations

import time

from common import (
    CompileTally,
    SimTally,
    compile_checked,
    geomean,
    log,
    median,
    peak_rss_mb,
    run_checked,
    scalar_program,
    seeded_inputs,
    sha,
    tight_options,
)

CHECK_KERNELS = ("2dconv-3x3-2x2", "matmul-2x3x3")
# Each check kernel is compiled this many times: the repeats must
# agree byte for byte, and their median steadies ``compile_s``.
CHECK_REPEATS = 5
SETUP_REPS = 5
STAGES = ("enumerate", "candidates", "verify", "cost_prune", "minimize",
          "generalize")


def _load(_rep):
    from repro.isa import fusion_g3_spec
    from repro.kernels.suite import suite_by_key
    from repro.phases.assign import default_params
    from repro.phases.cost import CostModel
    from repro.ruler.synthesize import SynthesisConfig

    spec = fusion_g3_spec()
    inputs = (spec, CostModel(spec), default_params(spec),
              SynthesisConfig(max_term_size=4))
    suite = suite_by_key(width=4)
    return inputs, {key: suite[key] for key in CHECK_KERNELS}


def _ruleset_digest(ruleset) -> str:
    from repro.core.artifact import rules_to_text

    return sha("".join(
        rules_to_text(list(phase))
        for phase in (ruleset.expansion, ruleset.compilation,
                      ruleset.optimization)
    ))


def _build(ctx, spec, model, params, config):
    """The offline stage, timed; returns (synthesis, artifact, loaded
    artifact, compiler, the build's span record)."""
    from repro.core.artifact import CompilerArtifact
    from repro.core.framework import GeneratedCompiler
    from repro.phases.assign import assign_phases
    from repro.ruler.synthesize import synthesize_rules

    spans = ctx.spans
    with spans.span("offline") as total:
        with spans.span("ruler.synthesize"):
            result = synthesize_rules(spec, config)
        with spans.span("phases.assign"):
            ruleset = assign_phases(model, result.rules, params)
        generated = GeneratedCompiler(
            spec=spec, cost_model=model, ruleset=ruleset, synthesis=result
        )
        with spans.span("core.artifact_save"):
            artifact = generated.to_artifact(config=config)
            path = artifact.save(ctx.tmp / "offline-g3.json")
        with spans.span("core.artifact_load"):
            loaded = CompilerArtifact.load(path)
            compiler = GeneratedCompiler.from_artifact(
                loaded, spec, options=tight_options()
            )
    return result, artifact, loaded, compiler, total


def _build_checked(ctx, inputs, layers):
    """One offline build as one operation, followed by a probe.

    Returns (the rebuilt compiler, the build's span record), or
    ``(None, None)`` when the operation failed.
    """
    compiler = build = None
    with ctx.ledger.op("offline build") as reasons:
        result, artifact, loaded, compiler, build = _build(ctx, *inputs)
        if result.aborted:
            reasons.append("synthesis aborted")
        if loaded.to_json() != artifact.to_json():
            reasons.append("artifact changed in the save/load round trip")
        wrong = ctx.digests.check(
            "offline-g3:ruleset", _ruleset_digest(loaded.ruleset)
        )
        if wrong:
            reasons.append(wrong)
        _synthesis_layers(result, layers)
        log(f"offline build {build['dur']:.2f}s: {len(result.rules)} rules "
            f"from {result.n_candidates} candidates")
    ctx.clock.tick()
    return compiler, build


def _check(ctx, compiler, kernels, tally, sims, layers) -> dict:
    """Compile each check kernel ``CHECK_REPEATS`` times, each compile
    followed by a probe, then simulate and check its program.

    Returns the compile span records per kernel.
    """
    spec = compiler.spec
    calls: dict = {}
    for key, instance in kernels.items():
        for _ in range(CHECK_REPEATS):
            compiled, call = compile_checked(
                ctx, key, lambda: compiler.compile_kernel(instance), tally,
                layers,
            )
            calls.setdefault(key, []).append(call)
            ctx.clock.tick()
        if compiled is None:
            continue
        data = seeded_inputs(ctx.seed, key, instance.arrays)
        vector = run_checked(ctx, f"simulate isaria {key}", spec, instance,
                             data, lambda: (compiled.machine_program, {}))
        scalar = run_checked(ctx, f"simulate scalar {key}", spec, instance,
                             data, lambda: scalar_program(instance, spec))
        sims.add(vector, scalar, compiled.machine_program)
    return calls


def _synthesis_layers(result, layers: dict) -> None:
    """Fold one ``SynthesisResult``'s counters into ``layers``."""
    for stage in STAGES:
        key = f"ruler.{stage}_s"
        layers[key] = layers.get(key, 0.0) + result.stage_times.get(stage, 0.0)
    perf = result.perf
    looked_up = perf.cvec_cache_hits + perf.cvec_cache_misses
    layers.update({
        "ruler.n_enumerated": result.n_enumerated,
        "ruler.n_candidates": result.n_candidates,
        "ruler.n_rules": len(result.rules),
        "ruler.keep_ratio": (
            len(result.single_lane_rules) / result.n_candidates
        ),
        "ruler.cvec_hit_rate": perf.cvec_cache_hits / looked_up,
    })


def run(ctx):
    """One ``offline-g3`` run; returns (end-to-end, per-layer) metrics.

    The end-to-end metrics are empty in traced runs.
    """
    layers: dict = {}
    tally = CompileTally()
    sims = SimTally()
    calls: dict = {}
    builds: list = []
    with ctx.traced():
        (inputs, kernels), setup_s = ctx.setups(SETUP_REPS, _load)
        compiler, first = _build_checked(ctx, inputs, layers)
        if compiler is not None:
            calls = _check(ctx, compiler, kernels, tally, sims, layers)
        start = time.perf_counter()
        while not ctx.trace and time.perf_counter() - start < ctx.seconds:
            _, build = _build_checked(ctx, inputs, layers)
            if build is not None:
                builds.append(build)
    layers.update(tally.layer_metrics())
    layers.update({
        "machine.schedule_s": ctx.spans.total("machine.schedule"),
        "machine.run_s": ctx.spans.total("machine.run"),
        "machine.masked_ops": sims.masked_ops,
        "machine.scalar_instructions": sims.scalar_instructions,
        "phases.assign_s": ctx.spans.total("phases.assign"),
        "core.artifact_save_s": ctx.spans.total("core.artifact_save"),
        "core.artifact_load_s": ctx.spans.total("core.artifact_load"),
    })
    if ctx.trace:
        traced = first["dur"]
        untraced = _build(ctx, *inputs)[-1]["dur"]
        layers["trace.overhead_s"] = traced - untraced
        log(f"tracing overhead on the offline build: {traced:.2f}s "
            f"traced vs {untraced:.2f}s untraced")
        return {}, layers
    scaled = {
        name: [ctx.clock.span_s(r) for r in records]
        for name, records in [("build", builds), *calls.items()]
    }
    for name, records in [("build", builds), *calls.items()]:
        log(f"{name}: raw {[round(r['dur'], 2) for r in records]}s, "
            f"reference {[round(w, 2) for w in scaled[name]]}s")
    e2e = {
        "setup_s": setup_s,
        "compile_s": geomean(median(scaled[key]) for key in CHECK_KERNELS),
        "requests_per_s": len(builds) / sum(scaled["build"]),
        "speedup_vs_scalar": geomean(sims.speedups),
        "lane_utilization": sims.lane_utilization,
        "deterministic_stop_share": tally.deterministic_share,
        "peak_rss_mb": peak_rss_mb(),
    }
    return e2e, layers
