"""Workload ``fig4-g3w4``: Fig. 4 cycles and Fig. 5 compile time.

The paper's base ISA (fusion-g3, width 4) with the shipped rules
(``default_compiler()``) compiling ``KERNELS`` with ``compile_kernel``
(translation validation on) under :func:`fig4_options`.  Each kernel
is compiled once to warm up, and that program is scheduled and
simulated next to the scalar, slp and nature baselines; every
program's output is checked against the kernel's reference.  Then the
kernels are compiled in turn until the run's seconds are used, with a
host-speed probe after each compile; every repeat must reproduce the
first compile's digest.

Set-up: ``default_compiler()`` plus tracing the suite (median of
``SETUP_REPS``).  A request is one ``compile_kernel`` call.
"""

from __future__ import annotations

import time

from common import (
    NO_WALL_CLOCK_S,
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
)

KERNELS = ("2dconv-3x3-3x3", "matmul-4x4x4", "qr-3x3")
# The kernel compiled a second time, untraced, to measure tracing
# overhead in traced runs (the cheapest of the three).
OVERHEAD_KERNEL = "2dconv-3x3-3x3"
SETUP_REPS = 5


def fig4_options():
    """Two rounds under small iteration and node budgets, no wall clock.

    The default options take 20–40 s per kernel here, too few
    compiles for a steady run.  Under these, conv and matmul still
    reach the default options' costs (573 and 225) in under a second,
    and ``qr-3x3`` still gains in round 1 (106833 → 85029) in about
    1.5 s, most of it between-round extraction.
    """
    from repro.compiler.compile import CompileOptions
    from repro.egraph.runner import RunnerLimits

    return CompileOptions(
        max_rounds=2,
        expansion_limits=RunnerLimits(
            max_iterations=2, max_nodes=2_000, time_limit=NO_WALL_CLOCK_S,
            match_limit=100, ban_length=1, match_work=40_000,
        ),
        compilation_limits=RunnerLimits(
            max_iterations=8, max_nodes=2_000, time_limit=NO_WALL_CLOCK_S,
            match_limit=80, ban_length=3, match_work=25_000,
        ),
        optimization_limits=RunnerLimits(
            max_iterations=2, max_nodes=2_000, time_limit=NO_WALL_CLOCK_S
        ),
    )


def _load(_rep):
    from repro.core.pregen import default_compiler
    from repro.isa import fusion_g3_spec
    from repro.kernels.suite import suite_by_key

    compiler = default_compiler(fusion_g3_spec())
    suite = suite_by_key(width=4)
    return compiler, {key: suite[key] for key in KERNELS}


def _baseline(system: str, instance, spec):
    from repro.baselines.nature import nature_program
    from repro.baselines.slp import compile_slp

    if system == "scalar":
        return scalar_program(instance, spec)
    if system == "slp":
        return compile_slp(instance.program, spec), {}
    return nature_program(instance, spec)


def _simulate(ctx, spec, key, instance, compiled, sims, layers) -> None:
    """Simulate one kernel's program and its baselines, and check them."""
    from repro.baselines.nature import has_nature_kernel

    inputs = seeded_inputs(ctx.seed, key, instance.arrays)
    results = {}
    for system in ("scalar", "slp", "nature"):
        if system == "nature" and not has_nature_kernel(instance, spec):
            continue
        results[system] = run_checked(
            ctx, f"simulate {system} {key}", spec, instance, inputs,
            lambda system=system: _baseline(system, instance, spec),
        )
    if compiled is not None:
        results["isaria"] = run_checked(
            ctx, f"simulate isaria {key}", spec, instance, inputs,
            lambda: (compiled.machine_program, {}),
        )
        sims.add(results["isaria"], results["scalar"],
                 compiled.machine_program)
        if results["isaria"] is not None:
            layers[f"machine.cycles.{key}"] = results["isaria"].cycles
    cycles = {s: r.cycles for s, r in results.items() if r is not None}
    log(f"{key}: cycles {cycles}")


def run(ctx):
    """One ``fig4-g3w4`` run; returns (end-to-end, per-layer) metrics.

    The end-to-end metrics are empty in traced runs.
    """
    from repro.core import pregen

    layers: dict = {}
    tally = CompileTally()
    sims = SimTally()
    options = fig4_options()
    records: dict = {key: [] for key in KERNELS}
    targets = [
        (pregen, "assign_phases", "phases.assign"),
        (pregen, "load_pregenerated_rules", "core.artifact_load"),
    ]
    with ctx.traced(targets):
        (compiler, kernels), setup_s = ctx.setups(SETUP_REPS, _load)
        for key, instance in kernels.items():
            compiled, call = compile_checked(
                ctx, key,
                lambda: compiler.compile_kernel(instance, options=options),
                tally, layers,
            )
            log(f"{key}: warm-up compile {call['dur']:.2f}s")
            _simulate(ctx, compiler.spec, key, instance, compiled, sims,
                      layers)
        ctx.clock.tick()
        start = time.perf_counter()
        while not ctx.trace and time.perf_counter() - start < ctx.seconds:
            for key, instance in kernels.items():
                _, call = compile_checked(
                    ctx, key,
                    lambda: compiler.compile_kernel(instance,
                                                    options=options),
                    tally, layers,
                )
                records[key].append(call)
                ctx.clock.tick()
    if ctx.trace:
        untraced_start = time.perf_counter()
        compiler.compile_kernel(kernels[OVERHEAD_KERNEL], options=options)
        untraced = time.perf_counter() - untraced_start
        traced = next(
            r["dur"] for r in ctx.spans.named("compile")
            if r["attrs"]["kernel"] == OVERHEAD_KERNEL
        )
        layers["trace.overhead_s"] = traced - untraced
        log(f"tracing overhead on {OVERHEAD_KERNEL}: "
            f"{traced:.2f}s traced vs {untraced:.2f}s untraced")
    layers.update(tally.layer_metrics())
    layers.update({
        "machine.schedule_s": ctx.spans.total("machine.schedule"),
        "machine.run_s": ctx.spans.total("machine.run"),
        "machine.masked_ops": sims.masked_ops,
        "machine.scalar_instructions": sims.scalar_instructions,
        "phases.assign_s": ctx.spans.total("phases.assign"),
        "core.artifact_load_s": ctx.spans.total("core.artifact_load"),
    })
    if ctx.trace:
        return {}, layers
    walls = {
        key: [ctx.clock.span_s(r) for r in calls]
        for key, calls in records.items()
    }
    for key, calls in records.items():
        log(f"{key}: {len(calls)} timed compiles, raw "
            f"{[round(r['dur'], 2) for r in calls]}s, reference "
            f"{[round(w, 2) for w in walls[key]]}s")
    every = [w for ws in walls.values() for w in ws]
    e2e = {
        "setup_s": setup_s,
        "compile_s": geomean(median(ws) for ws in walls.values()),
        "requests_per_s": len(every) / sum(every),
        "speedup_vs_scalar": geomean(sims.speedups),
        "lane_utilization": sims.lane_utilization,
        "deterministic_stop_share": tally.deterministic_share,
        "peak_rss_mb": peak_rss_mb(),
    }
    return e2e, layers
