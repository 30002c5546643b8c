"""Workload ``service-masked-w8``: many short requests to the service.

An in-process ``BackgroundServer`` with one worker and a fresh
``ArtifactRegistry`` under the run's temporary directory.  Set-up
starts the server, bootstraps the masked-w8 compiler through the
registry (``family_compiler``: re-generalize, cost-prune, assign
phases, publish) and connects the clients; it is repeated
``SETUP_REPS`` times and the median reported.

A pass is a closed loop: ``CLIENTS`` threads of one process, each on
its own connection, take requests in turn from one shared fixed
order until none is left.  The order holds every kernel of a fixed
pool ``REPEATS`` times; the pool mixes elementwise and dot-product
kernels, most with lengths that are not a multiple of the 8 lanes,
compiled under tight options.  The order is served in chunks of
``CHUNK`` requests with a host-speed probe after each chunk.  Passes
repeat (with the result cache emptied in between) until the run's
time is used.

Afterwards every kernel is compiled directly with ``compile_many``,
with a probe after each compile;
each served payload must equal that direct result, and the direct
program is simulated and checked against the reference.  A request is
one client round trip.
"""

from __future__ import annotations

import random
import shutil
import threading
import time
from collections import deque

from common import (
    CompileTally,
    SimTally,
    compile_checked,
    geomean,
    log,
    median,
    peak_rss_mb,
    percentile,
    run_checked,
    scalar_program,
    seeded_inputs,
    tight_options,
)

ISA = "masked-w8"
WIDTH = 8
CLIENTS = 2
REPEATS = 4
SETUP_REPS = 3
CHUNK_TIMEOUT_S = 60.0
# The request order is one fixed shuffle, so every run serves the same
# traffic: seeded orders moved dedupe hits (0-8) and batch counts from
# run to run.  The run's seed picks the kernel inputs.
ORDER_SEED = 0
# Requests served between two host-speed probes.
CHUNK = 10

ELEMENTWISE = {
    "add": (("a", "b"), lambda a, b, i: a[i] + b[i]),
    "sub": (("a", "b"), lambda a, b, i: a[i] - b[i]),
    "mul": (("a", "b"), lambda a, b, i: a[i] * b[i]),
    "mac": (("a", "b", "c"), lambda a, b, c, i: a[i] * b[i] + c[i]),
    "msub": (("a", "b", "c"), lambda a, b, c, i: a[i] * b[i] - c[i]),
    "addmul": (("a", "b", "c"), lambda a, b, c, i: (a[i] + b[i]) * c[i]),
}
ELEMENTWISE_LENGTHS = (5, 7, 9, 11, 13, 16, 19)
DOT_LENGTHS = (5, 7, 9, 11, 12, 13, 15, 17)


def _instance(name: str, arrays: tuple, length: int, fn):
    """A ``KernelInstance`` whose reference reuses the kernel body."""
    import numpy as np

    from repro.compiler.frontend import trace_kernel
    from repro.kernels.specs import KernelInstance

    program = trace_kernel(
        name, fn, {a: length for a in arrays}, width=WIDTH
    )
    return KernelInstance(
        key=name,
        family="service",
        params={"length": length},
        program=program,
        reference=lambda inputs: np.asarray(
            fn(*(inputs[a] for a in arrays)), dtype=float
        ),
    )


def _pool() -> list:
    """The fixed kernel pool (50 distinct kernels)."""
    pool = []
    for length in ELEMENTWISE_LENGTHS:
        for op, (arrays, body) in ELEMENTWISE.items():
            pool.append(_instance(
                f"ew-{op}-{length}", arrays, length,
                lambda *xs, body=body, n=length: [
                    body(*xs, i) for i in range(n)
                ],
            ))
    for length in DOT_LENGTHS:
        pool.append(_instance(
            f"dot-{length}", ("a", "b"), length,
            lambda a, b, n=length: [
                sum((a[i] * b[i] for i in range(1, n)), a[0] * b[0])
            ],
        ))
    return pool


class _Service:
    """One started server, its registry entry and client connections."""

    def __init__(self, ctx, rep: int):
        from repro.service import ArtifactRegistry, BackgroundServer
        from repro.service.client import CompileClient
        from repro.service.server import ServiceConfig

        self.registry = ArtifactRegistry(ctx.tmp / f"registry-{rep}")
        self.server = BackgroundServer(
            ServiceConfig(port=0, workers=1), registry=self.registry
        )
        self.clients = []
        self.server.__enter__()
        try:
            with ctx.spans.span("registry.entry_for"):
                self.entry = self.registry.entry_for(ISA)
            for _ in range(CLIENTS):
                client = CompileClient(port=self.server.port)
                self.clients.append(client)
                client.__enter__()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close the connections, stop the server, drop the registry."""
        for client in self.clients:
            client.close()
        self.server.stop()
        shutil.rmtree(self.registry.root, ignore_errors=True)


def _chunk(ctx, service, order: list) -> tuple[list, list, dict]:
    """Serve ``order`` closed-loop over every client connection.

    Returns (samples, errors, the chunk's span record); a sample is
    ``(kernel key, request span record, cached, deduped, payload)``.
    """
    options = tight_options()
    queue = deque(order)
    lock = threading.Lock()
    samples: list = []
    errors: list = []

    def loop(client):
        while True:
            with lock:
                if not queue:
                    return
                instance = queue.popleft()
            try:
                with ctx.spans.span("client.compile",
                                    kernel=instance.key) as call:
                    response = client.compile(
                        instance.program, isa=ISA, options=options
                    )
            except Exception as exc:  # counted as a failed request
                errors.append((instance.key, f"{type(exc).__name__}: {exc}"))
                continue
            samples.append((instance.key, call, response["cached"],
                            response["deduped"], response["result"]))

    threads = [
        threading.Thread(target=loop, args=(client,), daemon=True)
        for client in service.clients
    ]
    with ctx.spans.span("chunk") as chunk:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(CHUNK_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"a client did not finish in {CHUNK_TIMEOUT_S}s")
    return samples, errors, chunk


def _direct(ctx, service, pool, tally, sims, layers) -> tuple[dict, list]:
    """Compile every pool kernel directly, simulate and check it.

    Returns (expected wire payload per kernel, compile span records).
    A probe follows each compile.
    """
    from repro.compiler.pipeline import compile_many
    from repro.kernels.specs import kernel_spec_hash
    from repro.service import protocol

    compiler = service.entry.compiler
    spec = compiler.spec
    options = tight_options()
    expected, calls = {}, []
    for instance in pool:
        key = instance.key
        compiled, call = compile_checked(
            ctx, key,
            lambda: compile_many(compiler, [instance.program], options,
                                 True, 1)[0],
            tally, layers,
        )
        calls.append(call)
        ctx.clock.tick()
        if compiled is None:
            continue
        expected[key] = protocol.compiled_to_wire(
            compiled, kernel_spec_hash(instance.program)
        )
        data = seeded_inputs(ctx.seed, key, instance.arrays)
        vector = run_checked(ctx, f"simulate isaria {key}", spec, instance,
                             data, lambda: (compiled.machine_program, {}))
        scalar = run_checked(ctx, f"simulate scalar {key}", spec, instance,
                             data, lambda: scalar_program(instance, spec))
        sims.add(vector, scalar, compiled.machine_program)
    return expected, calls


def _untraced_direct_s(service, pool) -> float:
    """Wall of the direct compiles with tracing off (overhead baseline)."""
    from repro.compiler.pipeline import compile_many

    options = tight_options()
    start = time.perf_counter()
    for instance in pool:
        compile_many(service.entry.compiler, [instance.program], options,
                     True, 1)
    return time.perf_counter() - start


def _reload(ctx, service) -> None:
    """A fresh registry on the same root must load the published
    artifact, not bootstrap again."""
    from repro.service import ArtifactRegistry

    with ctx.ledger.op("registry reload") as reasons:
        registry = ArtifactRegistry(service.registry.root)
        if registry.find_artifact(registry.spec_for(ISA)) is None:
            reasons.append("published artifact not found")
        with ctx.spans.span("core.artifact_load"):
            entry = registry.entry_for(ISA)
        if entry.fingerprint != service.entry.fingerprint:
            reasons.append("reloaded artifact has another fingerprint")
        if len(entry.compiler.ruleset) != len(service.entry.compiler.ruleset):
            reasons.append("reloaded artifact has another rule count")


def run(ctx):
    """One ``service-masked-w8`` run; returns (end-to-end, per-layer).

    The end-to-end metrics are empty in traced runs.
    """
    from repro.core import pregen
    from repro.ruler import cost_prune, lanes
    from repro.service import ArtifactRegistry

    layers: dict = {}
    tally = CompileTally()
    sims = SimTally()
    targets = [
        (pregen, "family_compiler", "core.family_compiler"),
        (pregen, "assign_phases", "phases.assign"),
        (lanes, "generalize_rules", "ruler.generalize"),
        (cost_prune, "cost_prune_rules", "ruler.cost_prune"),
        (ArtifactRegistry, "publish", "core.artifact_save"),
    ]
    service = None
    samples, errors, chunks = [], [], []
    passes = 0
    try:
        with ctx.traced(targets):
            (pool, service), setup_s = ctx.setups(
                SETUP_REPS, lambda rep: (_pool(), _Service(ctx, rep)),
                discard=lambda result: result[1].close(),
            )
            order = [inst for inst in pool for _ in range(REPEATS)]
            random.Random(ORDER_SEED).shuffle(order)
            start = time.perf_counter()
            while True:
                for at in range(0, len(order), CHUNK):
                    got, failed, chunk = _chunk(ctx, service,
                                                order[at:at + CHUNK])
                    samples.extend(got)
                    errors.extend(failed)
                    chunks.append(chunk)
                    ctx.clock.tick()
                passes += 1
                if ctx.trace or time.perf_counter() - start >= ctx.seconds:
                    break
                shutil.rmtree(service.registry.results_dir)
            stats = service.clients[0].stats()
        untraced_s = _untraced_direct_s(service, pool) if ctx.trace else 0.0
        with ctx.traced():
            expected, direct = _direct(ctx, service, pool, tally, sims,
                                       layers)
        _reload(ctx, service)
    finally:
        if service is not None:
            service.close()

    for key, _call, _cached, _deduped, payload in samples:
        with ctx.ledger.op(f"request {key}") as reasons:
            if payload != expected.get(key):
                reasons.append("payload differs from direct compile_many")
    for key, error in errors:
        with ctx.ledger.op(f"request {key}") as reasons:
            reasons.append(error)

    latencies = [s[1]["dur"] for s in samples]
    hits = [s[1]["dur"] for s in samples if s[2]]
    compiles = [s[1]["dur"] for s in samples if not s[2] and not s[3]]
    wall = sum(c["dur"] for c in chunks)
    log(f"{len(samples)} requests in {passes} pass(es), {wall:.2f}s; "
        f"hit p50 {median(hits) * 1e3:.2f}ms, compile p50 "
        f"{median(compiles) * 1e3:.1f}ms; stats {stats}")
    layers.update(tally.layer_metrics())
    layers.update({
        "machine.schedule_s": ctx.spans.total("machine.schedule"),
        "machine.run_s": ctx.spans.total("machine.run"),
        "machine.masked_ops": sims.masked_ops,
        "machine.scalar_instructions": sims.scalar_instructions,
        "ruler.generalize_s": ctx.spans.total("ruler.generalize"),
        "ruler.cost_prune_s": ctx.spans.total("ruler.cost_prune"),
        "phases.assign_s": ctx.spans.total("phases.assign"),
        "core.family_compiler_s": ctx.spans.total("core.family_compiler"),
        "core.artifact_save_s": ctx.spans.total("core.artifact_save"),
        "core.artifact_load_s": ctx.spans.total("core.artifact_load"),
        "service.request_p95_s": percentile(latencies, 95),
        "service.hit_p50_s": median(hits),
        "service.compile_p50_s": median(compiles),
        "service.cache_hits": stats["cache_hits"],
        "service.dedup_hits": stats["dedup_hits"],
        "service.compiled": stats["compiled"],
        "service.batches": stats["batches"],
        "service.batch_size": stats["compiled"] / stats["batches"],
        "service.queue_s": sum(
            e["attrs"]["queue_s"] for e in ctx.sink.events
            if e["name"] == "service.request"
        ),
        "service.hit_rate": (len(samples) - len(compiles)) / len(samples),
    })
    if ctx.trace:
        traced_s = sum(call["dur"] for call in direct)
        layers["trace.overhead_s"] = traced_s - untraced_s
        log(f"tracing overhead on the direct compiles: {traced_s:.2f}s "
            f"traced vs {untraced_s:.2f}s untraced")
        return {}, layers
    e2e = {
        "setup_s": setup_s,
        "compile_s": geomean(ctx.clock.span_s(call) for call in direct),
        "requests_per_s": len(samples) / sum(
            ctx.clock.span_s(chunk) for chunk in chunks
        ),
        "speedup_vs_scalar": geomean(sims.speedups),
        "lane_utilization": sims.lane_utilization,
        "deterministic_stop_share": tally.deterministic_share,
        "peak_rss_mb": peak_rss_mb(),
    }
    return e2e, layers
