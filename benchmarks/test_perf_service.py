"""Compile-service load generator: the result cache pays for itself.

Boots a real :class:`~repro.service.server.CompileService` (in-process
background thread, fresh registry) and drives it with N concurrent
clients × M kernels × R rounds — the service analogue of the paper's
"compile the suite" workload, with repetition because real traffic
repeats.  Two properties are asserted:

- **repeat hit rate** — after each kernel's first request, every
  repeat must be answered from the content-addressed result cache or
  the in-flight dedupe map (floor 0.9: at most 10% of repeats may
  slip through to the compile pool);
- **byte identity** — every payload the service returns must equal
  the wire encoding of a direct ``compile_many`` run of the same
  kernel: the service layer must never change an answer.

Latency is reported, not gated: p50/p99 per tier and the warm p50
speedup (cold p50 over warm p50).  That ratio falls whenever compiles
get faster, so a floor on it would fail a change that slows nothing;
compile time is measured by perfbench's A/B runs instead.

Results (latency per tier, hit rates, throughput) go to
``BENCH_service.json`` at the repo root; the floor asserted here is
the acceptance bar and ``tests/test_bench_schemas.py`` holds the
committed numbers to it.  ``docs/service.md`` derives its
capacity-planning notes from this file.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.bench.report import write_bench_json
from repro.compiler.compile import CompileOptions
from repro.compiler.frontend import trace_kernel
from repro.compiler.pipeline import compile_many
from repro.egraph.runner import RunnerLimits
from repro.kernels.specs import kernel_spec_hash
from repro.service import (
    ArtifactRegistry,
    BackgroundServer,
    CompileClient,
    protocol,
)
from repro.service.server import ServiceConfig

_REPO_ROOT = Path(__file__).resolve().parent.parent
_HIT_RATE_FLOOR = 0.9

_N_CLIENTS = 4
_N_ROUNDS = 3


def _workload():
    """M tiny kernels (distinct spec hashes, sub-second compiles)."""
    return [
        trace_kernel(
            "svc-add", lambda a, b: [a[i] + b[i] for i in range(4)],
            {"a": 4, "b": 4}, width=4,
        ),
        trace_kernel(
            "svc-mul", lambda a, b: [a[i] * b[i] for i in range(4)],
            {"a": 4, "b": 4}, width=4,
        ),
        trace_kernel(
            "svc-mac", lambda a, b, c: [a[i] * b[i] + c[i] for i in range(4)],
            {"a": 4, "b": 4, "c": 4}, width=4,
        ),
        trace_kernel(
            "svc-sub", lambda a, b: [a[i] - b[i] for i in range(4)],
            {"a": 4, "b": 4}, width=4,
        ),
    ]


def _options() -> CompileOptions:
    """Tight budgets so the load test measures the service, not eqsat."""
    return CompileOptions(
        max_rounds=1,
        expansion_limits=RunnerLimits(
            max_iterations=2, max_nodes=2_000, time_limit=2.0
        ),
        compilation_limits=RunnerLimits(
            max_iterations=4, max_nodes=4_000, time_limit=2.0
        ),
        optimization_limits=RunnerLimits(
            max_iterations=2, max_nodes=2_000, time_limit=2.0
        ),
    )


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _client_loop(port, kernels, options, rounds, barrier, samples):
    with CompileClient(port=port) as client:
        barrier.wait()
        for _ in range(rounds):
            for kernel in kernels:
                t0 = time.monotonic()
                response = client.compile(kernel, options=options)
                samples.append(
                    {
                        "kernel": kernel.name,
                        "latency_s": time.monotonic() - t0,
                        "cached": response["cached"],
                        "deduped": response["deduped"],
                        "result": response["result"],
                    }
                )


def test_perf_service(benchmark, tmp_path):
    kernels = _workload()
    options = _options()
    registry = ArtifactRegistry(tmp_path / "registry")
    # Bootstrap outside the timed window: artifact publication is a
    # one-time operator step, not part of serving latency.
    registry.entry_for("fusion-g3")

    def experiment():
        samples: list = []
        t0 = time.monotonic()
        with BackgroundServer(
            config=ServiceConfig(port=0),
            registry=registry,
        ) as server:
            barrier = threading.Barrier(_N_CLIENTS)
            per_client = [list() for _ in range(_N_CLIENTS)]
            threads = [
                threading.Thread(
                    target=_client_loop,
                    args=(server.port, kernels, options, _N_ROUNDS,
                          barrier, per_client[i]),
                )
                for i in range(_N_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for client_samples in per_client:
                samples.extend(client_samples)
        return samples, time.monotonic() - t0

    samples, wall_s = benchmark.pedantic(experiment, rounds=1, iterations=1)
    total = len(samples)
    assert total == _N_CLIENTS * _N_ROUNDS * len(kernels)

    cold = [s for s in samples if not s["cached"] and not s["deduped"]]
    warm = [s for s in samples if s["cached"]]
    deduped = [s for s in samples if s["deduped"]]
    # Repeats: everything past each kernel's first request.  A repeat
    # is a hit when the compile pool never saw it (cache or dedupe).
    repeats = total - len(kernels)
    repeat_hits = len(warm) + len(deduped) - max(
        0, len(kernels) - len(cold)
    )
    repeat_hit_rate = repeat_hits / repeats

    cold_p50 = _percentile([s["latency_s"] for s in cold], 0.50)
    warm_p50 = _percentile([s["latency_s"] for s in warm], 0.50)
    warm_p50_speedup = cold_p50 / warm_p50
    all_latencies = [s["latency_s"] for s in samples]

    # Byte identity: every served payload equals a direct compile_many.
    direct = compile_many(
        registry.compiler_for("fusion-g3"), kernels, options=options
    )
    expected = {
        kernel.name: protocol.compiled_to_wire(
            compiled, kernel_spec_hash(kernel)
        )
        for kernel, compiled in zip(kernels, direct)
    }
    identical = all(
        s["result"] == expected[s["kernel"]] for s in samples
    )
    assert identical, "service results diverged from direct compile_many"

    payload = {
        "workload": {
            "clients": _N_CLIENTS,
            "kernels": [k.name for k in kernels],
            "rounds": _N_ROUNDS,
            "requests": total,
            "wall_s": wall_s,
            "requests_per_s": total / wall_s,
        },
        "latency": {
            "p50_s": _percentile(all_latencies, 0.50),
            "p99_s": _percentile(all_latencies, 0.99),
            "cold_p50_s": cold_p50,
            "cold_p99_s": _percentile([s["latency_s"] for s in cold], 0.99),
            "warm_p50_s": warm_p50,
            "warm_p99_s": _percentile([s["latency_s"] for s in warm], 0.99),
        },
        "tiers": {
            "compiled": len(cold),
            "cache_hits": len(warm),
            "deduped": len(deduped),
        },
        "repeat_hit_rate": repeat_hit_rate,
        "warm_p50_speedup": warm_p50_speedup,
        "identical_to_compile_many": identical,
    }
    write_bench_json(
        _REPO_ROOT / "BENCH_service.json",
        "compile-service",
        payload,
        floors={"repeat_hit_rate": _HIT_RATE_FLOOR},
    )
    print(
        f"\nservice load: {total} requests from {_N_CLIENTS} clients in "
        f"{wall_s:.2f}s ({total / wall_s:.1f} req/s)\n"
        f"tiers: {len(cold)} compiled, {len(warm)} cache hits, "
        f"{len(deduped)} deduped -> repeat hit rate "
        f"{repeat_hit_rate:.3f}\n"
        f"latency: cold p50 {cold_p50 * 1e3:.1f}ms, warm p50 "
        f"{warm_p50 * 1e3:.1f}ms = {warm_p50_speedup:.1f}x"
    )
    assert repeat_hit_rate >= _HIT_RATE_FLOOR, (
        f"repeat hit rate {repeat_hit_rate:.3f} below {_HIT_RATE_FLOOR}"
    )
