"""Shared machinery of the workload runs: timing, checks, digests.

Everything here runs inside the per-run child process that
``run.py`` starts with a cleaned environment.  The workloads
(``fig4.py``, ``offline.py``, ``service.py``) call into the program's
public API and use these helpers to

- time their own calls (:class:`Spans`, kept in memory and written to
  ``.bench_state/traces/`` when a traced run ends);
- express those times in seconds at a fixed reference host speed
  (:class:`HostClock`);
- wrap public functions with spans in traced runs (:func:`instrumented`,
  :func:`timed_passes`);
- count operations and failures (:class:`Ledger`);
- check compiled-program digests against earlier runs of the same
  source tree (:class:`DigestStore`);
- simulate programs and compare outputs with the reference at the
  bench harness tolerances (:func:`run_checked`);
- walk compile reports for stop reasons and the e-graph time split
  (:class:`CompileTally`, :func:`compile_attribution`).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
import time
import traceback
from bisect import bisect_left, bisect_right
from pathlib import Path

STATE_DIR = ".bench_state"


# -- statistics -------------------------------------------------------------


def median(values) -> float:
    """Median of a non-empty sequence."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def geomean(values) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def log(message: str) -> None:
    """Human-readable progress on stderr (stdout carries the result)."""
    print(message, file=sys.stderr, flush=True)


def seeded_inputs(seed: int, key: str, arrays: dict) -> dict:
    """Kernel inputs drawn from ``seed`` alone (string seeding is stable
    across processes, unlike ``hash``)."""
    rng = random.Random(f"{seed}:{key}")
    return {
        name: [round(rng.uniform(-4.0, 4.0), 3) for _ in range(length)]
        for name, length in arrays.items()
    }


# -- host speed ---------------------------------------------------------------

# The probe fills a dict from a shuffled list of PROBE_KEYS ints and
# reads a third of it back: random access over some 15 MB, which slows
# down with the host the way the program's dict-heavy e-graph code does.
PROBE_KEYS = 200_000
# Probe seconds that make one reference second (about what the probe
# took on the 2-vCPU Xeon container this benchmark was written on).
REFERENCE_PROBE_S = 0.2
PROBE_EVERY_S = 0.5
MAX_PROBES = 4
PROBE_SOURCE = f"""
import random, sys, time
for line in sys.stdin:
    start = time.perf_counter()
    keys = list(range({PROBE_KEYS}))
    random.Random(3).shuffle(keys)
    table = {{key: i for i, key in enumerate(keys)}}
    sum(table[key] for key in range(0, {PROBE_KEYS}, 3))
    print(time.perf_counter() - start, flush=True)
"""


class HostClock:
    """Wall seconds rescaled to a fixed reference host speed.

    The shared host's speed moves by tens of percent within minutes,
    in CPU time as much as in wall time, so raw timings of the same
    code disagree from run to run.  A helper process runs a fixed
    probe on request: :meth:`tick` records how long it took.  The
    benchmark waits for it, so the probe never competes with the
    program for a core, and its memory stays out of this process's
    peak RSS.  :meth:`scaled` rescales a timed interval by the probes
    that bracket it, giving seconds on a host where the probe takes
    ``REFERENCE_PROBE_S``.

    Disabled (no helper, :meth:`scaled` returns raw seconds) in traced
    runs, whose per-layer times are raw.
    """

    def __init__(self, enabled: bool = True):
        self.samples: list[tuple[float, float]] = []  # (end time, seconds)
        self._proc = None
        if enabled:
            self._proc = subprocess.Popen(
                [sys.executable, "-c", PROBE_SOURCE],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            self._probe()  # warm-up, not recorded

    def _probe(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the speed probe process exited")
        return float(line)

    def tick(self) -> None:
        """Record one sample: the mean of one probe per ``PROBE_EVERY_S``
        seconds since the last sample (at least one, at most
        ``MAX_PROBES``).

        The host's speed also jitters within a second, which one probe
        catches at a single instant while a multi-second operation
        averages it out; more probes after a longer interval keep the
        sample's own noise from dominating the rescaled time.
        """
        if self._proc is None:
            return
        since = (time.perf_counter() - self.samples[-1][0]
                 if self.samples else 0.0)
        n = min(MAX_PROBES, max(1, round(since / PROBE_EVERY_S)))
        seconds = sum(self._probe() for _ in range(n)) / n
        self.samples.append((time.perf_counter(), seconds))

    def scaled(self, start: float, dur: float) -> float:
        """``dur`` wall seconds from ``start`` in reference seconds, by
        the mean of the last probe before and the first after them."""
        if not self.samples:
            return dur
        ends = [end for end, _ in self.samples]
        before = bisect_right(ends, start) - 1
        after = bisect_left(ends, start + dur)
        near = [self.samples[i][1] for i in (before, after)
                if 0 <= i < len(self.samples)]
        return dur * REFERENCE_PROBE_S / (sum(near) / len(near))

    def span_s(self, record: dict) -> float:
        """A finished :class:`Spans` record's duration, rescaled."""
        return self.scaled(record["start"], record["dur"])

    def close(self) -> None:
        """Stop the helper process and wait for it."""
        if self._proc is None:
            return
        proc, self._proc = self._proc, None
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


# -- spans ------------------------------------------------------------------


class Spans:
    """In-memory spans around the benchmark's calls into the program.

    One record per finished span: name, id, parent id (per thread),
    start, duration and attributes.  Nothing is written until
    :meth:`dump`.
    """

    def __init__(self):
        self.records: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the block; yields the record (``dur`` is set on exit)."""
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "name": name,
            "attrs": attrs,
        }
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["dur"] = time.perf_counter() - record["start"]
            stack.pop()
            self.records.append(record)

    def named(self, name: str) -> list[dict]:
        """Finished records called ``name``."""
        return [r for r in self.records if r["name"] == name]

    def total(self, name: str) -> float:
        """Summed duration of every record called ``name``."""
        return sum(r["dur"] for r in self.named(name))

    def children(self, parent: dict) -> list[dict]:
        """Finished records whose parent is ``parent``."""
        return [r for r in self.records if r["parent"] == parent["id"]]

    def dump(self, path: Path, program_events: list) -> None:
        """Write benchmark spans and program spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.records:
                out.write(json.dumps({"source": "bench", **record},
                                     default=str) + "\n")
            for event in program_events:
                out.write(json.dumps({"source": "program", **event},
                                     default=str) + "\n")


@contextlib.contextmanager
def instrumented(spans: Spans, targets):
    """Wrap ``(owner, attribute, span name)`` callables with spans.

    Used only in traced runs, for public functions the program calls
    internally (``family_compiler``'s stages, the shipped-rule loader).
    The originals are restored on exit.
    """
    saved = []
    for owner, attr, name in targets:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, _fn=original, _name=name, **kwargs):
            with spans.span(_name):
                return _fn(*args, **kwargs)

        setattr(owner, attr, wrapper)
        saved.append((owner, attr, original))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextlib.contextmanager
def timed_passes(spans: Spans):
    """Time each ``kernel_pipeline()`` pass's ``run`` in a span.

    Replaces ``repro.compiler.pipeline.kernel_pipeline`` (which
    ``compile_kernel`` looks up at call time) with one that wraps every
    stock pass in a ``compiler.<pass>`` span; the span also records how
    much extraction time the pass added to the compile report.
    """
    from repro.compiler import pipeline as pipeline_mod

    original = pipeline_mod.kernel_pipeline

    class TimedPass(pipeline_mod.Pass):
        def __init__(self, inner):
            self.inner = inner
            self.name = inner.name

        def run(self, ctx):
            before = ctx.report.extract_time if ctx.report else 0.0
            with spans.span(f"compiler.{self.name}") as record:
                result = self.inner.run(ctx)
            after = ctx.report.extract_time if ctx.report else 0.0
            record["attrs"]["extract_s"] = after - before
            return result

    def timed_kernel_pipeline(schedule: bool = False):
        stock = original(schedule)
        return pipeline_mod.Pipeline([TimedPass(p) for p in stock.passes])

    pipeline_mod.kernel_pipeline = timed_kernel_pipeline
    try:
        yield
    finally:
        pipeline_mod.kernel_pipeline = original


class RunContext:
    """What one workload run gets: its seed, time budget and recorders.

    In a traced run (``trace=True``) :meth:`traced` installs a
    ``repro.obs`` tracer with an in-memory ``ListSink`` plus the
    benchmark's own span wrappers; in an untraced run it does nothing,
    so end-to-end numbers are measured with tracing off.  Untraced
    runs also get a running :class:`HostClock`; :meth:`close` stops it.
    """

    def __init__(self, root: Path, workload: str, seed: int,
                 seconds: float, trace: bool, tmp: Path):
        from repro.obs import ListSink, Tracer

        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tmp = tmp
        self.spans = Spans()
        self.ledger = Ledger()
        self.digests = DigestStore(root)
        self.sink = ListSink()
        self._tracer = Tracer(self.sink)
        self.clock = HostClock(enabled=not trace)

    def close(self) -> None:
        """Stop the run's helper process."""
        self.clock.close()

    @contextlib.contextmanager
    def traced(self, targets=()):
        """Tracing on for the block (traced runs only)."""
        if not self.trace:
            yield
            return
        from repro.obs import use_tracer

        with use_tracer(self._tracer), timed_passes(self.spans), \
                instrumented(self.spans, targets):
            yield

    def setups(self, reps: int, make, discard=None):
        """Set up ``reps`` times (once in traced runs), each between two
        probes; every result but the last goes to ``discard``.

        Returns (last result, median set-up in reference seconds).
        """
        records, result = [], None
        self.clock.tick()
        for rep in range(1 if self.trace else reps):
            if result is not None and discard is not None:
                discard(result)
            with self.spans.span("setup") as record:
                result = make(rep)
            records.append(record)
            self.clock.tick()
        return result, median(self.clock.span_s(r) for r in records)

    @contextlib.contextmanager
    def program_window(self):
        """Yields a list that receives the program spans emitted inside
        the block (empty in untraced runs)."""
        events: list = []
        start = len(self.sink.events)
        try:
            yield events
        finally:
            events.extend(self.sink.events[start:])


# -- operations and failures --------------------------------------------------


class Ledger:
    """Operations attempted and the ones that failed, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def op(self, label: str):
        """One operation; an exception inside it marks it failed.

        Yields a list the block appends failure reasons to; the
        operation counts once however many reasons it collects.
        """
        self.attempted += 1
        reasons: list[str] = []
        try:
            yield reasons
        except Exception as exc:  # one failed op must not stop the run
            reasons.append(f"{type(exc).__name__}: {exc}")
            log(traceback.format_exc())
        if reasons:
            self.failures.append(f"{label}: {'; '.join(reasons)}")
            log(f"FAILED {label}: {'; '.join(reasons)}")

    @property
    def failed(self) -> int:
        """How many operations failed."""
        return len(self.failures)


# -- determinism across runs ----------------------------------------------------


def source_digest(root: Path) -> str:
    """Digest of every file under ``src/`` and ``perfbench/`` (identifies
    the code and the options the benchmark compiles it with)."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*"),
                        *(root / "perfbench").rglob("*")]):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def sha(text: str) -> str:
    """Short sha256 of a string."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class DigestStore:
    """Output digests shared by every run of one source tree.

    The first run to produce an output records its digest; later runs
    (other seeds, other processes, same code) must reproduce it.
    """

    def __init__(self, root: Path):
        self.path = (
            root / STATE_DIR / f"digests-{source_digest(root)}.json"
        )
        try:
            self._known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self._known = {}
        self._dirty = False

    def check(self, key: str, digest: str) -> str | None:
        """``None`` when ``digest`` matches (or is new), else a reason."""
        known = self._known.get(key)
        if known is None:
            self._known[key] = digest
            self._dirty = True
            return None
        if known != digest:
            return f"{key} digest {digest} differs from earlier run's {known}"
        return None

    def save(self) -> None:
        """Persist newly recorded digests (atomic replace)."""
        if not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(self._known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def compiled_digest(compiled) -> str:
    """Digest of a ``CompiledKernel``'s term and machine program."""
    from repro.lang.parser import to_sexpr

    term = sha(to_sexpr(compiled.compiled_term))
    machine = sha("\n".join(str(i) for i in compiled.machine_program.instrs))
    return f"{term}/{machine}"


# -- simulation -----------------------------------------------------------------


def simulate(spans: Spans, spec, program, memory: dict):
    """Schedule and run ``program``; returns the ``SimResult``."""
    from repro.machine.schedule import schedule_program
    from repro.machine.simulator import Machine

    machine = Machine(spec)
    with spans.span("machine.schedule"):
        scheduled = schedule_program(program, machine)
    with spans.span("machine.run"):
        return machine.run(scheduled, memory)


def run_checked(ctx: RunContext, label: str, spec, instance, inputs: dict,
                build):
    """Build a program with ``build() -> (program, scratch arrays)``,
    simulate it on the kernel's inputs and check its output against
    the reference at the bench harness tolerances.

    One ledger operation; returns the ``SimResult``, or ``None`` when
    the operation failed.
    """
    import numpy as np

    from repro.bench.harness import _ATOL, _RTOL
    from repro.kernels.specs import padded_memory, run_reference

    result = None
    with ctx.ledger.op(label) as reasons:
        program, extra_arrays = build()
        memory = padded_memory(instance, inputs)
        for name, size in extra_arrays.items():
            memory[name] = [0.0] * size
        result = simulate(ctx.spans, spec, program, memory)
        got = result.array(instance.program.output)[: instance.output_len]
        want = run_reference(instance, inputs)
        if not np.allclose(got, want, rtol=_RTOL, atol=_ATOL):
            reasons.append(f"output {got[:4]}... != reference "
                           f"{list(want)[:4]}...")
            result = None
    return result


def tight_options():
    """The small saturation budgets ``benchmarks/test_perf_isa.py`` uses
    (elementwise kernels lift in one round, in well under a second).

    Their 2 s wall-clock limits become ``NO_WALL_CLOCK_S``, so only
    the iteration and node limits can stop a call and the output never
    depends on host speed."""
    from repro.compiler.compile import CompileOptions
    from repro.egraph.runner import RunnerLimits

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


# A wall-clock limit no benchmark compile comes near.
NO_WALL_CLOCK_S = 60.0


def scalar_program(instance, spec):
    """The scalar baseline's ``(program, scratch arrays)``."""
    from repro.baselines.scalar import compile_scalar

    return compile_scalar(instance.program, spec), {}


class SimTally:
    """Cycle and lane counters over the compiled programs a run simulates."""

    def __init__(self):
        self.speedups: list[float] = []
        self.lanes_issued = self.lanes_active = 0
        self.masked_ops = self.scalar_instructions = 0

    def add(self, compiled_result, scalar_result, program) -> None:
        """Fold one compiled program's run and its scalar baseline in."""
        if compiled_result is None or scalar_result is None:
            return  # a failed simulation is already on the ledger
        self.speedups.append(scalar_result.cycles / compiled_result.cycles)
        self.lanes_issued += compiled_result.lanes_issued
        self.lanes_active += compiled_result.lanes_active
        self.masked_ops += compiled_result.masked_ops
        self.scalar_instructions += sum(
            1 for instr in program.instrs if instr.opcode.startswith("s.")
        )

    @property
    def lane_utilization(self) -> float:
        """Active over issued vector lanes (1.0 with no vector ops)."""
        if self.lanes_issued == 0:
            return 1.0
        return self.lanes_active / self.lanes_issued


# -- compile reports --------------------------------------------------------------

STOP_KEYS = {
    "saturated": "saturated",
    "iteration-limit": "iteration",
    "node-limit": "node",
    "time-limit": "time",
}


def eqsat_calls(report):
    """``(round index or "optimize", phase, RunnerReport)`` per call."""
    for round_report in report.rounds:
        for phase in ("expansion", "compilation"):
            runner = getattr(round_report, phase)
            if runner is not None:
                yield round_report.index, phase, runner
    if report.optimization is not None:
        yield "optimize", "optimization", report.optimization


class CompileTally:
    """Counters summed over every compile report a workload sees."""

    def __init__(self):
        self.calls = 0
        self.stops = {key: 0 for key in STOP_KEYS.values()}
        self.rounds = 0
        self.match_s = self.index_s = self.rebuild_s = 0.0
        self.runner_s = self.extract_s = 0.0
        self.node_visits = self.iterations = self.unions = 0
        self.peak_nodes = 0

    def add(self, kernel: str, report) -> None:
        """Fold one ``CompileReport`` in, naming any wall-clock stop."""
        self.rounds += len(report.rounds)
        self.extract_s += report.extract_time
        self.peak_nodes = max(self.peak_nodes, report.peak_nodes)
        for where, phase, runner in eqsat_calls(report):
            self.calls += 1
            reason = STOP_KEYS[runner.stop_reason.value]
            self.stops[reason] += 1
            if reason == "time":
                where = "" if where == "optimize" else f" round {where}"
                log(f"time-limit stop: {kernel}{where} {phase}")
            perf = runner.perf
            self.match_s += perf.match_time
            self.index_s += perf.index_time
            self.rebuild_s += perf.rebuild_time
            self.runner_s += runner.elapsed
            self.node_visits += perf.node_visits
            self.iterations += runner.n_iterations
            self.unions += sum(it.n_unions for it in runner.iterations)

    @property
    def deterministic_share(self) -> float:
        """Share of EqSat calls not stopped by the wall clock."""
        return 1.0 - self.stops["time"] / self.calls

    def layer_metrics(self) -> dict:
        """The ``egraph.*`` and ``compiler.rounds`` per-layer values."""
        metrics = {
            "compiler.rounds": self.rounds,
            "egraph.match_s": self.match_s,
            "egraph.index_s": self.index_s,
            "egraph.rebuild_s": self.rebuild_s,
            "egraph.other_s": (
                self.runner_s - self.match_s - self.index_s - self.rebuild_s
            ),
            "egraph.extract_s": self.extract_s,
            "egraph.node_visits": self.node_visits,
            "egraph.iterations": self.iterations,
            "egraph.peak_nodes": self.peak_nodes,
            "egraph.unions": self.unions,
        }
        for key, count in self.stops.items():
            metrics[f"egraph.stops.{key}"] = count
        return metrics


PASSES = ("frontend", "saturate", "optimize", "extract", "validate", "lower")


def compile_attribution(spans: Spans, compile_span: dict, report,
                        round_events: list) -> dict:
    """Split one traced ``compile_kernel`` call and print the residuals.

    Per-pass spans (children of ``compile_span``) must add up to the
    call's wall time; inside ``saturate`` the EqSat rounds plus the
    between-round extraction must add up to the pass.  Both residuals
    are printed and returned, never folded into another bucket.
    ``round_events`` are the program's ``compile.round`` spans from
    this call; rounds that did not lower the extracted cost, and an
    optimization pass that did not lower it either, count as wasted.
    """
    kernel = compile_span["attrs"].get("kernel", "?")
    passes = {p: 0.0 for p in PASSES}
    saturate_extract = 0.0
    for child in spans.children(compile_span):
        name = child["name"].removeprefix("compiler.")
        if name in passes:
            passes[name] += child["dur"]
            if name == "saturate":
                saturate_extract += child["attrs"]["extract_s"]
    wall = compile_span["dur"]
    residual = wall - sum(passes.values())
    rounds_s = sum(
        runner.elapsed
        for where, _phase, runner in eqsat_calls(report)
        if where != "optimize"
    )
    saturate_residual = passes["saturate"] - rounds_s - saturate_extract
    wasted = sum(
        event["dur"]
        for event in round_events
        if event["attrs"]["extracted_cost"] >= event["attrs"]["cost_before"]
    )
    best_loop = min(
        [report.initial_cost] + [r.extracted_cost for r in report.rounds]
    )
    if report.final_cost >= best_loop:
        wasted += passes["optimize"]
    log(
        f"attribution {kernel}: wall {wall:.3f}s = passes "
        f"{sum(passes.values()):.3f}s + residual {residual:.4f}s; "
        f"saturate {passes['saturate']:.3f}s = rounds {rounds_s:.3f}s + "
        f"round extraction {saturate_extract:.3f}s + residual "
        f"{saturate_residual:.4f}s; wasted {wasted:.3f}s"
    )
    metrics = {f"compiler.{p}_s": v for p, v in passes.items()}
    metrics["compiler.residual_s"] = residual
    metrics["compiler.saturate_residual_s"] = saturate_residual
    metrics["compiler.wasted_s"] = wasted
    return metrics


def compile_checked(ctx: RunContext, key: str, compile_fn,
                    tally: CompileTally, layers: dict):
    """One compile operation: time ``compile_fn()``, check the output's
    digest against earlier runs, fold its report into ``tally`` and, in
    traced runs, its attribution into ``layers``.

    Returns ``(CompiledKernel or None, the call's span record)``.
    """
    compiled = None
    with ctx.ledger.op(f"compile {key}") as reasons:
        with ctx.program_window() as events, \
                ctx.spans.span("compile", kernel=key) as call:
            compiled = compile_fn()
        wrong = ctx.digests.check(
            f"{ctx.workload}:{key}", compiled_digest(compiled)
        )
        if wrong:
            reasons.append(wrong)
        tally.add(key, compiled.report)
        if ctx.trace:
            rounds = [e for e in events if e["name"] == "compile.round"]
            add_into(layers, compile_attribution(
                ctx.spans, call, compiled.report, rounds
            ))
    return compiled, call


def add_into(total: dict, part: dict) -> None:
    """Sum ``part``'s values into ``total`` key by key."""
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
