"""Structured tracing for the compile pipeline (observability).

Every stage of the pipeline — offline rule synthesis, phase
assignment, each bounded ``EqSat`` call (and each of its iterations),
extraction, lowering, and instruction scheduling — reports what it did
as a tree of *spans*.  A span has a name, a wall-clock start and
duration, and a payload of counters (rules fired, e-nodes/e-classes,
match budget spent, prune decisions, ...).  Compiling one kernel with
tracing enabled yields a single coherent trace covering the whole
Fig. 3 loop, which ``python -m repro.tools.trace_report`` renders as a
timeline table.

Tracing is **off by default** and costs nothing when off: every
instrumentation site asks :func:`current_tracer` for the process-wide
tracer, and with tracing disabled that returns a singleton
:class:`NullTracer` whose spans are shared no-op objects.  Guard any
payload *construction* that is itself expensive behind
``span.enabled``.

Enable via the ``REPRO_TRACE`` environment variable:

- unset / ``0`` — disabled (the default);
- ``1`` / ``stderr`` — spans are printed to stderr as JSONL;
- any other value — treated as a file path; spans are appended as
  JSONL (append mode, so offline synthesis and per-kernel compiles
  accumulate into one trace file).

or programmatically, e.g. in tests::

    from repro.obs import Tracer, ListSink, use_tracer

    sink = ListSink()
    with use_tracer(Tracer(sink)):
        compiler.compile_kernel(program)
    assert any(e["name"] == "eqsat" for e in sink.events)

Counter blocks add up through :func:`merge_counters` (numbers add,
dicts add key by key), and ``dataclasses.asdict`` is their payload
form.  See ``docs/observability.md`` for the span schema and a worked
example.
"""

from repro.obs.counters import merge_counters
from repro.obs.sinks import JsonlFileSink, ListSink, NullSink, StderrSink
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    set_tracer,
    tracer_from_env,
    use_tracer,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "set_tracer",
    "use_tracer",
    "tracer_from_env",
    "NullSink",
    "ListSink",
    "StderrSink",
    "JsonlFileSink",
    "merge_counters",
]
