"""The tracer: nested spans with counter payloads.

Design constraints (in priority order):

1. **Zero overhead when disabled.**  Instrumentation sites run inside
   the saturation loop; with tracing off they must cost one function
   call, no allocation.  :data:`NULL_TRACER` therefore hands out a
   single shared :class:`NullSpan` whose every method is a no-op, and
   exposes ``enabled = False`` so callers can skip building expensive
   payloads altogether.
2. **Exception safety.**  Spans are context managers; a span that
   exits on an exception is still emitted (flagged ``"error"``), so a
   crashed compile leaves a readable partial trace.
3. **Retroactive spans.**  Pipeline stages that already measure their
   own stage times (e.g. :func:`repro.ruler.synthesize.synthesize_rules`)
   can report them via :meth:`Tracer.record` without restructuring
   their timing code.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time

from repro.obs.sinks import JsonlFileSink, NullSink, StderrSink

_FALSY = ("", "0", "false", "no", "off")
_STDERR = ("1", "true", "yes", "on", "stderr")


class Span:
    """One timed, named region of the pipeline.

    Use as a context manager (via :meth:`Tracer.span`); call
    :meth:`add` to attach counters to the payload at any point before
    exit.  ``enabled`` is ``True`` on real spans and ``False`` on the
    shared null span, so hot paths can guard payload construction.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "attrs",
        "_tracer", "_wall", "_t0", "duration",
    )

    enabled = True

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: int | None, attrs: dict):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._tracer = tracer
        self._wall = time.time()
        self._t0 = time.perf_counter()
        self.duration: float | None = None

    def add(self, **attrs) -> "Span":
        """Merge counters into this span's payload; returns ``self``."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish(error=exc_type is not None)
        return False

    def finish(self, error: bool = False) -> None:
        """Stop the clock and emit the span (idempotent)."""
        if self.duration is not None:
            return
        self.duration = time.perf_counter() - self._t0
        if error:
            self.attrs["error"] = True
        self._tracer._finish(self)


class NullSpan:
    """The shared do-nothing span handed out when tracing is off."""

    __slots__ = ()

    enabled = False
    name = ""
    attrs: dict = {}
    duration = 0.0

    def add(self, **attrs) -> "NullSpan":
        """Ignore the payload; returns ``self``."""
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def finish(self, error: bool = False) -> None:
        """Nothing to emit."""


_NULL_SPAN = NullSpan()


class Tracer:
    """Produces nested spans and emits them to a sink as they finish.

    Nesting is tracked per thread: a span opened while another is open
    becomes its child (worker processes each build their own tracer
    from ``REPRO_TRACE``, so cross-process traces share a file, not a
    parent chain).  Events are emitted at span *finish*, so children
    appear in the output before their parents; consumers rebuild the
    tree from ``id``/``parent`` (see ``repro.tools.trace_report``).
    """

    enabled = True

    def __init__(self, sink=None):
        self.sink = sink if sink is not None else NullSink()
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    # -- span lifecycle --------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """Open a child span of the innermost open span on this thread.

        Returns the :class:`Span` (a context manager — exiting the
        ``with`` block finishes and emits it).
        """
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        span = Span(self, name, span_id, parent_id, dict(attrs))
        stack.append(span)
        return span

    def record(self, name: str, duration: float, **attrs) -> None:
        """Emit an already-measured span of ``duration`` seconds.

        For stages that time themselves: the span is stamped as ending
        *now* and starting ``duration`` ago, and is parented under the
        innermost open span.
        """
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        span = Span(self, name, span_id, parent_id, dict(attrs))
        span._wall -= duration
        span.duration = duration
        self.sink.emit(self._event(span))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        # Pop through abandoned children (a span leaked by an exception
        # swallowed between enter and exit) so nesting self-heals.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        self.sink.emit(self._event(span))

    @staticmethod
    def _event(span: Span) -> dict:
        event = {
            "name": span.name,
            "id": span.span_id,
            "ts": span._wall,
            "dur": span.duration,
        }
        if span.parent_id is not None:
            event["parent"] = span.parent_id
        if span.attrs:
            event["attrs"] = span.attrs
        return event

    def close(self) -> None:
        """Close the sink (flush file sinks)."""
        self.sink.close()


class NullTracer:
    """The disabled tracer: every span is the shared null span."""

    enabled = False
    sink = NullSink()

    def span(self, name: str, **attrs) -> NullSpan:
        """Return the shared no-op span."""
        return _NULL_SPAN

    def record(self, name: str, duration: float, **attrs) -> None:
        """Discard the measurement."""

    def close(self) -> None:
        """Nothing to close."""


NULL_TRACER = NullTracer()

# Explicit tracer (set_tracer/use_tracer) wins over the environment;
# the env-derived tracer is cached per REPRO_TRACE value so repeated
# current_tracer() calls cost one dict lookup and one comparison.
_explicit: Tracer | NullTracer | None = None
_env_cache: tuple[str | None, Tracer | NullTracer] = (None, NULL_TRACER)


def tracer_from_env(value: str | None = None) -> Tracer | NullTracer:
    """Build the tracer ``REPRO_TRACE`` (or ``value``) asks for.

    Falsy (unset/``0``/``off``) → :data:`NULL_TRACER`; ``1``/``stderr``
    → a tracer printing JSONL to stderr; anything else → a tracer
    appending JSONL to that file path.
    """
    if value is None:
        value = os.environ.get("REPRO_TRACE", "")
    value = value.strip()
    if value.lower() in _FALSY:
        return NULL_TRACER
    if value.lower() in _STDERR:
        return Tracer(StderrSink())
    return Tracer(JsonlFileSink(value))


def current_tracer() -> Tracer | NullTracer:
    """The process-wide tracer every instrumentation site consults.

    An explicitly installed tracer (:func:`set_tracer` /
    :func:`use_tracer`) takes precedence; otherwise the tracer derives
    from ``REPRO_TRACE``, re-read on every call (cheap, and lets tests
    monkeypatch the environment) but rebuilt only when it changes.

    A rebuild closes the tracer it replaces, so a trace file is closed
    as soon as ``REPRO_TRACE`` stops naming it.  A span opened on the
    old tracer and still open on another thread finishes into that
    tracer all the same: its file sink reopens the old file to append
    the event, and that handle is then left to garbage collection.
    """
    if _explicit is not None:
        return _explicit
    global _env_cache
    raw = os.environ.get("REPRO_TRACE", "")
    cached_value, cached_tracer = _env_cache
    if raw == cached_value:
        return cached_tracer
    cached_tracer.close()
    tracer = tracer_from_env(raw)
    _env_cache = (raw, tracer)
    return tracer


def set_tracer(tracer: Tracer | NullTracer | None) -> None:
    """Install ``tracer`` process-wide (``None`` reverts to the env)."""
    global _explicit
    _explicit = tracer


@contextlib.contextmanager
def use_tracer(tracer: Tracer | NullTracer):
    """Context manager: install ``tracer`` for the dynamic extent.

    The previous explicit tracer (usually none) is restored on exit;
    the tracer's sink is *not* closed, so callers can keep asserting
    against it.
    """
    global _explicit
    previous = _explicit
    _explicit = tracer
    try:
        yield tracer
    finally:
        _explicit = previous
