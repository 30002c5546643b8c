"""Span sinks: where finished spans go.

A sink is anything with ``emit(event: dict)`` (and an optional
``close()``).  The tracer calls ``emit`` once per span, when the span
finishes; the event dict is already JSON-ready (see
``docs/observability.md`` for the schema).
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path


class NullSink:
    """Discards every event (the sink behind :class:`NullTracer`)."""

    def emit(self, event: dict) -> None:
        """Drop ``event``."""

    def close(self) -> None:
        """Nothing to release."""


class ListSink:
    """Collects events in memory — the sink tests assert against."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        """Append ``event`` to :attr:`events`."""
        self.events.append(event)

    def close(self) -> None:
        """Nothing to release (events stay available)."""

    def by_name(self, name: str) -> list[dict]:
        """All collected events with span name ``name``."""
        return [e for e in self.events if e.get("name") == name]


class StderrSink:
    """Writes one JSON line per span to stderr (``REPRO_TRACE=1``)."""

    def emit(self, event: dict) -> None:
        """Print ``event`` as one JSON line on stderr."""
        print(json.dumps(event, default=str), file=sys.stderr)

    def close(self) -> None:
        """stderr is not ours to close."""


class JsonlFileSink:
    """Appends one JSON line per span to a file (``REPRO_TRACE=path``).

    The file is opened lazily on the first event and in append mode,
    so separate pipeline stages (or worker processes, each re-reading
    ``REPRO_TRACE`` from its environment) accumulate into one trace.
    Each event is written with a single ``write`` call and flushed, so
    concurrent appenders interleave whole lines, not fragments.  A lock
    orders ``emit`` and ``close``, so a span finishing on one thread
    while another closes the sink still writes its whole line.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._file = None
        self._lock = threading.Lock()

    def emit(self, event: dict) -> None:
        """Append ``event`` as one JSON line (opens the file lazily)."""
        line = json.dumps(event, default=str) + "\n"
        with self._lock:
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._file = self.path.open("a")
            self._file.write(line)
            self._file.flush()

    def close(self) -> None:
        """Close the underlying file (re-opens on the next emit)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
