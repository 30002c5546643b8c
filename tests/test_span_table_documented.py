"""Every span name emitted in ``src/`` is in the span table.

The doc contract: the "Span names and payloads" table of
``docs/observability.md`` is the legend of the trace report's
per-phase rollup, which prints whatever spans a trace holds.  This
test collects the span names passed as string literals to
``.span(...)`` and ``.record(...)`` under ``src/``, so emitting a new
span without documenting it fails CI.  Names built at run time
(``pass.<name>``, ``<layer>.corrupt``) are documented by hand.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OBSERVABILITY_DOC = ROOT / "docs" / "observability.md"

_EMIT = re.compile(r"\.(?:span|record)\(\s*\"([^\"]+)\"")
_CODE = re.compile(r"`([^`]+)`")


def _emitted_names() -> set[str]:
    found: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        found.update(_EMIT.findall(path.read_text()))
    return found


def _documented_names() -> set[str]:
    text = OBSERVABILITY_DOC.read_text()
    table = text.split("## Span names and payloads", 1)[1].split("\n## ", 1)[0]
    names: set[str] = set()
    for line in table.splitlines():
        if line.startswith("| `"):
            names.update(_CODE.findall(line.split("|")[1]))
    return names


def test_every_emitted_span_is_in_the_table():
    missing = _emitted_names() - _documented_names()
    assert not missing, (
        "spans emitted in src/ but missing from the span table of "
        f"docs/observability.md: {sorted(missing)}"
    )


def test_collector_sees_every_layer():
    """The source sweep finds spans of every layer (regression anchor
    for the pattern, which must see names on the line after the call)."""
    names = _emitted_names()
    for name in ("eqsat", "synthesize.cost_prune", "machine.run",
                 "service.request", "registry.publish", "compile_kernel"):
        assert name in names
