"""The span table and the spans emitted in ``src/`` name the same spans.

The doc contract: the "Span names and payloads" table of
``docs/observability.md`` is the legend of the trace report's
per-phase rollup, which prints whatever spans a trace holds.  This
test collects the span names passed as string literals to
``.span(...)`` and ``.record(...)`` under ``src/``, so emitting a new
span without documenting it fails CI, and so does a row whose span
nothing emits any more.  The one name built at run time,
``pass.<name>``, is a pattern row documented by hand.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OBSERVABILITY_DOC = ROOT / "docs" / "observability.md"

_EMIT = re.compile(r"\.(?:span|record)\(\s*\"([^\"]+)\"")
_CODE = re.compile(r"`([^`]+)`")

#: Rows naming spans built at run time, which no string literal emits.
_PATTERN_ROWS = {"pass.<name>"}


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


def test_no_stale_documented_spans():
    """Every row of the span table is still emitted in ``src/``.

    The reverse sweep: a span removed from the code must leave the
    table too, so the legend can't accumulate dead rows.
    """
    stale = _documented_names() - _emitted_names() - _PATTERN_ROWS
    assert not stale, (
        "spans in the span table of docs/observability.md that no "
        f"string literal in src/ emits: {sorted(stale)}"
    )


def test_collector_sees_every_layer():
    """The source sweep finds spans of every layer (regression anchor
    for the pattern, which must see names on the line after the call)."""
    names = _emitted_names()
    for name in ("eqsat", "synthesize.cost_prune", "machine.run",
                 "service.request", "registry.publish", "compile_kernel"):
        assert name in names
