"""Every ``REPRO_*`` flag read in ``src/`` is documented.

The doc contract: ``docs/env_flags.md`` lists each flag with a
``## `REPRO_...``` heading.  This test greps the source tree for
``REPRO_``-prefixed names, so adding a new flag without documenting
it fails CI.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV_FLAGS_DOC = ROOT / "docs" / "env_flags.md"

_FLAG = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")


def _flags_in_tree(tree: Path) -> set[str]:
    found: set[str] = set()
    for path in tree.rglob("*.py"):
        found.update(_FLAG.findall(path.read_text()))
    return found


def test_every_src_flag_is_documented():
    src_flags = _flags_in_tree(ROOT / "src")
    assert src_flags, "expected at least one REPRO_ flag in src/"
    documented = set(_FLAG.findall(ENV_FLAGS_DOC.read_text()))
    missing = src_flags - documented
    assert not missing, (
        f"flags read in src/ but missing from docs/env_flags.md: "
        f"{sorted(missing)}"
    )


def test_documented_flags_have_headings():
    """Each flag gets a real section, not just a passing mention."""
    text = ENV_FLAGS_DOC.read_text()
    documented = set(_FLAG.findall(text))
    for flag in documented:
        assert re.search(rf"^## `{flag}`", text, re.M), (
            f"{flag} appears in docs/env_flags.md without a "
            f"`## \\`{flag}\\`` section heading"
        )


def test_known_flags_present():
    """The flags this PR promises are documented (regression anchor)."""
    text = ENV_FLAGS_DOC.read_text()
    for flag in (
        "REPRO_TRACE",
        "REPRO_PARALLEL",
        "REPRO_SERVICE_PORT",
        "REPRO_SERVICE_WORKERS",
        "REPRO_SERVICE_CACHE",
        "REPRO_SERVICE_TIMEOUT",
    ):
        assert f"## `{flag}`" in text


def test_no_stale_documented_flags():
    """Every documented flag is still read somewhere in ``src/``.

    The reverse sweep: a flag removed from the code must leave the
    docs too, so docs/env_flags.md can't accumulate dead switches.
    """
    live = _flags_in_tree(ROOT / "src") | _flags_in_tree(
        ROOT / "benchmarks"
    )
    documented = set(_FLAG.findall(ENV_FLAGS_DOC.read_text()))
    stale = documented - live
    assert not stale, (
        f"flags documented in docs/env_flags.md but never read in "
        f"src/ or benchmarks/: {sorted(stale)}"
    )
