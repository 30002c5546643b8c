"""One-line old-vs-new comparison per ``BENCH_*.json`` benchmark.

CI's perf job regenerates the BENCH files in the worktree; the
committed versions (``git show HEAD:<file>``) are the previous
numbers.  This tool prints a compact per-bench line so the job log
answers "did this PR move the needle" without downloading artifacts::

    BENCH_minimize.json       ruleset_reduction_rate 0.36 (was 0.33, +9%)  [floors: ruleset_reduction_rate≥0.2]

Usage::

    python -m repro.tools.bench_summary [--root DIR] [--ref HEAD]

Exit code is 0 even when a speedup regressed — the floors asserted by
the benchmarks themselves are the gate; this is a reporting surface.
A file with no committed counterpart (a brand-new bench) is reported
as ``new``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def _speedups(doc: dict) -> dict[str, float]:
    """Flatten every comparable metric out of a bench document.

    Picks up numeric ``speedup`` / ``*_speedup`` ratios and ``*_rate``
    fractions.  Keys are dotted paths into ``results`` (the top-level
    ``speedup`` flattens to just ``speedup``), so benches with one
    global ratio and benches with per-workload ratios both summarize
    uniformly.
    """
    found: dict[str, float] = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "speedup" and isinstance(value, (int, float)):
                    found[".".join(path) or "speedup"] = float(value)
                elif key.endswith(("_speedup", "_rate")) and isinstance(
                    value, (int, float)
                ):
                    found[".".join(path + [key])] = float(value)
                else:
                    walk(value, path + [key])

    walk(doc.get("results", {}), [])
    return found


def _committed_doc(path: Path, ref: str, root: Path) -> dict | None:
    """The bench document at ``ref``, or ``None`` if it wasn't there."""
    try:
        blob = subprocess.run(
            ["git", "show", f"{ref}:{path.relative_to(root)}"],
            cwd=root, capture_output=True, check=True,
        ).stdout
        return json.loads(blob)
    except (subprocess.CalledProcessError, OSError, ValueError):
        return None


def summary_line(path: Path, new: dict, old: dict | None) -> str:
    """The one-line comparison for one bench file."""
    parts = [f"{path.name:24s}"]
    old_speedups = _speedups(old) if old else {}
    for key, value in sorted(_speedups(new).items()):
        # Rates are fractions, not ratios — no "x" suffix.
        unit = "" if key.endswith("_rate") else "x"
        cell = f"{key} {value:.2f}{unit}"
        was = old_speedups.get(key)
        if was:
            delta = (value - was) / was * 100.0
            cell += f" (was {was:.2f}{unit}, {delta:+.0f}%)"
        elif old is None:
            cell += " (new)"
        parts.append(cell)
    floors = new.get("floors") or {}
    if floors:
        text = ", ".join(
            f"{k}≥{v}" for k, v in sorted(floors.items())
        )
        parts.append(f"[floors: {text}]")
    return "  ".join(parts)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.bench_summary",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--root", type=Path, default=Path.cwd(),
        help="repo root holding the BENCH_*.json files (default: cwd)",
    )
    parser.add_argument(
        "--ref", default="HEAD",
        help="git ref supplying the old numbers (default: HEAD)",
    )
    args = parser.parse_args(argv)
    paths = sorted(args.root.glob("BENCH_*.json"))
    if not paths:
        print(f"no BENCH_*.json files under {args.root}", file=sys.stderr)
        return 1
    for path in paths:
        try:
            new = json.loads(path.read_text())
        except ValueError as exc:
            print(f"{path.name}: unreadable ({exc})", file=sys.stderr)
            return 1
        old = _committed_doc(path, args.ref, args.root)
        print(summary_line(path, new, old))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
