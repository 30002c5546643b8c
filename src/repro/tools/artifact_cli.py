"""``repro-artifact``: build / inspect / compile with compiler artifacts.

The command-line face of the offline↔online split (paper §5.3).
``build`` runs the offline stage once and writes a
:class:`~repro.core.artifact.CompilerArtifact` file; ``inspect``
prints its provenance; ``compile`` loads it and drives the online
pass pipeline over kernels from the bundled suite — without ever
re-running rule synthesis or phase assignment.

    python -m repro.tools.artifact_cli build -o fusion.json --pregen
    python -m repro.tools.artifact_cli inspect fusion.json
    python -m repro.tools.artifact_cli compile fusion.json --jobs 4

(Installed entry point: ``repro-artifact``.)
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.compiler.compile import CompileOptions
from repro.egraph.runner import RunnerLimits


def _quick_options() -> CompileOptions:
    """Reduced saturation limits for smoke runs (CI, tests)."""
    return CompileOptions(
        max_rounds=4,
        expansion_limits=RunnerLimits(
            max_iterations=4, max_nodes=12_000, time_limit=6.0
        ),
        compilation_limits=RunnerLimits(
            max_iterations=10, max_nodes=20_000, time_limit=8.0
        ),
        optimization_limits=RunnerLimits(
            max_iterations=5, max_nodes=12_000, time_limit=5.0
        ),
    )


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.core.artifact import CompilerArtifact
    from repro.isa import fusion_g3_spec
    from repro.ruler.synthesize import SynthesisConfig

    spec = fusion_g3_spec()
    config = SynthesisConfig(max_term_size=args.term_size)
    t0 = time.monotonic()
    if args.pregen:
        # The shipped rule set: phase assignment still runs (cheap),
        # synthesis does not — the CI fast path.
        import dataclasses as _dc

        from repro.core.pregen import (
            DEFAULT_RULES_FILE,
            FULL_RULES_FILE,
            default_compiler,
            load_pregenerated_rules,
        )
        from repro.ruler.cost_prune import (
            cost_model_digest,
            legacy_costprune_requested,
        )

        compiler = default_compiler(spec=spec)
        artifact = CompilerArtifact.from_compiler(
            compiler,
            config=config,
            provenance={"source": "pregenerated"},
        )
        if not legacy_costprune_requested() and FULL_RULES_FILE.exists():
            # The shipped default file is the cost-pruned derivation of
            # the full set; record that lineage on the artifact.  The
            # rescue count is only in the pruned file's header comment
            # (regen_rules stamps it there), so recover it from that.
            import re as _re

            n_kept = len(load_pregenerated_rules(DEFAULT_RULES_FILE))
            n_in = len(load_pregenerated_rules(FULL_RULES_FILE))
            info = {
                "n_in": n_in,
                "n_kept": n_kept,
                "n_dominated": n_in - n_kept,
                "cost_model_digest": cost_model_digest(spec),
            }
            header = DEFAULT_RULES_FILE.read_text().split("\n", 8)[:8]
            for line in header:
                match = _re.search(r"(\d+) rescued", line)
                if match:
                    info["n_rescued"] = int(match.group(1))
                    break
            artifact = _dc.replace(artifact, pruning={"pregen": info})
    else:
        from repro.core.framework import IsariaFramework

        framework = IsariaFramework(spec, synthesis_config=config)
        compiler = framework.generate_compiler()
        artifact = compiler.to_artifact(config=config)
    path = artifact.save(args.output)
    print(
        f"wrote {path} ({len(artifact.ruleset)} rules, "
        f"{time.monotonic() - t0:.1f}s offline)"
    )
    return 0


def _format_bytes(n: int) -> str:
    """``1234567`` → ``"1.2 MB"`` (for registry summaries)."""
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover - loop always returns


def _registry_section(root: Path | None) -> str:
    """The compile-service registry rollup printed by ``inspect``.

    One line per published artifact (fingerprint, ISA, rule count),
    plus the result-cache entry count — the operator's view of what
    ``repro-serve`` can answer without any offline work.  An absent
    registry renders as a note, not an error.
    """
    from repro.service.registry import ArtifactRegistry, service_cache_dir

    directory = root if root is not None else service_cache_dir()
    if not directory.is_dir():
        return f"registry: empty (no registry at {directory})"
    stats = ArtifactRegistry(directory).stats()
    lines = [
        f"registry: {len(stats['artifacts'])} artifacts, "
        f"{stats['n_results']} cached results in {stats['root']}"
    ]
    if stats["corrupt_artifacts"]:
        lines.append(f"  corrupt artifacts: {stats['corrupt_artifacts']}")
    for art in stats["artifacts"]:
        lines.append(
            f"  {art['fingerprint'][:16]}  {art['isa']} "
            f"(width {art['vector_width']}, {art['n_rules']} rules, "
            f"{_format_bytes(art['bytes'])})"
        )
    return "\n".join(lines)


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.artifact import CompilerArtifact

    if args.registry is not None:
        # Bare ``--registry`` (const True) means the env-default root.
        root = None if args.registry is True else args.registry
        print(_registry_section(root))
        if args.artifact is None:
            return 0
        print()
    if args.artifact is None:
        print(
            "inspect: an artifact path or --registry is required",
            file=sys.stderr,
        )
        return 2
    artifact = CompilerArtifact.load(args.artifact)
    print(artifact.summary())
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.compiler.pipeline import compile_many
    from repro.core.artifact import CompilerArtifact
    from repro.core.framework import GeneratedCompiler
    from repro.isa import fusion_g3_spec
    from repro.kernels import default_suite

    artifact = CompilerArtifact.load(args.artifact)
    spec = fusion_g3_spec()
    options = _quick_options() if args.quick else None
    compiler = GeneratedCompiler.from_artifact(
        artifact, spec, options=options
    )

    suite = default_suite(spec=spec)
    if args.kernel:
        wanted = set(args.kernel)
        suite = [inst for inst in suite if inst.key in wanted]
        missing = wanted - {inst.key for inst in suite}
        if missing:
            print(f"unknown kernels: {sorted(missing)}", file=sys.stderr)
            return 2
    t0 = time.monotonic()
    kernels = compile_many(
        compiler,
        suite,
        validate=not args.no_validate,
        jobs=args.jobs,
    )
    wall = time.monotonic() - t0
    for kernel in kernels:
        report = kernel.report
        times = " ".join(
            f"{name}={elapsed:.2f}s"
            for name, elapsed in report.pass_times().items()
        )
        print(
            f"{kernel.name:24s} cost {report.initial_cost:>10.1f} -> "
            f"{report.final_cost:>8.1f}  ({times})"
        )
    print(f"{len(kernels)} kernels in {wall:.1f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-artifact`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-artifact", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser(
        "build", help="run the offline stage, write an artifact file"
    )
    build.add_argument(
        "-o", "--output", type=Path, default=Path("artifact.json"),
        help="artifact file to write (default: artifact.json)",
    )
    build.add_argument(
        "--pregen", action="store_true",
        help="use the shipped pregenerated rules instead of live synthesis",
    )
    build.add_argument(
        "--term-size", type=int, default=4,
        help="synthesis enumeration depth (default: 4)",
    )
    build.set_defaults(fn=_cmd_build)

    inspect_ = sub.add_parser(
        "inspect", help="print an artifact's provenance and rule counts"
    )
    inspect_.add_argument("artifact", type=Path, nargs="?", default=None)
    inspect_.add_argument(
        "--registry", type=Path, nargs="?", const=True, default=None,
        metavar="DIR",
        help="print the compile-service artifact registry at DIR "
        "(default: REPRO_SERVICE_CACHE) — usable with or without an "
        "artifact file",
    )
    inspect_.set_defaults(fn=_cmd_inspect)

    compile_ = sub.add_parser(
        "compile", help="compile suite kernels with a saved artifact"
    )
    compile_.add_argument("artifact", type=Path)
    compile_.add_argument(
        "--kernel", action="append",
        help="suite kernel key to compile (repeatable; default: all)",
    )
    compile_.add_argument(
        "--jobs", type=int, default=None,
        help="compile kernels in N parallel worker processes",
    )
    compile_.add_argument(
        "--no-validate", action="store_true",
        help="skip translation validation",
    )
    compile_.add_argument(
        "--quick", action="store_true",
        help="reduced saturation limits (smoke runs)",
    )
    compile_.set_defaults(fn=_cmd_compile)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
