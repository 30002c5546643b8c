"""Benchmark entry point: one workload run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-g3w4 --seed 1 --seconds 20 --trace 0

Workloads, metrics and the reasons behind them are listed in
``BENCHMARK.json`` and explained in ``perfbench/RATIONALE.md``.

The run happens in a child process started with a cleaned
environment: every ``REPRO_*`` variable is removed (expansion cache,
checkpoints, schedule overrides, tracing, vector width, legacy
switches, service settings), ``REPRO_PARALLEL=0`` makes every compile
serial, and the rule cache, service cache and temporary files go to a
fresh directory under ``.bench_state/tmp`` that is deleted afterwards.
The child prints progress on stderr and, as its last stdout line, the
result object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones, and the traced run's spans are written to
``.bench_state/traces/``.  The parent relays that line, and exits
non-zero without a result when the child fails or overruns.  The
child's one helper process (the host-speed probe, see
``common.HostClock``) is stopped before the child exits, and exits
by itself when the child dies, because its input pipe closes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import STATE_DIR, RunContext

WORKLOADS = {
    "fig4-g3w4": "fig4",
    "offline-g3": "offline",
    "service-masked-w8": "service",
}
CHILD_TIMEOUT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child_env(root: Path, tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(root / "src"),
        REPRO_PARALLEL="0",
        REPRO_RULE_CACHE=str(tmp / "rule-cache"),
        REPRO_SERVICE_CACHE=str(tmp / "service-cache"),
        TMPDIR=str(tmp),
    )
    return env


def _parent(args, root: Path) -> int:
    tmp_root = root / STATE_DIR / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        child = subprocess.Popen(
            command, cwd=root, env=_child_env(root, tmp),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            print(f"error: run exceeded {CHILD_TIMEOUT_S}s", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if child.returncode != 0:
        print(f"error: run failed with exit code {child.returncode}",
              file=sys.stderr)
        return 1
    print(out.strip().splitlines()[-1])
    return 0


def _child(args, root: Path, bench: dict) -> int:
    workload = importlib.import_module(WORKLOADS[args.workload])
    ctx = RunContext(root, args.workload, args.seed, args.seconds,
                     bool(args.trace), Path(os.environ["TMPDIR"]))
    try:
        e2e, layers = workload.run(ctx)
    finally:
        ctx.close()
    ctx.digests.save()
    names = {
        kind: {m["name"]: m["unit"] for m in bench[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    unknown = (set(e2e) - set(names["end_to_end"])) | (
        set(layers) - set(names["per_layer"])
    )
    missing = set() if args.trace else set(names["end_to_end"]) - set(e2e)
    if unknown or missing:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(unknown)}; "
                       f"end-to-end metrics missing: {sorted(missing)}")
    if args.trace:
        ctx.spans.dump(
            root / STATE_DIR / "traces" / f"{args.workload}-{args.seed}.jsonl",
            ctx.sink.events,
        )
        # Layers this workload never calls into read 0.
        values, units = layers, names["per_layer"]
    else:
        values, units = e2e, names["end_to_end"]
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": ctx.ledger.failed == 0,
        "attempted": ctx.ledger.attempted,
        "failed": ctx.ledger.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    bench_file = root / "BENCHMARK.json"
    if not (root / "src" / "repro").is_dir() or not bench_file.is_file():
        print("error: run from a repository checkout (needs src/repro and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.child:
        return _child(args, root, json.loads(bench_file.read_text()))
    return _parent(args, root)


if __name__ == "__main__":
    sys.exit(main())
