"""Cost-pruned vs full rulesets: size and output parity.

The dominance-pruning claim (:mod:`repro.ruler.cost_prune`) as a
deterministic record: build each family compiler twice in one process
— once from the full, unpruned rules and once on the default
cost-pruned path — then compile the same kernels under
*fixpoint-regime* saturation budgets (deterministic iteration/node
caps, effectively unbounded match budgets, no backoff banning) and
check two things:

- **size**: at least one bundled ISA's ruleset shrinks by ≥ 20 %;
- **parity**: every kernel compiles to a byte-identical term — or a
  strictly cheaper one — under the pruned ruleset.  Canonical
  tie-breaking in extraction plus the derivability rescue make the
  compiled program a function of the e-graph's term set, not of which
  redundant rules happened to populate it.

The full side is built the way the default path is, minus the
pruning: the width-4 fusion-g3 cell phases the shipped
``fusion_g3_rules_full.txt``, and every other cell re-generalizes that
file's single-lane rules at its own width without pruning them.  The
record holds rule counts and extracted costs only; compile times
belong to perfbench.

The matrix covers the fusion-g3 and masked families at widths 4 and 8.
Results go to ``BENCH_minimize.json`` at the repo root;
``tests/test_bench_schemas.py`` holds the committed numbers to the
floor asserted here.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.report import write_bench_json
from repro.compiler.compile import CompileOptions
from repro.compiler.frontend import trace_kernel
from repro.core.framework import GeneratedCompiler
from repro.core.pregen import (
    DEFAULT_RULES_FILE,
    FULL_RULES_FILE,
    family_compiler,
    load_pregenerated_rules,
    single_lane_rules,
)
from repro.egraph.runner import RunnerLimits
from repro.isa.families import isa_family
from repro.kernels import default_suite
from repro.phases.assign import assign_phases, default_params
from repro.phases.cost import CostModel
from repro.ruler.lanes import generalize_rules

_REPO_ROOT = Path(__file__).resolve().parent.parent

_RULESET_REDUCTION_FLOOR = 0.2

# (family, width) matrix.  fusion-g3 at width 4 is the paper's base
# ISA and gets real suite kernels; the other cells get elementwise
# kernels sized to exercise both lane packing and reduction chains.
_SPECS = (
    ("fusion-g3", 4),
    ("fusion-g3", 8),
    ("masked", 4),
    ("masked", 8),
)
_SUITE_KERNELS = ("matmul-2x2x2", "qprod")
_EW_LENGTH = 16


def _fixpoint(iterations: int, nodes: int) -> RunnerLimits:
    """Deterministic saturate-to-budget limits.

    Match budgets are effectively unbounded and backoff banning is off,
    so both rulesets drive their e-graphs to the same iteration/node
    frontier.
    """
    return RunnerLimits(
        max_iterations=iterations,
        max_nodes=nodes,
        time_limit=600.0,
        match_limit=10**9,
        ban_length=0,
        match_work=10**9,
    )


def _options() -> CompileOptions:
    return CompileOptions(
        max_rounds=2,
        expansion_limits=_fixpoint(2, 3_000),
        compilation_limits=_fixpoint(6, 6_000),
        optimization_limits=_fixpoint(2, 4_000),
    )


def _kernels_for(family: str, width: int, spec) -> list:
    """``(key, program)`` pairs for one matrix cell."""
    if (family, width) == ("fusion-g3", 4):
        suite = default_suite(spec=spec)
        return [
            (inst.key, inst.program)
            for inst in suite
            if inst.key in _SUITE_KERNELS
        ]

    def mac(a, b, c):
        return [a[i] * b[i] + c[i] for i in range(_EW_LENGTH)]

    def dot(a, b):
        s = 0.0
        for i in range(_EW_LENGTH):
            s = s + a[i] * b[i]
        return [s]

    n = _EW_LENGTH
    return [
        (
            f"ew-mac-{n}-w{width}",
            trace_kernel(
                f"ew-mac-{n}-w{width}", mac,
                {"a": n, "b": n, "c": n}, width=width,
            ),
        ),
        (
            f"ew-dot-{n}-w{width}",
            trace_kernel(
                f"ew-dot-{n}-w{width}", dot,
                {"a": n, "b": n}, width=width,
            ),
        ),
    ]


def _full_compiler(spec, options: CompileOptions) -> GeneratedCompiler:
    """``family_compiler`` from the full rule file, without pruning."""
    if (spec.name, spec.vector_width) == ("fusion-g3", 4):
        rules = load_pregenerated_rules(FULL_RULES_FILE)
    else:
        rules, _report = generalize_rules(
            single_lane_rules(FULL_RULES_FILE), spec
        )
    cost_model = CostModel(spec)
    ruleset = assign_phases(cost_model, rules, default_params(spec))
    return GeneratedCompiler(
        spec=spec, cost_model=cost_model, ruleset=ruleset, options=options,
    )


def _compile_cell(compiler, family: str, width: int, spec) -> list[dict]:
    rows = []
    for key, program in _kernels_for(family, width, spec):
        term = compiler.compile_kernel(program, validate=False).compiled_term
        rows.append({
            "kernel": key,
            "cost": compiler.cost_model.term_cost(term),
            "term": str(term),
        })
    return rows


def test_perf_minimize():
    options = _options()
    cells = []
    kernels = []
    for family, width in _SPECS:
        spec = isa_family(family).spec(width)
        full = _full_compiler(spec, options)
        pruned = family_compiler(spec, compile_options=options)
        n_full, n_pruned = len(full.ruleset), len(pruned.ruleset)
        assert 0 < n_pruned <= n_full, (family, width)
        cells.append({
            "family": family,
            "width": width,
            "rules_full": n_full,
            "rules_pruned": n_pruned,
            "reduction_rate": 1.0 - n_pruned / n_full,
        })
        full_rows = _compile_cell(full, family, width, spec)
        pruned_rows = _compile_cell(pruned, family, width, spec)
        for frow, prow in zip(full_rows, pruned_rows, strict=True):
            same = frow["term"] == prow["term"]
            key = f"{family}-w{width}/{frow['kernel']}"
            assert prow["cost"] <= frow["cost"], (
                f"{key}: pruned ruleset compiled a costlier program "
                f"({prow['cost']} vs {frow['cost']})"
            )
            assert same or prow["cost"] < frow["cost"], (
                f"{key}: pruned output differs without being cheaper"
            )
            kernels.append({
                "family": family,
                "width": width,
                "kernel": frow["kernel"],
                "full_cost": frow["cost"],
                "pruned_cost": prow["cost"],
                "identical": same,
            })
    reduction = max(c["reduction_rate"] for c in cells)
    identical = sum(row["identical"] for row in kernels)

    # The shipped rule files document the same relationship.
    shipped_full = len(load_pregenerated_rules(FULL_RULES_FILE))
    shipped_pruned = len(load_pregenerated_rules(DEFAULT_RULES_FILE))

    payload = {
        "ruleset_reduction_rate": reduction,
        "identical_kernels": identical,
        "total_kernels": len(kernels),
        "shipped_rules_full": shipped_full,
        "shipped_rules_pruned": shipped_pruned,
        "shipped_reduction_rate": 1.0 - shipped_pruned / shipped_full,
        "cells": cells,
        "kernels": kernels,
    }
    write_bench_json(
        _REPO_ROOT / "BENCH_minimize.json",
        "rule-minimization",
        payload,
        floors={"ruleset_reduction_rate": _RULESET_REDUCTION_FLOOR},
    )
    print("\nrule minimization (full vs pruned):")
    for cell in cells:
        print(
            f"  {cell['family']}-w{cell['width']}: "
            f"{cell['rules_full']} -> {cell['rules_pruned']} rules "
            f"({cell['reduction_rate']:.1%})"
        )
    print(f"  {identical}/{len(kernels)} kernels byte-identical")
    assert reduction >= _RULESET_REDUCTION_FLOOR, (
        f"best ruleset reduction {reduction:.3f} below "
        f"{_RULESET_REDUCTION_FLOOR}"
    )
