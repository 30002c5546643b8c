"""Figure 5: compilation time, Isaria vs Diospyros.

The paper reports Isaria's automatically generated rule set compiles
an average of 2.1x slower than Diospyros's hand-written 28 rules —
the price of ~an order of magnitude more rules, which phasing and
pruning keep from being far worse.  The shape to reproduce: Isaria
slower than Diospyros on most kernels, with QR the most expensive.
"""

from __future__ import annotations

import math

from conftest import suite_results

from repro.bench import print_table


def test_fig5_compile_times(benchmark, spec, isaria, diospyros):
    rows = benchmark.pedantic(
        lambda: suite_results(spec, isaria, diospyros),
        rounds=1,
        iterations=1,
    )
    table = []
    ratios = []
    for row in rows:
        dios = row.measurements.get("diospyros")
        isar = row.measurements.get("isaria")
        if dios is None or isar is None or dios.error or isar.error:
            continue
        ratio = (
            isar.compile_time / dios.compile_time
            if dios.compile_time
            else float("inf")
        )
        ratios.append(ratio)
        table.append(
            [
                row.key,
                f"{dios.compile_time:.1f}s",
                f"{isar.compile_time:.1f}s",
                f"{ratio:.1f}x",
            ]
        )
    print_table(
        ["kernel", "diospyros", "isaria", "isaria/diospyros"],
        table,
        title="Figure 5: compile times (Isaria pays for its larger, "
        "synthesized rule set)",
    )
    mean = sum(ratios) / len(ratios)
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    print(f"\nmean slowdown: {mean:.1f}x (paper: 2.1x average), "
          f"geometric mean {geomean:.2f}x")
    # Isaria must not be implausibly fast (that would mean its rules
    # did nothing) nor catastrophically slow.
    assert mean > 0.8, mean
