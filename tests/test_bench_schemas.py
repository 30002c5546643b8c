"""Schema validation for every committed ``BENCH_*.json`` artifact.

CI archives these files and future PRs are judged against them, so a
bench that silently drops a key (or writes a string where a number
belongs) would corrupt the comparison baseline.  This test pins the
envelope (``name`` / ``schema_version`` / ``results`` / ``floors``)
for *all* BENCH files at the repo root plus the per-bench fields the
floor assertions read.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

import pytest

from repro.bench.report import write_bench_json

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_FILES = sorted(_REPO_ROOT.glob("BENCH_*.json"))

# Every bench's floor keys must point at a matching measured value in
# ``results`` — (path-into-results, floor-key) per bench name.
_SPEEDUP_PATHS = {
    "compile-service": lambda r, key: r[key],
    "isa-families": lambda r, key: r[key],
    "rule-minimization": lambda r, key: r[key],
}


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def test_bench_corpus_is_present():
    names = {p.name for p in _BENCH_FILES}
    assert {
        "BENCH_service.json",
        "BENCH_isa.json",
        "BENCH_minimize.json",
    } <= names, names


@pytest.mark.parametrize(
    "path", _BENCH_FILES, ids=lambda p: p.name
)
def test_envelope_schema(path: Path):
    doc = _load(path)
    assert set(doc) == {"name", "schema_version", "results", "floors"}
    assert isinstance(doc["name"], str) and doc["name"]
    assert isinstance(doc["schema_version"], int)
    assert doc["schema_version"] >= 2
    assert isinstance(doc["results"], dict) and doc["results"]
    assert isinstance(doc["floors"], dict) and doc["floors"]


@pytest.mark.parametrize(
    "path", _BENCH_FILES, ids=lambda p: p.name
)
def test_floors_match_measured_speedups(path: Path):
    doc = _load(path)
    resolve = _SPEEDUP_PATHS.get(doc["name"])
    assert resolve is not None, (
        f"unknown bench {doc['name']!r}: teach test_bench_schemas.py "
        "where its speedups live"
    )
    for key, floor in doc["floors"].items():
        # Speedup floors must demand an actual improvement (> 1.0);
        # ``*_rate`` floors are fractions and live in (0, 1].
        assert isinstance(floor, numbers.Real)
        if key.endswith("_rate"):
            assert 0.0 < floor <= 1.0, (path.name, key, floor)
        else:
            assert floor > 1.0, (path.name, key, floor)
        measured = resolve(doc["results"], key)
        assert isinstance(measured, numbers.Real)
        # The committed numbers must themselves clear the floor the
        # bench asserts — otherwise the baseline documents a failure.
        assert measured >= floor, (path.name, key, measured, floor)


def test_isa_bench_sweeps_widths_and_families():
    doc = _load(_REPO_ROOT / "BENCH_isa.json")
    results = doc["results"]
    assert set(results["widths"]) == {4, 8, 16}
    assert len(results["families"]) >= 2
    covered = {(r["family"], r["width"]) for r in results["rows"]}
    for family in results["families"]:
        for width in results["widths"]:
            assert (family, width) in covered, (family, width)
    for row in results["rows"]:
        assert row["correct"], row["isa"]
        # The tentpole claim the baseline must document: masked-family
        # tails carry no scalar epilogue.
        if row["masked_family"] and row["length"] % row["width"]:
            assert row["scalar_instructions"] == 0, row["isa"]
            assert row["masked_ops"] > 0, row["isa"]


def test_minimize_bench_records_parity_evidence():
    doc = _load(_REPO_ROOT / "BENCH_minimize.json")
    results = doc["results"]
    # The floor the perf job re-asserts lives in the committed file.
    assert doc["floors"] == {"ruleset_reduction_rate": 0.2}
    # A deterministic record: rule counts and costs, no wall times.
    assert not any(key.endswith("_s") for key in results)
    for row in results["cells"] + results["kernels"]:
        assert not any(key.endswith("_s") for key in row), row
    # Size: every matrix cell shrinks, at least one by >= 20 %.
    assert results["cells"]
    for cell in results["cells"]:
        assert 0 < cell["rules_pruned"] <= cell["rules_full"], cell
    assert max(
        c["reduction_rate"] for c in results["cells"]
    ) >= 0.2
    assert (
        results["shipped_rules_pruned"] < results["shipped_rules_full"]
    )
    # Parity: no kernel got costlier, and non-identical outputs must
    # have paid for themselves.
    assert results["total_kernels"] == len(results["kernels"])
    for row in results["kernels"]:
        assert row["pruned_cost"] <= row["full_cost"], row
        assert row["identical"] or row["pruned_cost"] < row["full_cost"]
    assert 0 < results["identical_kernels"] <= results["total_kernels"]


def test_write_bench_json_envelope(tmp_path):
    doc = write_bench_json(
        tmp_path / "BENCH_x.json", "x", {"speedup": 2.0},
        floors={"speedup": 1.5},
    )
    assert doc == json.loads((tmp_path / "BENCH_x.json").read_text())
    assert doc["schema_version"] == 2
    assert doc["floors"] == {"speedup": 1.5}
