"""The schedule autotuner: determinism, cost-parity validation, move
proposal from perf and trace profiles, and the CLI surface.

Search runs here use shrunken corpus workloads so the whole file stays
in test-suite time; the full-scale before/after measurement lives in
``benchmarks/test_perf_schedule.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.egraph.scheduling import ScheduleSpec
from repro.tools.autotune import (
    RuleProfile,
    autotune,
    candidate_moves,
    chain_workload,
    main,
    measure,
    skewed_workload,
)

_SMALL = dict(n_plus=120, n_mul=20, n_vec=15, n_driver=6)


@pytest.fixture(scope="module")
def skewed_result():
    return autotune([skewed_workload(**_SMALL)], seed=0, restarts=2)


class TestSearch:
    def test_disables_every_zero_merge_rule(self, skewed_result):
        assert skewed_result.spec.disabled_rules() == [
            "mul-lift", "mul-lift-flip", "mul-sq", "vec-sq"
        ]
        # The one productive rule survives.
        assert not skewed_result.spec.rule_policy("drive-comm").disabled

    def test_deterministic_under_a_fixed_seed(self, skewed_result):
        again = autotune([skewed_workload(**_SMALL)], seed=0, restarts=2)
        assert again.spec == skewed_result.spec
        assert again.decisions == skewed_result.decisions
        assert [m.node_visits for m in again.tuned] == [
            m.node_visits for m in skewed_result.tuned
        ]

    def test_cost_parity_holds(self, skewed_result):
        for before, after in zip(
            skewed_result.baseline, skewed_result.tuned
        ):
            assert after.cost <= before.cost
            assert after.extracted == before.extracted

    def test_visits_strictly_improve(self, skewed_result):
        assert skewed_result.visit_reduction > 1.0
        assert skewed_result.spec.note.startswith("autotuned seed=0")

    def test_tuned_spec_transfers_to_a_larger_instance(
        self, skewed_result
    ):
        big = skewed_workload(n_plus=300, n_mul=40, n_vec=30, n_driver=8)
        default = measure(big, None)
        tuned = measure(big, skewed_result.spec)
        assert tuned.extracted == default.extracted
        assert tuned.node_visits < default.node_visits

    def test_productive_workload_keeps_cost_while_capping(self):
        result = autotune([chain_workload(depth=6)], seed=1, restarts=1)
        # Every rule merges on the chain, so nothing may be disabled;
        # improvements can only come from budget/ban tuning.
        assert result.spec.disabled_rules() == []
        for before, after in zip(result.baseline, result.tuned):
            assert after.cost <= before.cost


class TestMoves:
    def test_zero_merge_rules_rank_before_budget_moves(self):
        profile = RuleProfile(
            match_time={"dead": 0.9, "hot": 0.5},
            node_visits={"dead": 900, "hot": 500},
            unions={"hot": 40},
        )
        moves = candidate_moves(profile, [])
        assert moves[0].description.startswith("disable dead")
        assert any("cap hot" in m.description for m in moves)
        assert not any("disable hot" in m.description for m in moves)

    def test_cold_productive_rules_are_left_alone(self):
        profile = RuleProfile(
            match_time={"hot": 1.0, "cold": 0.01},
            node_visits={"hot": 10_000, "cold": 5},
            unions={"hot": 3, "cold": 2},
        )
        descriptions = [
            m.description for m in candidate_moves(profile, [])
        ]
        assert not any("cold" in d for d in descriptions)


class TestTraceProfile:
    def test_aggregates_eqsat_span_counters(self):
        events = [
            {
                "name": "eqsat",
                "attrs": {
                    "rule_match_time": {"a": 0.5, "b": 0.1},
                    "rule_node_visits": {"a": 100, "b": 20},
                    "rule_unions": {"b": 4},
                },
            },
            {
                "name": "eqsat",
                "attrs": {"rule_match_time": {"a": 0.25}},
            },
        ]
        profile = RuleProfile.from_trace_events(events)
        assert profile.match_time["a"] == 0.75
        assert profile.unions == {"b": 4}
        moves = candidate_moves(profile, [])
        assert moves and moves[0].description.startswith("disable a")

    def test_legacy_traces_reconstruct_merges_from_applied(self):
        events = [
            {
                "name": "eqsat.iteration",
                "attrs": {"applied": {"b": 7}},
            },
        ]
        profile = RuleProfile.from_trace_events(events)
        assert profile.unions == {"b": 7}


    def test_merges_counted_once_when_trace_has_both(self):
        events = [
            {"name": "eqsat",
             "attrs": {"rule_match_time": {"b": 0.1},
                       "rule_unions": {"b": 4}}},
            {"name": "eqsat.iteration", "attrs": {"applied": {"b": 4}}},
        ]
        assert RuleProfile.from_trace_events(events).unions == {"b": 4}


class TestCli:
    def test_writes_a_loadable_spec(self, tmp_path, capsys):
        out = tmp_path / "schedule.json"
        argv = [
            "--workload", "skewed", "--seed", "0", "--restarts", "1",
            "-o", str(out),
        ]
        assert main(argv) == 0
        spec = ScheduleSpec.load(out)
        assert "mul-sq" in spec.disabled_rules()
        text = capsys.readouterr().out
        assert "== profile" in text
        assert "tuned schedule:" in text

    def test_profiles_from_a_trace_corpus(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        event = {
            "name": "eqsat",
            "attrs": {
                "rule_match_time": {"mul-sq": 2.0},
                "rule_node_visits": {"mul-sq": 999},
            },
        }
        trace.write_text(json.dumps(event) + "\n")
        assert main(["--trace", str(trace), "--restarts", "1"]) == 0
        assert "from" in capsys.readouterr().out

    def test_attaches_to_an_artifact(self, tmp_path, isaria_compiler):
        from repro.core.artifact import CompilerArtifact

        path = tmp_path / "artifact.json"
        isaria_compiler.to_artifact().save(path)
        assert main(["--restarts", "1", "--attach", str(path)]) == 0
        restored = CompilerArtifact.load(path)
        assert restored.schedule is not None
        assert restored.schedule.disabled_rules()

    def test_missing_trace_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["--trace", str(tmp_path / "nope.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
