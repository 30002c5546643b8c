"""The trace-report CLI renders timelines from JSONL traces."""

import json

import pytest

from repro.tools.trace_report import (
    hottest_rules,
    isa_rollup,
    load_events,
    main,
    minimize_rollup,
    phase_rollup,
    render_report,
    scheduling_rollup,
    service_rollup,
    synthesis_rollup,
    timeline_table,
)


def _synthetic_events():
    return [
        {"name": "eqsat.iteration", "id": 2, "parent": 1, "ts": 10.01,
         "dur": 0.05, "attrs": {"index": 0, "n_unions": 3}},
        {"name": "eqsat", "id": 1, "parent": 0, "ts": 10.0, "dur": 0.2,
         "attrs": {"stop_reason": "saturated",
                   "rule_match_time": {"lift-a": 0.15, "comm": 0.01},
                   "rule_node_visits": {"lift-a": 900, "comm": 40}}},
        {"name": "compile", "id": 0, "ts": 9.9, "dur": 0.5,
         "attrs": {"final_cost": 15.0}},
    ]


class TestRendering:
    def test_timeline_orders_and_indents(self):
        table = timeline_table(_synthetic_events())
        lines = table.splitlines()
        # Start order: compile (9.9) before eqsat (10.0) before iteration.
        names = [line.split("  ")[-1] for line in lines[2:]]
        assert "compile" in lines[2]
        assert "  eqsat" in lines[3]
        assert "    eqsat.iteration" in lines[4]
        # Offsets are relative to trace start.
        assert lines[2].lstrip().startswith("0.0ms")

    def test_timeline_max_depth_hides_detail(self):
        table = timeline_table(_synthetic_events(), max_depth=1)
        assert "eqsat" in table
        assert "eqsat.iteration" not in table

    def test_timeline_notes_skip_noisy_keys(self):
        table = timeline_table(_synthetic_events())
        assert "stop_reason=saturated" in table
        assert "rule_match_time" not in table

    def test_dangling_parent_treated_as_root(self):
        table = timeline_table(
            [{"name": "orphan", "id": 7, "parent": 99, "ts": 1.0,
              "dur": 0.1}]
        )
        assert "orphan" in table

    def test_empty_trace(self):
        assert timeline_table([]) == "(empty trace)"

    def test_rollup_aggregates_by_name(self):
        rollup = phase_rollup(_synthetic_events() + _synthetic_events())
        line = next(
            l for l in rollup.splitlines() if l.endswith("  eqsat")
        )
        assert "     2  " in line  # two calls

    def test_hottest_rules_sorted_by_match_time(self):
        out = hottest_rules(_synthetic_events(), top=10)
        lines = out.splitlines()
        assert lines[2].endswith("lift-a")
        assert lines[3].endswith("comm")
        assert "900" in lines[2]

    def test_hottest_rules_top_n(self):
        out = hottest_rules(_synthetic_events(), top=1)
        assert "lift-a" in out
        assert "comm" not in out

    def test_hottest_rules_without_counters(self):
        assert "no rule-level counters" in hottest_rules(
            [{"name": "lower", "id": 0, "ts": 1.0, "dur": 0.1}]
        )

    def test_render_report_has_all_sections(self):
        report = render_report(_synthetic_events())
        assert "== timeline ==" in report
        assert "== per-phase rollup ==" in report
        assert "== service ==" in report
        assert "== isa ==" in report
        assert "== synthesis ==" in report
        assert "== minimize ==" in report
        assert "hottest rules" in report
        assert "== scheduling ==" in report


class TestIsaRollup:
    def _run(self, isa, width, cycles, issued, active, masked, vector):
        return {
            "name": "machine.run", "dur": 0.0,
            "attrs": {
                "isa": isa, "width": width, "cycles": cycles,
                "lanes_issued": issued, "lanes_active": active,
                "masked_ops": masked, "vector_ops": vector,
            },
        }

    def test_groups_by_family_across_widths(self):
        report = isa_rollup([
            self._run("masked-w8", 8, 10, 16, 11, 2, 4),
            self._run("masked-w16", 16, 8, 32, 27, 2, 4),
            self._run("fusion-g3", 4, 20, 8, 8, 0, 2),
        ])
        lines = report.splitlines()
        masked_line = next(l for l in lines if "masked (" in l)
        assert "8,16" in masked_line
        # 38 active over 48 issued lanes across both masked runs.
        assert f"{38 / 48:.3f}" in masked_line
        fusion_line = next(l for l in lines if "fusion-g3" in l)
        assert "1.000" in fusion_line

    def test_masked_share_column(self):
        report = isa_rollup([self._run("masked-w8", 8, 10, 16, 11, 2, 4)])
        assert "50.0%" in report

    def test_placeholder_without_machine_runs(self):
        assert "no machine.run" in isa_rollup(_synthetic_events())


class TestSchedulingRollup:
    def test_ranks_by_match_time_share_and_flags_zero_merges(self):
        events = [
            {"name": "eqsat", "id": 1, "ts": 1.0, "dur": 0.2,
             "attrs": {
                 "rule_match_time": {"dead": 0.6, "live": 0.2},
                 "rule_unions": {"live": 5},
             }},
        ]
        out = scheduling_rollup(events)
        lines = out.splitlines()
        assert "dead" in lines[2] and "75.0%" in lines[2]
        assert "zero merges" in lines[2]
        assert "live" in lines[3] and "zero merges" not in lines[3]
        assert "zero-merge rules: dead" in out

    def test_merges_counted_once_when_trace_has_both(self):
        # Since eqsat spans carry rule_unions, the iteration spans'
        # applied maps count the same merges again.
        events = [
            {"name": "eqsat", "id": 1, "ts": 1.0, "dur": 0.2,
             "attrs": {"rule_match_time": {"comm": 0.1},
                       "rule_unions": {"comm": 4}}},
            {"name": "eqsat.iteration", "id": 2, "parent": 1, "ts": 1.0,
             "dur": 0.1, "attrs": {"applied": {"comm": 4}}},
            {"name": "eqsat", "id": 3, "ts": 2.0, "dur": 0.2,
             "attrs": {"rule_match_time": {"comm": 0.1},
                       "rule_unions": {}}},
            {"name": "eqsat.iteration", "id": 4, "parent": 3, "ts": 2.0,
             "dur": 0.1, "attrs": {"applied": {}}},
        ]
        row = scheduling_rollup(events).splitlines()[2]
        assert row.split()[2:] == ["4", "comm"]

    def test_placeholder_without_counters(self):
        assert "no rule-level counters" in scheduling_rollup(
            [{"name": "lower", "id": 0, "ts": 1.0, "dur": 0.1}]
        )


def _service_events():
    return [
        {"name": "service.request", "id": 1, "ts": 1.0, "dur": 2.0,
         "attrs": {"kernel": "qprod", "cache_hit": False,
                   "deduped": False, "queue_s": 0.02}},
        {"name": "service.request", "id": 2, "ts": 1.1, "dur": 2.0,
         "attrs": {"kernel": "qprod", "cache_hit": False,
                   "deduped": True, "queue_s": 0.0}},
        {"name": "service.request", "id": 3, "ts": 3.5, "dur": 0.001,
         "attrs": {"kernel": "qprod", "cache_hit": True,
                   "deduped": False, "queue_s": 0.0}},
        {"name": "service.request", "id": 4, "ts": 3.6, "dur": 0.001,
         "attrs": {"kernel": "dot-8", "cache_hit": True,
                   "deduped": False, "queue_s": 0.0}},
        {"name": "service.batch", "id": 5, "ts": 1.05, "dur": 1.9,
         "attrs": {"n_kernels": 3, "isa": "fusion-g3"}},
    ]


class TestServiceRollup:
    def test_rates_and_queue_wait(self):
        out = service_rollup(_service_events())
        assert "requests: 4 (2 cache hits, 1 deduped, 1 compiled)" in out
        assert "cache hit rate: 50.0%" in out
        assert "dedupe rate: 25.0%" in out
        # Queue wait: 0.02s over 4 requests = 5ms avg, 20ms max.
        assert "5.0ms avg, 20.0ms max" in out

    def test_batch_sizes(self):
        out = service_rollup(_service_events())
        assert "batches: 1 (3.0 kernels avg, 3 max" in out

    def test_placeholder_without_service_records(self):
        assert "no service records" in service_rollup(_synthetic_events())

    def test_aggregates_across_traces(self):
        out = service_rollup(_service_events() + _service_events())
        assert "requests: 8" in out
        assert "cache hit rate: 50.0%" in out


def _synthesis_events():
    return [
        {"name": "synthesize", "id": 0, "ts": 1.0, "dur": 3.0,
         "attrs": {"n_rules": 42, "cvec_backend": "batched"}},
        {"name": "synthesize.enumerate", "id": 1, "parent": 0,
         "ts": 1.0, "dur": 1.5,
         "attrs": {"cvec_backend": "batched", "shards": 4,
                   "size_times": {"1": 0.001, "2": 0.01, "3": 0.4},
                   "size_terms": {"1": 5, "2": 30, "3": 260},
                   "size_new": {"1": 5, "2": 10, "3": 58}}},
        {"name": "synthesize.verify", "id": 2, "parent": 0,
         "ts": 2.5, "dur": 0.8,
         "attrs": {"n_verified": 80, "batched_terms": 160,
                   "legacy_terms": 2}},
        {"name": "synthesize.minimize", "id": 3, "parent": 0,
         "ts": 3.3, "dur": 0.5, "attrs": {"n_screened": 3}},
    ]


class TestSynthesisRollup:
    def test_per_size_table_and_counters(self):
        out = synthesis_rollup(_synthesis_events())
        lines = out.splitlines()
        assert lines[0] == "cvec backend: batched (shards: 4)"
        # One row per size, in numeric order, with terms and new counts.
        size3 = next(l for l in lines if l.lstrip().startswith("3"))
        assert "400.0ms" in size3 and "260" in size3 and "58" in size3
        assert lines.index(size3) > lines.index(
            next(l for l in lines if l.lstrip().startswith("2"))
        )
        assert "verify sides: 160 batched, 2 legacy" in out
        assert "minimize screened: 3" in out

    def test_aggregates_across_runs(self):
        out = synthesis_rollup(_synthesis_events() + _synthesis_events())
        assert "verify sides: 320 batched, 4 legacy" in out
        size3 = next(
            l for l in out.splitlines() if l.lstrip().startswith("3")
        )
        assert "800.0ms" in size3 and "520" in size3

    def test_placeholder_without_synthesis_spans(self):
        assert "no synthesis spans" in synthesis_rollup(
            _synthetic_events()
        )

    def test_traced_synthesis_round_trips(self, tmp_path, monkeypatch):
        """A real traced synthesize_rules renders a populated section."""
        from repro.isa import fusion_g3_spec
        from repro.ruler import SynthesisConfig, synthesize_rules

        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        synthesize_rules(
            fusion_g3_spec(),
            SynthesisConfig(max_term_size=2, minimize=False),
        )
        monkeypatch.delenv("REPRO_TRACE")
        out = synthesis_rollup(load_events(path))
        assert "cvec backend: batched" in out
        assert "verify sides:" in out
        # Sizes 1 and 2 both enumerated something.
        assert any(l.lstrip().startswith("1 ") for l in out.splitlines())


class TestLoading:
    def test_load_events_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "a", "id": 0, "ts": 1.0, "dur": 0.1}\n\n')
        assert len(load_events(path)) == 1

    def test_load_events_rejects_garbage_with_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "a", "id": 0, "ts": 1, "dur": 0}\nnope\n')
        with pytest.raises(ValueError, match=":2:"):
            load_events(path)


class TestCli:
    def test_main_renders_file(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text(
            "\n".join(json.dumps(e) for e in _synthetic_events()) + "\n"
        )
        assert main([str(path), "--top", "2", "--max-depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "== timeline ==" in out
        assert "lift-a" in out

    def test_main_missing_file_is_an_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


class TestEndToEnd:
    def test_traced_saturation_round_trips_through_cli(
        self, tmp_path, monkeypatch, capsys
    ):
        """REPRO_TRACE=file → JSONL → trace_report, no mocks."""
        from repro.egraph.egraph import EGraph
        from repro.egraph.rewrite import parse_rewrite
        from repro.egraph.runner import run_saturation
        from repro.lang.parser import parse

        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        egraph = EGraph()
        egraph.add_term(parse("(+ a (* b c))"))
        run_saturation(
            egraph,
            [parse_rewrite("comm-add", "(+ ?a ?b) => (+ ?b ?a)")],
        )
        monkeypatch.delenv("REPRO_TRACE")
        assert path.exists()
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "eqsat" in out
        assert "comm-add" in out  # rule-level counters made it through


class TestMinimizeRollup:
    def _events(self):
        return [
            {"name": "synthesize.cost_prune", "dur": 0.2,
             "attrs": {"n_in": 184, "n_kept": 97, "n_dominated": 87,
                       "n_rescued": 17}},
            {"name": "synthesize.cost_prune", "dur": 0.1,
             "attrs": {"n_in": 84, "n_kept": 73, "n_dominated": 11,
                       "n_rescued": 2}},
            {"name": "synthesize.minimize", "dur": 0.5,
             "attrs": {"n_in": 97, "n_kept": 60, "n_screened": 4}},
        ]

    def test_aggregates_prune_and_shrink_spans(self):
        rollup = minimize_rollup(self._events())
        assert "cost prune: 268 -> 170 rules" in rollup
        assert "98 dominated" in rollup
        assert "19 rescued" in rollup
        assert "derivability shrink: 97 -> 60 rules" in rollup
        assert "4 screened unsound" in rollup

    def test_empty_trace_notes_absence(self):
        assert "no minimization spans" in minimize_rollup([])
        assert "no minimization spans" in minimize_rollup(
            [{"name": "compile", "attrs": {}}]
        )
