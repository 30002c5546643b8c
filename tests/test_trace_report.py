"""The trace-report CLI renders timelines from JSONL traces."""

import json
import re
from collections import Counter

import pytest

from repro.obs import ListSink, Tracer, use_tracer
from repro.tools.trace_report import (
    hottest_rules,
    load_events,
    main,
    phase_rollup,
    render_report,
    rollup,
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


def _attr(text: str, name: str, key: str) -> str:
    """The summary printed for ``key`` under span ``name``'s rollup row."""
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if line.endswith(f"  {name}"))
    for line in lines[row + 1:]:
        if not line.startswith(" " * 24):  # the next span's row
            break
        attr, _, summary = line.strip().partition(": ")
        if attr == key:
            return summary
    raise AssertionError(f"no {key!r} under {name!r}:\n{text}")


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
        headings = [l for l in report.splitlines() if l.startswith("== ")]
        assert headings == [
            "== timeline ==",
            "== per-phase rollup ==",
            "== hottest rules (top 10 by match time) ==",
        ]

    def test_rollup_lists_each_spans_attrs(self):
        out = phase_rollup(_synthetic_events() + _synthetic_events())
        assert _attr(out, "eqsat", "stop_reason") == "saturated x2"
        assert _attr(out, "compile", "final_cost") == "total 30  max 15"
        assert _attr(out, "eqsat.iteration", "n_unions") == "total 6  max 3"
        # The per-rule maps belong to the hottest-rules section.
        assert "rule_match_time" not in out


class TestIsaRollup:
    """``machine.run`` records roll up like every other span."""

    def _run(self, isa, width, cycles, issued, active, masked, vector):
        return {
            "name": "machine.run", "dur": 0.0,
            "attrs": {
                "isa": isa, "width": width, "cycles": cycles,
                "lanes_issued": issued, "lanes_active": active,
                "masked_ops": masked, "vector_ops": vector,
            },
        }

    def test_masked_share_column(self):
        """The masked share's and lane utilization's numerators and
        denominators are totals on the ``machine.run`` row."""
        out = phase_rollup([
            self._run("masked-w8", 8, 10, 16, 11, 2, 4),
            self._run("masked-w16", 16, 8, 32, 27, 2, 4),
        ])
        assert _attr(out, "machine.run", "masked_ops") == "total 4  max 2"
        assert _attr(out, "machine.run", "vector_ops") == "total 8  max 4"
        assert _attr(out, "machine.run", "lanes_active") == "total 38  max 27"
        assert _attr(out, "machine.run", "lanes_issued") == "total 48  max 32"
        assert _attr(out, "machine.run", "isa") == (
            "masked-w16 x1, masked-w8 x1"
        )

    def test_placeholder_without_machine_runs(self):
        """A trace without simulator runs has no ``machine.run`` row."""
        assert "machine.run" not in phase_rollup(_synthetic_events())


class TestSchedulingRollup:
    """The hottest-rules section's share, merges and zero-merge flag."""

    def test_ranks_by_match_time_share_and_flags_zero_merges(self):
        events = [
            {"name": "eqsat", "id": 1, "ts": 1.0, "dur": 0.2,
             "attrs": {
                 "rule_match_time": {"dead": 0.6, "live": 0.2},
                 "rule_unions": {"live": 5},
             }},
        ]
        lines = hottest_rules(events).splitlines()
        assert lines[2].split() == ["75.0%", "600.0ms", "0", "0*", "dead"]
        assert lines[3].split() == ["25.0%", "200.0ms", "0", "5", "live"]
        assert lines[4].startswith("1 of 2 rules spent match time without")
        # The count covers the rules past the top N too.
        assert hottest_rules(events, top=1).splitlines()[-1] == lines[4]

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
        row = hottest_rules(events).splitlines()[2]
        assert row.split()[3:] == ["4", "comm"]

    def test_placeholder_without_counters(self):
        assert "no rule-level counters" in hottest_rules(
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
    """``service.*`` records roll up like every other span."""

    def test_rates_and_queue_wait(self):
        """The hit and dedupe rates' numerators and denominator, and
        the queue wait's total and max."""
        out = phase_rollup(_service_events())
        assert re.search(r" 4  service\.request$", out, re.M)
        assert _attr(out, "service.request", "cache_hit") == "no x2, yes x2"
        assert _attr(out, "service.request", "deduped") == "no x3, yes x1"
        assert _attr(out, "service.request", "queue_s") == (
            "total 0.02  max 0.02"
        )

    def test_batch_sizes(self):
        out = phase_rollup(_service_events())
        assert re.search(r" 1  service\.batch$", out, re.M)
        assert _attr(out, "service.batch", "n_kernels") == "total 3  max 3"

    def test_placeholder_without_service_records(self):
        assert "service." not in phase_rollup(_synthetic_events())

    def test_aggregates_across_traces(self):
        request = rollup(_service_events() + _service_events())[
            "service.request"
        ]
        assert request["calls"] == 8
        assert request["attrs"]["cache_hit"]["tally"] == {False: 4, True: 4}
        assert request["attrs"]["kernel"]["tally"] == {"qprod": 6, "dot-8": 2}


def _synthesis_events():
    return [
        {"name": "synthesize", "id": 0, "ts": 1.0, "dur": 3.0,
         "attrs": {"n_rules": 42}},
        {"name": "synthesize.enumerate", "id": 1, "parent": 0,
         "ts": 1.0, "dur": 1.5,
         "attrs": {"shards": 4,
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
    """``synthesize.*`` spans roll up like every other span; their
    per-size dicts are summed key by key."""

    def test_per_size_table_and_counters(self):
        out = phase_rollup(_synthesis_events())
        enum = "synthesize.enumerate"
        assert _attr(out, enum, "size_times") == "1=0.001 2=0.01 3=0.4"
        assert _attr(out, enum, "size_terms") == "1=5 2=30 3=260"
        assert _attr(out, enum, "size_new") == "1=5 2=10 3=58"
        assert _attr(out, enum, "shards") == "total 4  max 4"
        verify = "synthesize.verify"
        assert _attr(out, verify, "batched_terms") == "total 160  max 160"
        assert _attr(out, verify, "legacy_terms") == "total 2  max 2"
        assert _attr(out, "synthesize.minimize", "n_screened") == (
            "total 3  max 3"
        )

    def test_aggregates_across_runs(self):
        out = phase_rollup(_synthesis_events() + _synthesis_events())
        verify = "synthesize.verify"
        assert _attr(out, verify, "batched_terms") == "total 320  max 160"
        assert _attr(out, verify, "legacy_terms") == "total 4  max 2"
        enum = "synthesize.enumerate"
        assert _attr(out, enum, "size_times") == "1=0.002 2=0.02 3=0.8"
        assert _attr(out, enum, "size_terms") == "1=10 2=60 3=520"

    def test_placeholder_without_synthesis_spans(self):
        assert "synthesize" not in phase_rollup(_synthetic_events())

    def test_traced_synthesis_round_trips(self, tmp_path, monkeypatch):
        """A real traced synthesize_rules rolls up its stage counters."""
        from repro.isa import fusion_g3_spec
        from repro.ruler import SynthesisConfig, synthesize_rules

        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        synthesize_rules(
            fusion_g3_spec(),
            SynthesisConfig(max_term_size=2, minimize=False),
        )
        monkeypatch.delenv("REPRO_TRACE")
        rows = rollup(load_events(path))
        enum = rows["synthesize.enumerate"]["attrs"]
        assert "shards" in enum
        assert "batched_terms" in rows["synthesize.verify"]["attrs"]
        # Sizes 1 and 2 both enumerated something.
        sizes = enum["size_terms"]["sums"]
        assert set(sizes) == {"1", "2"} and all(sizes.values())


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
        # Valid JSON that is not a span object is garbage too.
        for line in ("42", '["a"]', '"x"', "null", '{"attrs": 5}'):
            path.write_text(f'{{"name": "a"}}\n\n{line}\n')
            with pytest.raises(ValueError, match=":3: not a span object"):
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

    @pytest.mark.parametrize("flag", ["--top", "--max-depth"])
    def test_main_rejects_a_negative_count(self, tmp_path, capsys, flag):
        # --top -1 listed all but one rule and --max-depth -1 hid the
        # whole timeline; both are usage errors now.
        path = tmp_path / "t.jsonl"
        path.write_text(
            "\n".join(json.dumps(e) for e in _synthetic_events()) + "\n"
        )
        with pytest.raises(SystemExit) as exit_:
            main([str(path), flag, "-1"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be 0 or more, got -1" in err
        assert main([str(path), flag, "0"]) == 0

    def test_main_non_object_line_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "a", "id": 0, "ts": 1, "dur": 0}\n42\n')
        assert main([str(path)]) == 1
        assert f"error: {path}:2: not a span object" in (
            capsys.readouterr().err
        )


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
    """The cost-prune and derivability-shrink funnels are totals on
    their spans' rows."""

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
        rows = rollup(self._events())
        prune = rows["synthesize.cost_prune"]["attrs"]
        assert [prune[k]["total"] for k in (
            "n_in", "n_kept", "n_dominated", "n_rescued"
        )] == [268, 170, 98, 19]
        shrink = rows["synthesize.minimize"]["attrs"]
        assert [shrink[k]["total"] for k in (
            "n_in", "n_kept", "n_screened"
        )] == [97, 60, 4]
        assert rows["synthesize.cost_prune"]["dur"] == pytest.approx(0.3)

    def test_empty_trace_notes_absence(self):
        assert phase_rollup([]) == "(no spans in this trace)"
        assert "synthesize" not in phase_rollup(
            [{"name": "compile", "attrs": {}}]
        )


@pytest.fixture(scope="module")
def mixed_events(tmp_path_factory):
    """One trace of a compile, a small synthesis with cost pruning and
    one served request (a result-cache miss, so the server compiles)."""
    from repro.compiler.compile import CompileOptions
    from repro.compiler.frontend import trace_kernel
    from repro.core import default_compiler
    from repro.egraph.runner import RunnerLimits
    from repro.isa import fusion_g3_spec
    from repro.ruler import SynthesisConfig, synthesize_rules
    from repro.service import ArtifactRegistry, BackgroundServer, CompileClient

    limits = RunnerLimits(max_iterations=4, max_nodes=4_000)
    options = CompileOptions(
        max_rounds=1, expansion_limits=limits, compilation_limits=limits,
        optimization_limits=limits,
    )
    kernel = trace_kernel(
        "vadd4", lambda a, b: [a[i] + b[i] for i in range(4)],
        {"a": 4, "b": 4}, width=4,
    )
    registry = ArtifactRegistry(tmp_path_factory.mktemp("registry"))
    sink = ListSink()
    with use_tracer(Tracer(sink)):
        default_compiler().compile_kernel(kernel, options)
        synthesize_rules(
            fusion_g3_spec(),
            SynthesisConfig(max_term_size=2, minimize=False),
        )
        with BackgroundServer(registry=registry) as server:
            with CompileClient(port=server.port) as client:
                assert client.compile(kernel, options=options)["ok"]
    return sink.events


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class TestGenericRollup:
    """The rollup over a trace that every layer fed."""

    def test_numeric_totals_are_sums_over_the_events(self, mixed_events):
        names = {e["name"] for e in mixed_events}
        assert {"compile_kernel", "eqsat", "synthesize.cost_prune",
                "service.request", "service.batch"} <= names
        rows = rollup(mixed_events)
        text = phase_rollup(mixed_events)
        assert set(rows) == names
        for name, row in rows.items():
            spans = [e for e in mixed_events if e["name"] == name]
            assert row["calls"] == len(spans)
            assert row["dur"] == pytest.approx(sum(e["dur"] for e in spans))
            keys = {k for e in spans for k in e.get("attrs", {})}
            for key in keys - {"rule_match_time", "rule_node_visits",
                               "rule_unions", "applied"}:
                values = [e["attrs"][key] for e in spans
                          if key in e.get("attrs", {})]
                numbers = [v for v in values if _number(v)]
                if not numbers:
                    continue
                summary = rows[name]["attrs"][key]
                assert summary["total"] == sum(numbers), (name, key)
                assert summary["max"] == max(numbers), (name, key)
                total = sum(numbers)
                shown = f"{total:.4g}" if isinstance(total, float) else total
                assert _attr(text, name, key).startswith(f"total {shown}  ")

    def test_eqsat_row_shows_time_split_and_stop_reasons(self, mixed_events):
        text = phase_rollup(mixed_events)
        eqsat = [e["attrs"] for e in mixed_events if e["name"] == "eqsat"]
        for key in ("match_time", "index_time", "apply_time",
                    "rebuild_time"):
            total = sum(attrs[key] for attrs in eqsat)
            assert _attr(text, "eqsat", key).startswith(
                f"total {total:.4g}  max "
            )
        reasons = Counter(attrs["stop_reason"] for attrs in eqsat)
        assert _attr(text, "eqsat", "stop_reason") == ", ".join(
            f"{reason} x{n}" for reason, n in sorted(
                reasons.items(), key=lambda kv: (-kv[1], kv[0])
            )
        )

    def test_merges_come_from_rule_unions_only(self, mixed_events):
        unions: Counter = Counter()
        applied: Counter = Counter()
        for event in mixed_events:
            attrs = event.get("attrs", {})
            unions.update(attrs.get("rule_unions", {}))
            applied.update(attrs.get("applied", {}))
        rows = hottest_rules(mixed_events, top=10_000).splitlines()[2:-1]
        listed = [row.split()[-1] for row in rows]
        for row, rule in zip(rows, listed):
            assert row.split()[-2].rstrip("*") == str(unions[rule])
        # Some listed rule merged in a traced iteration, so adding the
        # applied maps too would have changed its count.
        assert any(applied[rule] for rule in listed)
