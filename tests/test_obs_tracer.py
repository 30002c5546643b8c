"""The tracing subsystem: spans, sinks, env wiring, zero-cost-off."""

import gc
import json
import sys
import threading
import warnings

import pytest

from repro.obs import (
    NULL_TRACER,
    JsonlFileSink,
    ListSink,
    NullTracer,
    StderrSink,
    Tracer,
    current_tracer,
    set_tracer,
    tracer_from_env,
    use_tracer,
)


class TestEnvWiring:
    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no"])
    def test_falsy_values_disable(self, value):
        assert tracer_from_env(value) is NULL_TRACER

    def test_unset_env_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert current_tracer() is NULL_TRACER

    @pytest.mark.parametrize("value", ["1", "true", "stderr", "on"])
    def test_truthy_values_go_to_stderr(self, value):
        tracer = tracer_from_env(value)
        assert isinstance(tracer, Tracer)
        assert isinstance(tracer.sink, StderrSink)

    def test_other_values_are_file_paths(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = tracer_from_env(str(path))
        assert isinstance(tracer.sink, JsonlFileSink)
        assert tracer.sink.path == path

    def test_switching_trace_files_closes_the_old_one(
        self, monkeypatch, tmp_path
    ):
        # An unclosed file warns when collected; under the "error"
        # filter that warning reaches sys.unraisablehook.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        paths = [tmp_path / "one.jsonl", tmp_path / "two.jsonl"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            tracers = []
            for path in paths + paths:
                monkeypatch.setenv("REPRO_TRACE", str(path))
                tracer = current_tracer()
                with tracer.span("step"):
                    pass
                tracers.append(tracer)
            monkeypatch.delenv("REPRO_TRACE")
            assert current_tracer() is NULL_TRACER
            assert all(t.sink._file is None for t in tracers)
            del tracers, tracer
            gc.collect()
        assert unraisable == []
        for path in paths:
            lines = path.read_text().splitlines()
            assert [json.loads(line)["name"] for line in lines] == [
                "step", "step",
            ]

    def test_current_tracer_follows_env_changes(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert current_tracer() is NULL_TRACER
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.jsonl"))
        tracer = current_tracer()
        assert isinstance(tracer, Tracer)
        # Same value → same cached tracer (not rebuilt per call).
        assert current_tracer() is tracer

    def test_explicit_tracer_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.jsonl"))
        mine = Tracer(ListSink())
        with use_tracer(mine):
            assert current_tracer() is mine
        assert current_tracer() is not mine

    def test_set_tracer_none_reverts_to_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        mine = Tracer(ListSink())
        set_tracer(mine)
        try:
            assert current_tracer() is mine
        finally:
            set_tracer(None)
        assert current_tracer() is NULL_TRACER


class TestSpans:
    def test_span_emits_event_with_payload(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("work", n_rules=3) as span:
            span.add(n_unions=7)
        (event,) = sink.events
        assert event["name"] == "work"
        assert event["attrs"] == {"n_rules": 3, "n_unions": 7}
        assert event["dur"] >= 0.0
        assert "parent" not in event

    def test_nesting_tracks_parent_ids(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        inner, sibling, outer_ev = sink.events
        assert inner["name"] == "inner"
        assert inner["parent"] == outer.span_id
        assert sibling["parent"] == outer.span_id
        assert "parent" not in outer_ev
        assert len({e["id"] for e in sink.events}) == 3

    def test_exception_still_emits_and_flags_error(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (event,) = sink.events
        assert event["attrs"]["error"] is True

    def test_record_parents_under_open_span(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("stage") as stage:
            tracer.record("stage.sub", 0.25, n_items=4)
        sub, _stage_ev = sink.events
        assert sub["name"] == "stage.sub"
        assert sub["parent"] == stage.span_id
        assert sub["dur"] == 0.25
        assert sub["attrs"] == {"n_items": 4}
        # Retroactive: stamped as starting `duration` before it ended.
        assert sub["ts"] <= _stage_ev["ts"] + _stage_ev["dur"]

    def test_finish_is_idempotent(self):
        sink = ListSink()
        tracer = Tracer(sink)
        span = tracer.span("once")
        span.finish()
        span.finish()
        assert len(sink.events) == 1


class TestNullTracer:
    def test_null_span_is_shared_and_inert(self):
        tracer = NullTracer()
        a = tracer.span("x", n=1)
        b = tracer.span("y")
        assert a is b  # one shared object, no allocation per span
        assert a.enabled is False
        with a as span:
            assert span.add(foo=1) is span
        tracer.record("z", 1.0)
        tracer.close()

    def test_enabled_flags(self):
        assert NULL_TRACER.enabled is False
        assert Tracer(ListSink()).enabled is True


class TestJsonlFileSink:
    def test_appends_parseable_lines(self, tmp_path):
        path = tmp_path / "deep" / "trace.jsonl"
        tracer = Tracer(JsonlFileSink(path))
        with tracer.span("a"):
            pass
        tracer.close()
        # Append mode: a second tracer accumulates into the same file.
        tracer2 = Tracer(JsonlFileSink(path))
        with tracer2.span("b"):
            pass
        tracer2.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["name"] for e in events] == ["a", "b"]

    def test_close_racing_emits_loses_no_line(self, tmp_path):
        # Spans finish on worker threads while another thread closes
        # the sink (as a REPRO_TRACE switch does): each emit reopens the
        # file if needed and writes its whole line.
        path = tmp_path / "trace.jsonl"
        sink = JsonlFileSink(path)
        n_threads, n_events = 4, 200
        errors = []
        done = threading.Event()

        def emitter(worker):
            try:
                for i in range(n_events):
                    sink.emit({"name": "s", "worker": worker, "i": i})
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        def closer():
            while not done.is_set():
                sink.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            closing = threading.Thread(target=closer)
            closing.start()
            workers = [
                threading.Thread(target=emitter, args=(w,))
                for w in range(n_threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            done.set()
            closing.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        sink.close()
        assert not any(w.is_alive() for w in workers + [closing])
        assert errors == []
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert sorted((e["worker"], e["i"]) for e in events) == [
            (w, i) for w in range(n_threads) for i in range(n_events)
        ]


class TestPipelineIntegration:
    def test_saturation_emits_eqsat_spans(self):
        from repro.egraph.egraph import EGraph
        from repro.egraph.rewrite import parse_rewrite
        from repro.egraph.runner import run_saturation
        from repro.lang.parser import parse

        sink = ListSink()
        with use_tracer(Tracer(sink)):
            egraph = EGraph()
            egraph.add_term(parse("(+ a (+ b c))"))
            rules = [
                parse_rewrite("comm-add", "(+ ?a ?b) => (+ ?b ?a)"),
                parse_rewrite(
                    "assoc-add",
                    "(+ ?a (+ ?b ?c)) => (+ (+ ?a ?b) ?c)",
                ),
            ]
            report = run_saturation(egraph, rules)
        (eqsat,) = sink.by_name("eqsat")
        assert eqsat["attrs"]["n_rules"] == 2
        assert eqsat["attrs"]["stop_reason"] == report.stop_reason.value
        # SaturationPerf counters are folded into the span payload.
        assert eqsat["attrs"]["node_visits"] == report.perf.node_visits
        assert eqsat["attrs"]["n_matches"] == report.perf.n_matches
        assert eqsat["attrs"]["apply_time"] == report.perf.apply_time
        assert "rule_match_time" in eqsat["attrs"]
        iterations = sink.by_name("eqsat.iteration")
        assert len(iterations) == report.n_iterations
        assert all(e["parent"] == eqsat["id"] for e in iterations)

    def test_per_rule_span_maps_hold_only_nonzero_entries(self):
        from repro.egraph.egraph import EGraph
        from repro.egraph.rewrite import parse_rewrite
        from repro.egraph.runner import run_saturation
        from repro.lang.parser import parse

        sink = ListSink()
        with use_tracer(Tracer(sink)):
            egraph = EGraph()
            egraph.add_term(parse("(+ a b)"))
            rules = [
                parse_rewrite("comm-add", "(+ ?a ?b) => (+ ?b ?a)"),
                # No * in the graph: skipped unscanned, zero everywhere.
                parse_rewrite("comm-mul", "(* ?a ?b) => (* ?b ?a)"),
            ]
            report = run_saturation(egraph, rules)
        (eqsat,) = sink.by_name("eqsat")
        attrs = eqsat["attrs"]
        for key in ("rule_match_time", "rule_node_visits", "rule_unions"):
            assert "comm-mul" not in attrs[key]
            assert all(attrs[key].values())
        assert attrs["rule_unions"] == {"comm-add": 1}
        # The reports themselves keep every rule.
        assert report.perf.rule_unions == {"comm-add": 1, "comm-mul": 0}
        iterations = sink.by_name("eqsat.iteration")
        assert [e["attrs"]["applied"] for e in iterations] == [
            {"comm-add": 1}, {},
        ]
        assert report.iterations[-1].applied == {
            "comm-add": 0, "comm-mul": 0,
        }

    def test_assign_phases_and_extract_spans(self):
        from repro.egraph.egraph import EGraph
        from repro.egraph.extract import extract_best
        from repro.isa.fusion_g3 import fusion_g3_spec
        from repro.lang.parser import parse
        from repro.phases.assign import assign_phases, default_params
        from repro.phases.cost import CostModel

        spec = fusion_g3_spec()
        model = CostModel(spec)
        sink = ListSink()
        with use_tracer(Tracer(sink)):
            assign_phases(model, [], default_params(spec))
            egraph = EGraph()
            root = egraph.add_term(parse("(+ a b)"))
            extract_best(egraph, root, model)
        (assign,) = sink.by_name("assign_phases")
        assert assign["attrs"]["n_rules"] == 0
        (extract,) = sink.by_name("extract")
        assert extract["attrs"]["n_solved"] >= 1

    def test_disabled_tracing_adds_no_spans(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        from repro.egraph.egraph import EGraph
        from repro.egraph.rewrite import parse_rewrite
        from repro.egraph.runner import run_saturation
        from repro.lang.parser import parse

        egraph = EGraph()
        egraph.add_term(parse("(+ a b)"))
        report = run_saturation(
            egraph, [parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)")]
        )
        assert report.saturated
