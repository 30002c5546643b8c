"""CompilerArtifact: round-trips, semantics fingerprints, registry misses."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.compiler.compile import CompileOptions
from repro.compiler.diospyros import diospyros_rules
from repro.core.artifact import (
    ArtifactError,
    CompilerArtifact,
    artifact_fingerprint,
    spec_fingerprint,
    spec_semantics_hash,
)
from repro.core.framework import GeneratedCompiler
from repro.egraph.runner import RunnerLimits
from repro.isa import customized_spec, fusion_g3_spec
from repro.isa.spec import IsaSpec
from repro.obs import ListSink, Tracer, use_tracer
from repro.phases.assign import PhaseParams, assign_phases, default_params
from repro.phases.cost import CostModel
from repro.ruler import SynthesisConfig
from repro.service import ArtifactRegistry


def fast_compile_options() -> CompileOptions:
    """Reduced saturation limits (same shape as the conftest helper)."""
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


def _handmade_compiler(spec, options=None):
    """A compiler with a real phased rule set but no live synthesis."""
    cost_model = CostModel(spec)
    ruleset = assign_phases(
        cost_model, diospyros_rules(spec), default_params(spec)
    )
    return GeneratedCompiler(
        spec=spec,
        cost_model=cost_model,
        ruleset=ruleset,
        options=options or fast_compile_options(),
    )


def _mutate_lane_fn(spec: IsaSpec, name: str) -> IsaSpec:
    """The same spec with one instruction's *behaviour* changed.

    Name, arity, kind, and cost stay identical — only the lane
    function differs, which the legacy fingerprint could not see.
    """
    instructions = []
    for instr in spec.instructions:
        if instr.name == name:
            old_fn = instr.lane_fn

            def twisted(*args, _fn=old_fn):
                return _fn(*args) + 1.0

            instr = dataclasses.replace(instr, lane_fn=twisted)
        instructions.append(instr)
    return dataclasses.replace(spec, instructions=tuple(instructions))


BUNDLED_SPECS = {
    "fusion_g3": fusion_g3_spec,
    "fusion_g3_mulsub": lambda: customized_spec(
        fusion_g3_spec(), mulsub=True
    ),
    "fusion_g3_sqrtsgn": lambda: customized_spec(
        fusion_g3_spec(), sqrtsgn=True
    ),
}


class TestSemanticsFingerprint:
    def test_stable_across_calls(self, spec):
        assert spec_semantics_hash(spec) == spec_semantics_hash(spec)

    def test_lane_function_edit_changes_hash(self, spec):
        mutated = _mutate_lane_fn(spec, "+")
        assert spec_semantics_hash(mutated) != spec_semantics_hash(spec)

    def test_lane_function_edit_changes_spec_fingerprint(self, spec):
        # The satellite regression: the legacy fingerprint keyed on
        # name/arity/kind/cost only, so a semantics edit hit stale
        # caches.
        config = SynthesisConfig(max_term_size=3)
        mutated = _mutate_lane_fn(spec, "*")
        assert spec_fingerprint(mutated, config) != spec_fingerprint(
            spec, config
        )

    def test_lane_function_edit_misses_artifact_cache(self, spec, tmp_path):
        # The registry, where published artifacts live, finds them by
        # probed semantics.
        config = SynthesisConfig(max_term_size=3)
        registry = ArtifactRegistry(tmp_path)
        registry.publish(_handmade_compiler(spec).to_artifact(config=config))
        assert registry.find_artifact(spec) is not None
        assert registry.find_artifact(_mutate_lane_fn(spec, "+")) is None

    def test_phase_params_are_part_of_the_key(self, spec):
        config = SynthesisConfig(max_term_size=3)
        a = artifact_fingerprint(spec, config, PhaseParams(25.0, 12.0))
        b = artifact_fingerprint(spec, config, PhaseParams(30.0, 12.0))
        assert a != b


class TestCorruptCacheIsAMiss:
    def test_corrupt_json_is_a_miss_not_a_crash(self, spec, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        path = registry.artifact_path(
            artifact_fingerprint(
                spec, SynthesisConfig(max_term_size=3), default_params(spec)
            )
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ this is not json")
        sink = ListSink()
        with use_tracer(Tracer(sink)):
            assert registry.find_artifact(spec) is None
        corrupt = sink.by_name("registry.corrupt")
        assert len(corrupt) == 1
        assert corrupt[0]["attrs"]["path"] == str(path)
        assert corrupt[0]["attrs"]["error"]

    def test_truncated_artifact_is_a_miss(self, spec, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        path = registry.publish(_handmade_compiler(spec).to_artifact())
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        sink = ListSink()
        with use_tracer(Tracer(sink)):
            assert registry.find_artifact(spec) is None
        assert len(sink.by_name("registry.corrupt")) == 1

    def test_wrong_kind_rejected_loudly_on_direct_load(self, tmp_path):
        path = tmp_path / "not-an-artifact.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ArtifactError):
            CompilerArtifact.load(path)


class TestAtomicWrites:
    """Every on-disk entry is written through ``write_atomic``."""

    @staticmethod
    def _crash_mid_write(monkeypatch):
        """Make ``Path.write_text`` write half its text, then raise."""
        real = Path.write_text

        def torn(self, text, *args, **kwargs):
            real(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk went away mid-write")

        monkeypatch.setattr(Path, "write_text", torn)

    def test_crashed_save_leaves_the_previous_artifact(
        self, spec, tmp_path, monkeypatch
    ):
        artifact = _handmade_compiler(spec).to_artifact()
        path = artifact.save(tmp_path / "artifact.json")
        before = path.read_text()
        self._crash_mid_write(monkeypatch)
        with pytest.raises(OSError, match="mid-write"):
            artifact.save(path)
        assert path.read_text() == before
        assert CompilerArtifact.load(path).fingerprint == artifact.fingerprint
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_registry_writes_are_atomic(self, spec, tmp_path, monkeypatch):
        registry = ArtifactRegistry(tmp_path)
        artifact = _handmade_compiler(spec).to_artifact()
        published = registry.publish(artifact)
        stored = registry.store_result("k", {"answer": 1})
        self._crash_mid_write(monkeypatch)
        with pytest.raises(OSError, match="mid-write"):
            registry.publish(artifact)
        with pytest.raises(OSError, match="mid-write"):
            registry.store_result("k", {"answer": 2})
        assert CompilerArtifact.load(published).fingerprint == (
            artifact.fingerprint
        )
        assert registry.load_result("k") == {"answer": 1}
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == (
            sorted([published.name, stored.name])
        )


class TestRoundTrip:
    @pytest.mark.parametrize("isa", sorted(BUNDLED_SPECS))
    def test_round_trip_preserves_offline_product(self, isa):
        spec = BUNDLED_SPECS[isa]()
        compiler = _handmade_compiler(spec)
        artifact = compiler.to_artifact(
            config=SynthesisConfig(max_term_size=3)
        )
        restored_artifact = CompilerArtifact.from_json(artifact.to_json())
        restored = GeneratedCompiler.from_artifact(restored_artifact, spec)

        # Identical phase membership and rule set, phase by phase.
        for phase in ("expansion", "compilation", "optimization"):
            assert [
                (r.name, str(r)) for r in getattr(restored.ruleset, phase)
            ] == [
                (r.name, str(r)) for r in getattr(compiler.ruleset, phase)
            ]
        assert restored.ruleset.params == compiler.ruleset.params
        # Identical cost and compile parameters.
        assert restored_artifact.cost_params["leaf_cost"] == spec.leaf_cost
        assert restored.options == compiler.options

    @pytest.mark.parametrize("isa", sorted(BUNDLED_SPECS))
    def test_round_trip_compiles_identically(self, isa):
        from repro.compiler.frontend import trace_kernel

        spec = BUNDLED_SPECS[isa]()
        options = fast_compile_options()
        compiler = _handmade_compiler(spec, options=options)
        restored = GeneratedCompiler.from_artifact(
            CompilerArtifact.from_json(compiler.to_artifact().to_json()),
            spec,
        )
        program = trace_kernel(
            "vadd",
            lambda x, y: [x[i] + y[i] for i in range(4)],
            {"x": 4, "y": 4},
            4,
        )
        first, first_report = compiler.compile_term(program.term, options)
        second, second_report = restored.compile_term(program.term, options)
        assert str(first) == str(second)
        assert first_report.final_cost == second_report.final_cost

    def test_options_round_trip_including_limits(self, spec):
        options = CompileOptions(
            phased=False,
            max_rounds=3,
            expansion_limits=RunnerLimits(max_iterations=7, max_nodes=123),
        )
        compiler = _handmade_compiler(spec, options=options)
        artifact = CompilerArtifact.from_json(
            compiler.to_artifact().to_json()
        )
        assert artifact.options == options
        assert artifact.options.expansion_limits.max_nodes == 123

    def test_synthesis_provenance_recorded(self, spec, synthesis_size3):
        cost_model = CostModel(spec)
        compiler = GeneratedCompiler(
            spec=spec,
            cost_model=cost_model,
            ruleset=assign_phases(
                cost_model, synthesis_size3.rules, default_params(spec)
            ),
            synthesis=synthesis_size3,
        )
        artifact = compiler.to_artifact(
            config=SynthesisConfig(max_term_size=3)
        )
        prov = artifact.provenance
        assert prov["source"] == "synthesized"
        assert prov["n_rules"] == len(synthesis_size3.rules)
        assert prov["n_candidates"] == synthesis_size3.n_candidates
        assert "== timeline ==" not in artifact.summary()
        assert "synthesized" in artifact.summary()


class TestLoadedCompilerSkipsOfflineStage:
    def test_from_artifact_never_synthesizes_or_assigns(
        self, spec, tmp_path, monkeypatch
    ):
        """The acceptance criterion, via call counting: neither a saved
        file nor a registry lookup runs the offline stage."""
        config = SynthesisConfig(max_term_size=3)
        compiler = _handmade_compiler(spec)
        artifact = compiler.to_artifact(config=config)
        path = artifact.save(tmp_path / "artifact.json")
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.publish(artifact)

        calls = {"synthesize": 0, "assign": 0}
        import repro.core.framework as framework_mod
        import repro.core.pregen as pregen_mod

        def counting_synthesize(*args, **kwargs):
            calls["synthesize"] += 1
            raise AssertionError("synthesize_rules ran on an artifact load")

        def counting_assign(*args, **kwargs):
            calls["assign"] += 1
            raise AssertionError("assign_phases ran on an artifact load")

        monkeypatch.setattr(
            framework_mod, "synthesize_rules", counting_synthesize
        )
        for module in (framework_mod, pregen_mod):
            monkeypatch.setattr(module, "assign_phases", counting_assign)

        loaded = GeneratedCompiler.from_artifact(
            CompilerArtifact.load(path), spec
        )
        assert calls == {"synthesize": 0, "assign": 0}

        via_registry = registry.compiler_for(spec.name)
        assert calls == {"synthesize": 0, "assign": 0}
        assert len(via_registry.ruleset) == len(loaded.ruleset)

        # The loaded compiler actually works.
        from repro.compiler.frontend import trace_kernel

        program = trace_kernel(
            "sq", lambda x: [x[i] * x[i] for i in range(4)], {"x": 4}, 4
        )
        kernel = loaded.compile_kernel(program,
                                       options=fast_compile_options())
        assert kernel.machine_program.instrs

    def test_spec_mismatch_refused(self, spec):
        compiler = _handmade_compiler(spec)
        artifact = compiler.to_artifact()
        mutated = _mutate_lane_fn(spec, "+")
        with pytest.raises(ArtifactError):
            GeneratedCompiler.from_artifact(artifact, mutated)
        # check=False overrides for deliberate reuse.
        forced = GeneratedCompiler.from_artifact(
            artifact, mutated, check=False
        )
        assert len(forced.ruleset) == len(compiler.ruleset)


class TestPruningProvenance:
    def test_pruning_round_trips(self, spec):
        compiler = _handmade_compiler(spec)
        artifact = dataclasses.replace(
            compiler.to_artifact(),
            pruning={
                "single_lane": {
                    "n_in": 184, "n_kept": 97, "n_dominated": 87,
                    "n_rescued": 17,
                    "cost_model_digest": "2a68e38910dddbc4",
                },
            },
        )
        restored = CompilerArtifact.from_json(artifact.to_json())
        assert restored.pruning == artifact.pruning
        assert "pruning:" in restored.summary()
        assert "kept 97/184" in restored.summary()

    def test_absent_pruning_tolerated(self, spec):
        # Artifacts written before the pruning stage existed carry
        # no pruning key; loading must not care, and the fingerprint
        # must not move.
        compiler = _handmade_compiler(spec)
        artifact = compiler.to_artifact()
        doc = json.loads(artifact.to_json())
        doc.pop("pruning", None)
        restored = CompilerArtifact.from_json(json.dumps(doc))
        assert restored.pruning is None
        assert "pruning:" not in restored.summary()

    def test_cost_prune_default_keeps_fingerprints(self, spec):
        # The pruning stage defaults on without invalidating every
        # pre-existing artifact: the config only joins the cache key
        # when it deviates from the default.
        default = spec_fingerprint(spec, SynthesisConfig())
        explicit = spec_fingerprint(
            spec, SynthesisConfig(cost_prune=True)
        )
        legacy = spec_fingerprint(
            spec, SynthesisConfig(cost_prune=False)
        )
        assert default == explicit
        assert legacy != default


#: A ``schedule`` value as the v3 writer once emitted it (a tuned
#: saturation schedule disabling one rule).
_TUNED_SCHEDULE = {
    "version": 1,
    "note": "tuned",
    "rules": {"dead": {"disabled": True}},
    "phases": {},
}


class TestFormatVersions:
    def test_v2_artifact_without_schedule_still_loads(
        self, isaria_compiler
    ):
        artifact = isaria_compiler.to_artifact()
        doc = json.loads(artifact.to_json())
        assert "schedule" not in doc
        doc["version"] = 2
        restored = CompilerArtifact.from_json(json.dumps(doc))
        assert restored.version == 2
        assert restored.ruleset.to_text() == artifact.ruleset.to_text()

    def test_semantics_hash_unchanged_by_format_bump(
        self, isaria_compiler, spec
    ):
        # A v2-era artifact's spec_hash must still match today's probe
        # of the same ISA, or every pre-existing artifact would be
        # rejected by from_artifact.
        artifact = isaria_compiler.to_artifact()
        assert artifact.spec_hash == spec_semantics_hash(spec)
        type(isaria_compiler).from_artifact(artifact, spec)  # no raise

    def test_v3_null_schedule_loads_unchanged(self, spec):
        # The v3 writer always wrote the key, as null for the default
        # backoff scheduler.
        artifact = _handmade_compiler(spec).to_artifact()
        doc = json.loads(artifact.to_json())
        doc["schedule"] = None
        restored = CompilerArtifact.from_json(json.dumps(doc))
        assert restored.ruleset.to_text() == artifact.ruleset.to_text()
        assert restored.fingerprint == artifact.fingerprint
        assert restored.spec_hash == artifact.spec_hash

    def test_schedule_object_refused(self, spec):
        doc = json.loads(_handmade_compiler(spec).to_artifact().to_json())
        doc["schedule"] = _TUNED_SCHEDULE
        with pytest.raises(ArtifactError, match="'schedule'"):
            CompilerArtifact.from_json(json.dumps(doc))

    def test_registry_rebuilds_over_a_scheduled_artifact(self, tmp_path):
        from test_service import _quick_options, _vadd

        root = tmp_path / "registry"
        first = ArtifactRegistry(root).entry_for("fusion-g3")
        path = ArtifactRegistry(root).artifact_path(first.fingerprint)
        doc = json.loads(path.read_text())
        doc["schedule"] = _TUNED_SCHEDULE
        path.write_text(json.dumps(doc))

        sink = ListSink()
        with use_tracer(Tracer(sink)):
            entry = ArtifactRegistry(root).entry_for("fusion-g3")
        corrupt = sink.by_name("registry.corrupt")
        assert [e["attrs"]["path"] for e in corrupt] == [str(path)]
        assert sink.by_name("registry.bootstrap")
        assert entry.fingerprint == first.fingerprint
        # The rebuilt entry overwrote the refused file.
        assert CompilerArtifact.load(path).fingerprint == first.fingerprint

        kernel = entry.compiler.compile_kernel(
            _vadd(), options=_quick_options()
        )
        expected = first.compiler.compile_kernel(
            _vadd(), options=_quick_options()
        )
        assert str(kernel.compiled_term) == str(expected.compiled_term)
        assert kernel.machine_program.instrs == (
            expected.machine_program.instrs
        )
        result = kernel.run({"a": [1, 2, 3, 4], "b": [10, 20, 30, 40]})
        assert result.array("out")[:4] == [11.0, 22.0, 33.0, 44.0]
