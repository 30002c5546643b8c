"""The repro-artifact CLI: build, inspect, compile."""

import json

import pytest

from repro.core.pregen import DEFAULT_RULES_FILE
from repro.tools.artifact_cli import main

pytestmark = pytest.mark.skipif(
    not DEFAULT_RULES_FILE.exists(),
    reason="pregenerated rules not built",
)


@pytest.fixture(scope="module")
def artifact_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("artifact") / "fusion.json"
    assert main(["build", "-o", str(path), "--pregen"]) == 0
    return path


class TestBuildAndInspect:
    def test_build_writes_a_loadable_artifact(self, artifact_file):
        from repro.core.artifact import CompilerArtifact

        artifact = CompilerArtifact.load(artifact_file)
        assert artifact.isa_name == "fusion-g3"
        assert len(artifact.ruleset) > 300
        assert artifact.provenance["source"] == "pregenerated"

    def test_inspect_prints_summary(self, artifact_file, capsys):
        assert main(["inspect", str(artifact_file)]) == 0
        out = capsys.readouterr().out
        assert "fusion-g3" in out
        assert "expansion" in out
        assert "pregenerated" in out

    def test_build_output_echoed(self, artifact_file, capsys):
        # fixture already ran main(); run again into the same path to
        # capture stdout in this test's capsys window.
        assert main(["build", "-o", str(artifact_file), "--pregen"]) == 0
        assert "wrote" in capsys.readouterr().out


class TestCompile:
    def test_compile_one_kernel_quick(self, artifact_file, capsys):
        code = main([
            "compile", str(artifact_file),
            "--kernel", "matmul-2x2x2",
            "--quick", "--no-validate",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "matmul-2x2-2x2" in out
        assert "saturate=" in out  # per-pass timings in the table
        assert "1 kernels" in out

    def test_compile_uses_the_artifacts_isa(
        self, family_compilers, tmp_path, capsys
    ):
        path = family_compilers("masked", 4).to_artifact().save(
            tmp_path / "masked-w4.json"
        )
        code = main([
            "compile", str(path),
            "--kernel", "matmul-2x2x2",
            "--quick", "--no-validate",
        ])
        assert code == 0
        assert "1 kernels" in capsys.readouterr().out

    @pytest.mark.parametrize("field, value, message", [
        ("name", "no-such-isa", "unknown ISA 'no-such-isa'"),
        ("spec_hash", "0" * 16, "different ISA semantics than 'fusion-g3'"),
    ])
    def test_unresolvable_isa_is_a_one_line_error(
        self, artifact_file, tmp_path, capsys, field, value, message
    ):
        doc = json.loads(artifact_file.read_text())
        doc["isa"][field] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        code = main([
            "compile", str(path), "--kernel", "matmul-2x2x2", "--quick",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_kernel_is_an_error(self, artifact_file, capsys):
        code = main([
            "compile", str(artifact_file), "--kernel", "nope-0x0",
        ])
        assert code == 2
        assert "unknown kernels" in capsys.readouterr().err


class TestInspectRegistry:
    def test_registry_flag_with_explicit_dir(self, tmp_path, capsys):
        from repro.service.registry import ArtifactRegistry

        registry = ArtifactRegistry(tmp_path / "svc")
        registry.entry_for("fusion-g3")
        assert main(["inspect", "--registry", str(registry.root)]) == 0
        out = capsys.readouterr().out
        assert "registry: 1 artifacts" in out
        assert "fusion-g3" in out

    def test_bare_registry_flag_uses_env_default(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SERVICE_CACHE", str(tmp_path / "svc"))
        assert main(["inspect", "--registry"]) == 0
        out = capsys.readouterr().out
        # Nothing published yet: an empty registry is a note, and the
        # env-default root (not the cwd) is the one being read.
        assert "registry: empty" in out
        assert str(tmp_path / "svc") in out

    def test_inspect_without_arguments_is_an_error(self, capsys):
        assert main(["inspect"]) == 2
        assert "--registry" in capsys.readouterr().err
