"""Tests for the maintenance tools."""

import sys

from repro.core.artifact import rules_from_text


class TestRegenRules:
    def test_main_writes_rules_file(self, tmp_path, monkeypatch):
        from repro.tools import regen_rules

        target = tmp_path / "rules.txt"
        monkeypatch.setattr(regen_rules, "DEFAULT_RULES_FILE", target)
        monkeypatch.setattr(sys, "argv", ["regen_rules", "3"])
        regen_rules.main()
        assert target.exists()
        rules = rules_from_text(target.read_text())
        assert len(rules) > 30
        # header records provenance
        assert "max_term_size=3" in target.read_text()


class TestBuildApiDocs:
    def test_fallback_writes_module_pages(self, tmp_path):
        from repro.tools import build_api_docs

        pages = build_api_docs.build_fallback(tmp_path)
        assert len(pages) > 50  # one page per repro module
        index = (tmp_path / "index.md").read_text()
        assert "repro.egraph.runner" in index
        assert "repro.obs" in index
        page = (tmp_path / "repro.obs.md").read_text()
        # exported names and their docstrings land on the page
        assert "Tracer" in page
        assert "tracer_from_env" in page

    def test_main_force_fallback(self, tmp_path, capsys):
        from repro.tools import build_api_docs

        rc = build_api_docs.main(["--force-fallback", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "index.md").exists()
