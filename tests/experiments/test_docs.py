"""The generated reference documents: content, freshness, the one command."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

import repro.docs
from repro.docs import (
    GENERATED_DOCS,
    DocsError,
    check_freshness,
    generate_components_markdown,
    main,
    registry_sections,
    repo_root,
)
from repro.registry import Registry


@pytest.fixture
def scratch_root(tmp_path, monkeypatch):
    """A repository root holding copies of every committed generated document."""
    for path in GENERATED_DOCS:
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(repo_root() / path, tmp_path / path)
    monkeypatch.setattr(repro.docs, "repo_root", lambda: tmp_path)
    return tmp_path


class TestGeneration:
    def test_every_registry_section_present(self):
        titles = [section.title for section in registry_sections()]
        assert titles == [
            "Topologies",
            "MAC schemes",
            "Routing strategies",
            "Traffic kinds",
            "Transport schemes",
            "Mobility models",
            "Propagation models",
        ]

    def test_all_new_components_listed(self):
        markdown = generate_components_markdown()
        for name in ("rate_adapt", "poisson", "rayleigh", "rician", "trace:<arg>", "shadowing"):
            assert f"`{name}`" in markdown, name

    def test_aliases_and_params_rendered(self):
        markdown = generate_components_markdown()
        assert "`etx`" in markdown  # adaptive_etx alias
        assert "`k_factor=4.0`" in markdown  # rician builder signature
        assert "`arrival_rate_hz=4.0`" in markdown  # poisson installer signature
        assert "`speed_min_mps=0.0`" in markdown  # mobility doc_params

    def test_generation_is_deterministic(self):
        assert generate_components_markdown() == generate_components_markdown()

    def test_every_description_is_nonempty(self):
        for section in registry_sections():
            for row in section.rows:
                assert row.description.strip(), (section.title, row.name)

    def test_undocumented_component_fails_the_build(self):
        from repro.docs import _plain_rows

        registry = Registry("demo widget")

        @registry.register("undocumented")
        def _build():  # noqa: no docstring on purpose
            pass

        with pytest.raises(DocsError, match="demo widget 'undocumented'"):
            _plain_rows(registry, skip=0)

    def test_undocumented_corpus_check_fails_the_build(self, monkeypatch):
        """The base class's docstring does not stand in for a check's own."""
        from repro.corpus import docs as corpus_docs
        from repro.corpus.checks import InvariantCheck

        class Undocumented(InvariantCheck):
            id = "undocumented"
            title = "no docstring on purpose"

        registry = Registry("corpus check")
        registry.add(Undocumented.id, Undocumented())
        monkeypatch.setattr(corpus_docs, "CORPUS_CHECKS", registry)
        with pytest.raises(corpus_docs.CorpusDocsError, match="corpus check 'undocumented'"):
            corpus_docs._check_section("undocumented")

    @pytest.mark.parametrize("path", list(GENERATED_DOCS))
    def test_header_names_the_one_command(self, path):
        header, _, _ = GENERATED_DOCS[path]().partition("-->")
        assert "Regenerate with:  PYTHONPATH=src python -m repro.docs\n" in header
        assert "(python -m repro.docs --check)" in header


class TestFreshness:
    @pytest.mark.parametrize("path", list(GENERATED_DOCS))
    def test_committed_copy_is_fresh(self, path):
        """The repo's generated documents must match the live registries."""
        assert check_freshness(repo_root(), path) is None

    @pytest.mark.parametrize("path", list(GENERATED_DOCS))
    def test_stale_copy_yields_a_diff(self, path, scratch_root, capsys):
        (scratch_root / path).write_text("# old\n", encoding="utf-8")
        assert main(["--check"]) == 1
        out = capsys.readouterr().out
        assert f"--- {path} (committed)\n+++ {path} (generated)\n" in out
        assert "-# old\n" in out
        assert [doc for doc in GENERATED_DOCS if f"{doc} is stale" in out] == [path]
        assert out.count("is up to date") == len(GENERATED_DOCS) - 1

    @pytest.mark.parametrize("path", list(GENERATED_DOCS))
    def test_missing_copy_is_stale(self, path, scratch_root):
        (scratch_root / path).unlink()
        stale = [doc for doc in GENERATED_DOCS if check_freshness(scratch_root, doc)]
        assert stale == [path]

    def test_write_regenerates_every_document(self, scratch_root, capsys):
        for path in GENERATED_DOCS:
            (scratch_root / path).write_text("# old\n", encoding="utf-8")
        assert main([]) == 0
        for path in GENERATED_DOCS:
            assert (scratch_root / path).read_bytes() == (repo_root() / path).read_bytes()


class TestCli:
    def test_check_mode_exit_codes(self, scratch_root, capsys):
        assert main([]) == 0  # writes
        assert main(["--check"]) == 0  # fresh
        (scratch_root / "docs/COMPONENTS.md").write_text("# stale\n", encoding="utf-8")
        assert main(["--check"]) == 1
        capsys.readouterr()

    def test_check_resolves_paths_against_the_repository_root(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(repo_root() / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "repro.docs", "--check"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert not list(tmp_path.iterdir())

    def test_write_resolves_paths_against_the_repository_root(
        self, scratch_root, tmp_path_factory, monkeypatch, capsys
    ):
        elsewhere = tmp_path_factory.mktemp("elsewhere")
        monkeypatch.chdir(elsewhere)
        for path in GENERATED_DOCS:
            (scratch_root / path).write_text("# old\n", encoding="utf-8")
        assert main([]) == 0
        assert not list(elsewhere.iterdir())
        assert [doc for doc in GENERATED_DOCS if check_freshness(scratch_root, doc)] == []
