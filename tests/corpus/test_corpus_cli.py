"""CLI contract of python -m repro.corpus: exit codes, JSON, docs flags."""

import json

from repro.corpus.__main__ import JSON_SCHEMA_VERSION, main
from repro.corpus.checks import known_check_ids


class TestGate:
    def test_clean_sample_exits_zero(self, capsys):
        assert main(["--sample", "2", "--seed", "0", "--duration", "0.005"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_json_output_schema(self, capsys):
        status = main(
            [
                "--sample", "2", "--seed", "0", "--duration", "0.005",
                "--check", "digest-stability", "--format", "json",
            ]
        )
        assert status == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == JSON_SCHEMA_VERSION
        assert document["sample"] == 2
        assert document["seed"] == 0
        assert document["checks"] == ["digest-stability"]
        assert len(document["specs"]) == 2
        assert document["count"] == 0 and document["findings"] == []

    def test_list_prints_the_check_catalogue(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for check_id in known_check_ids():
            assert check_id in out

    def test_unknown_check_is_a_usage_error(self, capsys):
        try:
            main(["--check", "bogus"])
        except SystemExit as exc:
            assert exc.code == 2
        else:  # pragma: no cover - argparse always raises
            raise AssertionError("expected SystemExit")


class TestDocs:
    def test_committed_corpus_docs_are_fresh(self, capsys):
        assert main(["--check-docs"]) == 0
        assert "up to date" in capsys.readouterr().out

    def test_stale_docs_exit_one_with_diff(self, tmp_path, capsys):
        stale = tmp_path / "CORPUS.md"
        stale.write_text("outdated\n", encoding="utf-8")
        assert main(["--check-docs", "--docs-output", str(stale)]) == 1
        assert "stale" in capsys.readouterr().out

    def test_write_docs_round_trips_check(self, tmp_path, capsys):
        target = tmp_path / "CORPUS.md"
        assert main(["--write-docs", "--docs-output", str(target)]) == 0
        assert main(["--check-docs", "--docs-output", str(target)]) == 0


class TestGolden:
    def test_write_golden_creates_the_pin_file(self, tmp_path, capsys):
        target = tmp_path / "golden.json"
        assert main(["--write-golden", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert set(payload) == {"schema", "digests"}
        assert len(payload["digests"]) >= 20
