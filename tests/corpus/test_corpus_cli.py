"""CLI contract of python -m repro.corpus: exit codes, JSON, golden pins."""

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


class TestGolden:
    def test_write_golden_creates_the_pin_file(self, tmp_path, capsys):
        target = tmp_path / "golden.json"
        assert main(["--write-golden", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert set(payload) == {"schema", "digests"}
        assert len(payload["digests"]) >= 20
