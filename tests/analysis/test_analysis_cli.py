"""CLI contract: exit codes, JSON schema, --list."""

import json

import pytest

from repro.analysis.__main__ import JSON_SCHEMA_VERSION, main
from repro.analysis.driver import known_rule_ids


def _scratch_tree(tmp_path, source):
    """A minimal repo root with one violating module under src/repro."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text('"""Scratch package."""\n', encoding="utf-8")
    (pkg / "offender.py").write_text(source, encoding="utf-8")
    return tmp_path


def test_clean_tree_exits_zero(tmp_path, capsys):
    root = _scratch_tree(tmp_path, '"""Clean module."""\nX = 1\n')
    assert main(["--root", str(root), "--rule", "no-wall-clock"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_violation_exits_one_with_location(tmp_path, capsys):
    root = _scratch_tree(
        tmp_path, '"""Offender."""\nimport time\nT = time.time()\n'
    )
    assert main(["--root", str(root), "--rule", "no-wall-clock"]) == 1
    out = capsys.readouterr().out
    assert "src/repro/offender.py:3" in out
    assert "[no-wall-clock]" in out


def test_json_output_schema(tmp_path, capsys):
    root = _scratch_tree(
        tmp_path, '"""Offender."""\nimport time\nT = time.time()\n'
    )
    assert main(["--root", str(root), "--rule", "no-wall-clock", "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == JSON_SCHEMA_VERSION
    assert document["root"] == str(root)
    assert document["count"] == len(document["findings"]) == 1
    finding = document["findings"][0]
    assert set(finding) == {"rule", "path", "line", "column", "message"}
    assert finding["rule"] == "no-wall-clock"
    assert finding["path"] == "src/repro/offender.py"
    assert finding["line"] == 3


def test_module_filter_restricts_scope(tmp_path, capsys):
    root = _scratch_tree(
        tmp_path, '"""Offender."""\nimport time\nT = time.time()\n'
    )
    assert main(["--root", str(root), "--rule", "no-wall-clock", "elsewhere"]) == 0


def test_list_prints_every_rule(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for rule_id in known_rule_ids():
        assert f"{rule_id}:" in out


def test_unknown_rule_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--rule", "no-such-rule"])
    assert excinfo.value.code == 2
    assert "no-such-rule" in capsys.readouterr().err

