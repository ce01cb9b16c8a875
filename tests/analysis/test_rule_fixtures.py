"""Fixture-driven good/bad snippet pairs for every source rule.

Each file under ``tests/analysis/fixtures/<rule-id>/`` starts with a
``# fixture-module: repro/...`` header naming the src-relative module
path the snippet pretends to live at (rule scopes and allowlists match
against that path).  ``bad_*`` fixtures must produce at least one
finding from the directory's rule; ``good_*`` fixtures must produce
none.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze_source

FIXTURES = Path(__file__).parent / "fixtures"

_HEADER = "# fixture-module:"


def _fixture_cases():
    cases = []
    for rule_dir in sorted(FIXTURES.iterdir()):
        if not rule_dir.is_dir():
            continue
        for path in sorted(rule_dir.glob("*.py")):
            cases.append(pytest.param(rule_dir.name, path, id=f"{rule_dir.name}/{path.stem}"))
    return cases


def _load(path):
    source = path.read_text(encoding="utf-8")
    first, _, _ = source.partition("\n")
    assert first.startswith(_HEADER), f"{path} is missing a fixture-module header"
    return source, first[len(_HEADER) :].strip()


def test_every_rule_has_fixture_coverage():
    """Each fixture directory carries at least one bad and one good case."""
    dirs = [d for d in FIXTURES.iterdir() if d.is_dir()]
    assert dirs, "no fixture directories found"
    for rule_dir in dirs:
        names = [p.name for p in rule_dir.glob("*.py")]
        assert any(n.startswith("bad_") for n in names), rule_dir.name
        assert any(n.startswith("good_") for n in names), rule_dir.name


@pytest.mark.parametrize("rule_id, path", _fixture_cases())
def test_fixture(rule_id, path):
    source, module = _load(path)
    findings = analyze_source(source, module=module, rule_ids=[rule_id])
    if path.name.startswith("bad_"):
        assert findings, f"{path.name} expected >=1 finding, got none"
        assert all(f.rule == rule_id for f in findings)
        assert all(f.line >= 1 for f in findings)
    else:
        assert findings == [], [f.render() for f in findings]


@pytest.mark.parametrize("name", ["bad_time_time", "bad_datetime_now"])
def test_wall_clock_finding_points_at_the_sweep_runner(name):
    source, module = _load(FIXTURES / "no-wall-clock" / f"{name}.py")
    (finding,) = analyze_source(source, module=module, rule_ids=["no-wall-clock"])
    assert "belongs in the sweep runner, repro.experiments.parallel" in finding.message
