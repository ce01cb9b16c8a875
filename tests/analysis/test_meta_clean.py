"""Meta-test: the committed tree itself passes the full analysis gate.

This is the test CI's ``analysis`` job mirrors — any rule violation
introduced anywhere under ``src/repro`` (or a stale ``docs/ANALYSIS.md``)
fails the suite locally before it fails the gate.
"""

from repro.analysis import analyze
from repro.analysis.docs import DEFAULT_OUTPUT, check_freshness
from repro.analysis.driver import iter_modules, known_rule_ids, repo_root


def test_full_pass_is_clean():
    findings = analyze()
    assert findings == [], "\n".join(f.render() for f in findings)


def test_all_five_rules_are_registered():
    assert known_rule_ids() == [
        "no-unkeyed-rng",
        "no-unordered-set-iteration",
        "no-wall-clock",
        "registry-hygiene",
        "slots-on-hot-path",
    ]


def test_pass_covers_the_whole_package():
    modules = {module for _, module in iter_modules()}
    assert "repro/sim/engine.py" in modules
    assert "repro/analysis/driver.py" in modules
    assert len(modules) > 40


def test_analysis_docs_are_fresh():
    assert check_freshness(str(repo_root() / DEFAULT_OUTPUT)) is None


def test_roofnet_suppression_is_justified():
    """The one committed pragma carries its reason (greppable audit trail)."""
    from repro.analysis.pragmas import PragmaIndex

    path = repo_root() / "src" / "repro" / "topology" / "roofnet.py"
    index = PragmaIndex(
        "src/repro/topology/roofnet.py",
        path.read_text(encoding="utf-8"),
        known_rules=set(known_rule_ids()),
    )
    assert index.errors() == []
    by_rule = index.by_rule()
    assert set(by_rule) == {"no-unkeyed-rng"}
    (pragma,) = by_rule["no-unkeyed-rng"]
    assert pragma.reason
