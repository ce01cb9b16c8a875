"""Meta-test: the committed tree itself passes the full analysis gate.

This is the test CI's ``analysis`` job mirrors — any rule violation
introduced anywhere under ``src/repro`` fails the suite locally before it
fails the gate.  A stale ``docs/ANALYSIS.md`` fails here and in CI's
``docs-freshness`` job.
"""

from fnmatch import fnmatch

from repro.analysis import analyze
from repro.analysis.base import ANALYSIS_RULES
from repro.analysis.driver import iter_modules, known_rule_ids, repo_root
from repro.docs import check_freshness


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
    assert check_freshness(repo_root(), "docs/ANALYSIS.md") is None


def test_every_exemption_names_an_existing_module():
    """An exemption left behind for a deleted module would silently exempt
    whatever next lands at that path."""
    modules = [module for _, module in iter_modules()]
    for rule_id in known_rule_ids():
        for pattern in ANALYSIS_RULES.lookup(rule_id).allow_modules:
            assert any(fnmatch(module, pattern) for module in modules), (rule_id, pattern)


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
