"""registry-hygiene: live-registry checks catch real rot, pass on the tree."""

import sys
import types
from pathlib import Path

import pytest

from repro.analysis.base import ProjectContext
from repro.analysis.driver import iter_modules, repo_root
from repro.analysis.rules.registries import RegistryHygiene
from repro.registry import Registry


def _ctx():
    root = repo_root()
    return ProjectContext(root=root, modules=tuple(iter_modules(root)))


def _run(monkeypatch, registries):
    monkeypatch.setattr("repro.analysis.rules.registries.COMPONENT_REGISTRIES", registries)
    return list(RegistryHygiene().check_project(_ctx()))


@pytest.fixture
def fake_module(monkeypatch):
    """A throwaway module holding a registry the rule can be pointed at."""
    module = types.ModuleType("repro_analysis_fake")
    module.REGISTRY = Registry("fake component")
    monkeypatch.setitem(sys.modules, "repro_analysis_fake", module)
    return module


def test_real_tree_has_no_hygiene_findings():
    findings = list(RegistryHygiene().check_project(_ctx()))
    assert findings == [], [f.render() for f in findings]


def test_undocumented_factory_is_flagged(monkeypatch, fake_module):
    def documented():
        """A perfectly documented component."""

    def undocumented():
        pass

    fake_module.REGISTRY.add("good", documented)
    fake_module.REGISTRY.add("bare", undocumented)
    findings = _run(
        monkeypatch, registries=(("repro_analysis_fake", "REGISTRY"),)
    )
    assert len(findings) == 1
    assert "'bare'" in findings[0].message
    assert "docstring" in findings[0].message


def test_missing_registry_attribute_is_flagged(monkeypatch):
    findings = _run(monkeypatch, registries=(("repro.registry", "NO_SUCH"),))
    assert len(findings) == 1
    assert "does not import" in findings[0].message
