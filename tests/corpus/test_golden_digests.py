"""The golden-digest pin: accidental digest drift fails, schema bumps pass.

``tests/corpus/golden_digests.json`` pins the sweep-cache digest of one
canonical scenario per registered component.  The committed tree must
verify clean; any change that moves a digest without bumping
``CACHE_SCHEMA_VERSION`` must fail with an actionable message.
"""

import json
from pathlib import Path

import pytest

from repro.corpus import golden

GOLDEN_PATH = Path(__file__).parent / "golden_digests.json"


@pytest.fixture(scope="module")
def stored():
    return json.loads(GOLDEN_PATH.read_text())


class TestCommittedPins:
    def test_committed_tree_matches_the_pins(self, stored):
        assert golden.verify_golden(stored) == []

    def test_panel_covers_at_least_twenty_scenarios(self, stored):
        assert len(stored["digests"]) >= 20

    def test_every_registry_surfaces_in_the_panel(self, stored):
        labels = set(stored["digests"])
        for prefix in ("topology=", "mac=", "routing=", "traffic=",
                       "transport=", "phy.propagation=", "mobility="):
            assert any(label.startswith(prefix) for label in labels), prefix

    def test_trace_pin_is_path_independent(self, stored):
        # The fixture is addressed by an absolute path, but its digest is
        # computed over the resolved topology (name trace:corpus_line,
        # positions inline) — no machine-specific path can leak in.
        assert "topology=trace:corpus_line" in stored["digests"]
        documents = golden.golden_documents()
        digest = golden.current_digests()["topology=trace:corpus_line"]
        assert str(Path.cwd()) not in digest
        assert documents["topology=trace:corpus_line"]["topology"]["name"].startswith("trace:")


class TestDriftDetection:
    def test_digest_change_without_schema_bump_fails(self, stored, monkeypatch):
        monkeypatch.setattr(
            golden, "config_digest", lambda config: "0" * 64
        )
        messages = golden.verify_golden(stored)
        assert messages and all("drift" in message for message in messages)
        assert any("CACHE_SCHEMA_VERSION" in message for message in messages)

    def test_schema_bump_short_circuits_to_regenerate_advice(self, stored, monkeypatch):
        import repro.experiments.parallel as parallel

        monkeypatch.setattr(
            parallel, "CACHE_SCHEMA_VERSION", parallel.CACHE_SCHEMA_VERSION + 1
        )
        messages = golden.verify_golden(stored)
        assert len(messages) == 1
        assert "regenerate" in messages[0]

    def test_unpinned_scenario_is_reported(self, stored):
        trimmed = {
            "schema": stored["schema"],
            "digests": dict(list(stored["digests"].items())[:-1]),
        }
        messages = golden.verify_golden(trimmed)
        assert messages and "not pinned" in messages[0]
