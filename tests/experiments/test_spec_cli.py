"""``run --spec/--set``: arbitrary component combinations from the CLI."""

import json

import pytest

from repro.experiments.__main__ import _apply_sets, main
from repro.serialization import SpecError
from tests.conftest import removed_key_documents


class TestApplySets:
    def test_component_names_and_params(self):
        data = _apply_sets(
            {},
            ["topology=line", "topology.n_hops=3", "mac=ripple",
             "mac.max_aggregation=8", "routing=etx", "traffic=voip"],
        )
        assert data["topology"] == {"name": "line", "params": {"n_hops": 3}}
        assert data["mac"] == {"name": "ripple", "params": {"max_aggregation": 8}}
        assert data["routing"] == {"name": "etx"}
        assert data["traffic"] == {"name": "voip"}

    def test_scalar_aliases(self):
        data = _apply_sets({}, ["duration=0.5", "ber=1e-5", "scheme=R16", "seed=3"])
        assert data == {
            "duration_s": 0.5, "bit_error_rate": 1e-5, "scheme_label": "R16", "seed": 3,
        }

    def test_flows_list_parsing(self):
        assert _apply_sets({}, ["flows=1,2,3"])["active_flows"] == [1, 2, 3]
        assert _apply_sets({}, ["flows=1"])["active_flows"] == [1]

    def test_mobility_speed_shorthand(self):
        data = _apply_sets({}, ["mobility=random_waypoint", "mobility.speed=5"])
        assert data["mobility"]["model"] == "random_waypoint"
        assert data["mobility"]["params"] == {
            "speed_min_mps": 5.0, "speed_max_mps": 5.0,
        }

    def test_mobility_cadence_keys_go_to_spec_fields(self):
        data = _apply_sets({}, ["mobility=random_waypoint", "mobility.update_interval_s=0.1"])
        assert data["mobility"]["update_interval_s"] == 0.1

    def test_phy_profile_then_override(self):
        data = _apply_sets({}, ["phy=low_rate", "phy.max_deviation_sigmas=4"])
        assert data["phy"]["data_rate_bps"] == 6e6
        assert data["phy"]["max_deviation_sigmas"] == 4

    def test_assignment_order_is_irrelevant(self):
        """Names apply before dotted params, whatever the CLI order."""
        forward = _apply_sets({}, ["phy=low_rate", "phy.max_deviation_sigmas=4"])
        reverse = _apply_sets({}, ["phy.max_deviation_sigmas=4", "phy=low_rate"])
        assert forward == reverse
        mob = _apply_sets({}, ["mobility.speed=5", "mobility=random_waypoint"])
        assert mob["mobility"]["params"]["speed_max_mps"] == 5.0

    def test_dotted_override_on_inline_topology_rejected(self):
        from repro.topology.standard import fig1_topology

        base = {"topology": fig1_topology().to_dict()}
        with pytest.raises(SpecError, match="inline topology"):
            _apply_sets(base, ["topology.n_hops=8"])
        # but naming a builder replaces the inline layout wholesale
        data = _apply_sets(base, ["topology=line", "topology.n_hops=3"])
        assert data["topology"] == {"name": "line", "params": {"n_hops": 3}}

    def test_param_without_component_name_rejected(self):
        with pytest.raises(SpecError, match="without naming the component"):
            _apply_sets({}, ["mac.max_aggregation=8"])

    def test_missing_equals_rejected(self):
        with pytest.raises(SpecError, match="key=value"):
            _apply_sets({}, ["topology"])

    def test_unknown_dotted_component_rejected(self):
        with pytest.raises(SpecError, match="unknown component 'warp'"):
            _apply_sets({}, ["warp.factor=9"])

    def test_overrides_apply_on_top_of_spec_document(self):
        base = {"topology": {"name": "line", "params": {"n_hops": 4}}, "seed": 1}
        data = _apply_sets(base, ["seed=7", "topology.n_hops=3"])
        assert data["seed"] == 7
        assert data["topology"]["params"]["n_hops"] == 3


class TestRunSpecCli:
    def test_set_runs_arbitrary_combination(self, capsys):
        code = main([
            "run", "--no-cache",
            "--set", "topology=line", "topology.n_hops=3", "mac=dcf", "duration=0.05",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "topology=line3 mac=dcf routing=static traffic=flows transport=reno" in out
        assert "total TCP Mb/s" in out

    def test_spec_file_with_set_override(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "topology": {"name": "line", "params": {"n_hops": 3}},
            "mac": {"name": "afr"},
            "duration_s": 0.05,
        }))
        code = main(["run", "--no-cache", "--spec", str(path), "--set", "seed=2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mac=afr" in out and "seed=2" in out

    def test_traffic_override_reports_mos(self, capsys):
        code = main([
            "run", "--no-cache",
            "--set", "topology=fig1", "traffic=voip", "flows=1", "duration=0.05",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "traffic=voip" in out
        assert "udp" in out

    def test_seeds_expand_spec_runs(self, capsys):
        code = main([
            "run", "--no-cache", "--seeds", "2",
            "--set", "topology=line", "topology.n_hops=2", "duration=0.02",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "seed=1" in out and "seed=2" in out

    def test_spec_results_are_cached(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["run", "--set", "topology=line", "topology.n_hops=2", "duration=0.02"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0/1 hits" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "1/1 hits" in second

    def test_unknown_component_is_a_clean_error(self, capsys):
        code = main(["run", "--no-cache", "--set", "topology=line", "mac=warp"])
        assert code == 2
        assert "bad scenario spec" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(removed_key_documents()))
    def test_removed_key_in_spec_file_is_a_clean_error(self, tmp_path, capsys, case):
        document, key = removed_key_documents()[case]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        code = main(["run", "--no-cache", "--spec", str(path)])
        assert code == 2
        assert f"unknown field '{key}'" in capsys.readouterr().err

    def test_missing_topology_is_a_clean_error(self, capsys):
        code = main(["run", "--no-cache", "--set", "mac=dcf"])
        assert code == 2
        assert "needs a topology" in capsys.readouterr().err

    def test_names_and_spec_are_mutually_exclusive(self, capsys):
        code = main(["run", "fig3", "--set", "topology=line"])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_run_without_names_or_spec_is_an_error(self, capsys):
        code = main(["run"])
        assert code == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_list_shows_component_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "component registries" in out
        assert "MAC scheme:" in out and "ripple" in out


class TestRunJson:
    """``run --spec/--set --json``: machine-readable results on stdout."""

    ARGV = [
        "run", "--json",
        "--set", "topology=line", "topology.n_hops=2", "duration=0.02",
    ]

    def test_json_output_carries_digest_config_result(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments.parallel import config_digest
        from repro.experiments.runner import ScenarioConfig

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(self.ARGV) == 0
        captured = capsys.readouterr()
        entries = json.loads(captured.out)
        assert len(entries) == 1
        entry = entries[0]
        assert sorted(entry) == ["config", "digest", "result"]
        # The digest is the config's real content hash, so service results
        # addressed by digest line up with this output byte for byte.
        config = ScenarioConfig.from_dict(entry["config"])
        assert entry["digest"] == config_digest(config)
        assert entry["result"]["events_processed"] > 0
        # Human-facing cache summary moved to stderr; stdout stays pure JSON.
        assert "hits" in captured.err

    def test_json_run_twice_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(self.ARGV) == 0
        first = capsys.readouterr().out
        assert main(self.ARGV) == 0  # second run is a pure cache hit
        assert capsys.readouterr().out == first

    def test_json_with_seeds_emits_one_entry_per_seed(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(self.ARGV + ["--seeds", "2"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [entry["config"]["seed"] for entry in entries] == [1, 2]
        assert len({entry["digest"] for entry in entries}) == 2

    def test_json_without_spec_mode_rejected(self, capsys):
        assert main(["run", "fig3", "--json"]) == 2
        assert "--json needs" in capsys.readouterr().err
