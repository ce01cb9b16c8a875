"""``bench compare``: per-case sim-s/s deltas and the regression gate."""

import json

from repro.experiments.bench import compare_reports, compare_reports_data, load_report


def report(revision, cases, dispatch=()):
    """A report whose cases are ``(name, sim_s_per_wall_s, duration[, events_per_sec])``."""
    return {
        "revision": revision,
        "cases": [
            {
                "name": name,
                "family": name.split("/")[0],
                "scheme": name.split("/")[1],
                "sim_duration_s": duration,
                "events": 1000,
                "wall_s": duration / speed,
                "events_per_sec": eps[0] if eps else 100_000.0,
                "throughput_mbps": 1.0,
            }
            for name, speed, duration, *eps in cases
        ],
        "dispatch": [
            {"topology": topology, "transmissions_per_sec": tps}
            for topology, tps in dispatch
        ],
    }


class TestCompareReports:
    def test_no_regression_within_threshold(self):
        base = report("aaa", [("line/D", 2.0, 2.0)])
        cur = report("bbb", [("line/D", 1.92, 2.0)])
        text, regressions = compare_reports(base, cur, threshold_pct=5.0)
        assert regressions == []
        assert "no regressions" in text
        assert "-4.0%" in text

    def test_regression_beyond_threshold_detected(self):
        base = report("aaa", [("line/D", 1.0, 2.0), ("roofnet/R16", 4.0, 2.0)])
        cur = report("bbb", [("line/D", 1.005, 2.0), ("roofnet/R16", 3.0, 2.0)])
        text, regressions = compare_reports(base, cur, threshold_pct=10.0)
        assert regressions == ["roofnet/R16"]
        assert "REGRESSION" in text

    def test_fewer_events_per_second_is_not_a_regression(self):
        """Deleting timer events lowers events/s while the simulation gets faster."""
        base = report("aaa", [("line/D", 1.2, 2.0, 290_000.0)])
        cur = report("bbb", [("line/D", 1.5, 2.0, 190_000.0)])
        text, regressions = compare_reports(base, cur, threshold_pct=5.0)
        assert regressions == []
        assert "+25.0%" in text
        assert "290,000" in text and "190,000" in text  # events/s stays a column

    def test_more_events_per_second_does_not_hide_a_slowdown(self):
        base = report("aaa", [("line/D", 1.5, 2.0, 190_000.0)])
        cur = report("bbb", [("line/D", 1.2, 2.0, 290_000.0)])
        _text, regressions = compare_reports(base, cur, threshold_pct=10.0)
        assert regressions == ["line/D"]

    def test_dispatch_micros_compared(self):
        base = report("aaa", [], dispatch=[("roofnet", 10_000)])
        cur = report("bbb", [], dispatch=[("roofnet", 5_000)])
        _text, regressions = compare_reports(base, cur, threshold_pct=5.0)
        assert regressions == ["dispatch/roofnet"]

    def test_mismatched_durations_flagged_not_gated(self):
        base = report("aaa", [("line/D", 2.0, 2.0)])
        cur = report("bbb", [("line/D", 0.2, 0.05)])
        text, regressions = compare_reports(base, cur, threshold_pct=5.0)
        assert regressions == []
        assert "durations differ" in text

    def test_one_sided_cases_shown_not_gated(self):
        base = report("aaa", [("line/D", 2.0, 2.0)])
        cur = report("bbb", [("wigle/D", 1.8, 2.0)])
        text, regressions = compare_reports(base, cur, threshold_pct=5.0)
        assert regressions == []
        assert "only in baseline" in text and "only in current" in text

    def test_differing_case_sets_report_symmetric_difference(self):
        """Renamed cases: intersection compared, difference summarised."""
        base = report("aaa", [("line/D", 2.0, 2.0), ("line-clear/D", 2.0, 2.0)])
        cur = report("bbb", [("line5/D", 1.8, 2.0), ("line-clear/D", 0.8, 2.0)])
        text, regressions = compare_reports(base, cur, threshold_pct=5.0)
        # Only the common case gates; the renamed pair is reported, not compared.
        assert regressions == ["line-clear/D"]
        assert "case sets differ" in text
        assert "only in baseline: line/D" in text
        assert "only in current: line5/D" in text

    def test_cases_without_name_field_fall_back_to_family_scheme(self):
        """Old-schema reports (no ``name`` key) must not crash compare."""
        base = report("aaa", [("line/D", 2.0, 2.0)])
        for case in base["cases"]:
            del case["name"]
        cur = report("bbb", [("line/D", 1.0, 2.0)])
        text, regressions = compare_reports(base, cur, threshold_pct=10.0)
        assert regressions == ["line/D"]
        assert "REGRESSION" in text

    def test_structured_diff_payload(self):
        base = report("aaa", [("line/D", 2.0, 2.0, 300_000.0), ("gone/D", 1.0, 2.0)])
        cur = report("bbb", [("line/D", 1.0, 2.0, 150_000.0), ("new/D", 1.0, 2.0)])
        data = compare_reports_data(base, cur, threshold_pct=10.0)
        assert data["baseline_revision"] == "aaa"
        assert data["current_revision"] == "bbb"
        assert data["only_in_baseline"] == ["gone/D"]
        assert data["only_in_current"] == ["new/D"]
        assert data["regressions"] == ["line/D"]
        (row,) = data["cases"]
        assert row["name"] == "line/D"
        assert row["status"] == "regression"
        assert row["delta_pct"] == -50.0
        assert row["baseline_sim_s_per_wall_s"] == 2.0
        assert row["current_sim_s_per_wall_s"] == 1.0
        assert row["baseline_events_per_sec"] == 300_000.0
        assert row["current_events_per_sec"] == 150_000.0

    def test_committed_baselines_carry_both_fields(self):
        """Every case of a committed BENCH_*.json can be gated on sim-s/s."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        paths = sorted(root.glob("BENCH_*.json"))
        assert paths
        for path in paths:
            for case in load_report(str(path))["cases"]:
                assert case["sim_duration_s"] > 0 and case["wall_s"] > 0


class TestCompareCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_exit_zero_without_regression(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        a = self._write(tmp_path, "a.json", report("aaa", [("line/D", 2.0, 2.0)]))
        b = self._write(tmp_path, "b.json", report("bbb", [("line/D", 1.98, 2.0)]))
        assert main(["bench", "compare", a, b]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_exit_four_on_regression(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        a = self._write(tmp_path, "a.json", report("aaa", [("line/D", 2.0, 2.0)]))
        b = self._write(tmp_path, "b.json", report("bbb", [("line/D", 1.0, 2.0)]))
        assert main(["bench", "compare", a, b, "--threshold", "10"]) == 4
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_is_configurable(self, tmp_path):
        from repro.experiments.__main__ import main

        a = self._write(tmp_path, "a.json", report("aaa", [("line/D", 2.0, 2.0)]))
        b = self._write(tmp_path, "b.json", report("bbb", [("line/D", 1.6, 2.0)]))
        assert main(["bench", "compare", a, b, "--threshold", "30"]) == 0
        assert main(["bench", "compare", a, b, "--threshold", "10"]) == 4

    def test_malformed_subcommand_rejected(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["bench", "compare", "only-one.json"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_report_file_is_a_clean_error(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        b = self._write(tmp_path, "b.json", report("bbb", [("line/D", 1.0, 2.0)]))
        assert main(["bench", "compare", str(tmp_path / "nope.json"), b]) == 2
        assert "cannot read report" in capsys.readouterr().err

    def test_malformed_report_json_is_a_clean_error(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = self._write(tmp_path, "b.json", report("bbb", [("line/D", 1.0, 2.0)]))
        assert main(["bench", "compare", str(bad), good]) == 2
        assert "malformed report" in capsys.readouterr().err

    def test_json_output_for_ci(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        a = self._write(tmp_path, "a.json", report("aaa", [("line/D", 2.0, 2.0)]))
        b = self._write(tmp_path, "b.json", report("bbb", [("line/D", 1.0, 2.0)]))
        assert main(["bench", "compare", a, b, "--threshold", "10", "--json"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == ["line/D"]
        assert payload["cases"][0]["status"] == "regression"

    def test_json_output_exit_zero_without_regression(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        a = self._write(tmp_path, "a.json", report("aaa", [("line/D", 2.0, 2.0)]))
        b = self._write(tmp_path, "b.json", report("bbb", [("line/D", 1.98, 2.0)]))
        assert main(["bench", "compare", a, b, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["regressions"] == []

    def test_load_report_reads_written_json(self, tmp_path):
        payload = report("aaa", [("line/D", 1.0, 2.0)])
        path = self._write(tmp_path, "a.json", payload)
        assert load_report(path) == payload
