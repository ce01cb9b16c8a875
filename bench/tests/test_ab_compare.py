"""bench/compare.py: verdicts and exit code on synthetic reports."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import compare  # noqa: E402

HIGHER = "higher"


def _runs(values, metric="sim_s_per_wall_s.D", trace=0, exact=False):
    return [
        {
            "seed": seed,
            "trace": trace,
            "workloads": {
                "line-tcp": {
                    "metrics": {metric: {"value": value, "unit": "sim-s/s", "exact": exact}}
                }
            },
        }
        for seed, value in enumerate(values)
    ]


def test_a_median_worse_than_the_bound_is_a_regression():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    change = [value * 0.85 for value in parent]
    assert compare.verdict(parent, change, HIGHER, 0.07) == "regression"
    assert compare.verdict(parent, change, "lower", 0.07) == "gain"


def test_a_gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parent_spread():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(parent, [v * 1.05 for v in parent], HIGHER, 0.07) == "gain"
    mixed = [v * 1.05 for v in parent[:8]] + [v * 0.98 for v in parent[8:]]
    assert compare.verdict(parent, mixed, HIGHER, 0.07) == "same"
    assert compare.verdict(parent[:5], [v * 1.05 for v in parent[:5]], HIGHER, 0.07) == "same"


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [0.8, 1.2, 0.9, 1.1, 1.0, 0.85, 1.15, 0.95, 1.05, 1.0]
    change = list(reversed(parent))
    assert compare.verdict(parent, change, HIGHER, 0.07) == "unresolved"


def test_main_flags_a_synthetic_regression(tmp_path, capsys):
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"runs": _runs(parent)}))
    b.write_text(json.dumps({"runs": _runs([v * 0.7 for v in parent])}))
    assert compare.main([str(a), str(b)]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert "regression" in next(row for row in rows if "sim_s_per_wall_s.D" in row)
    assert compare.main([str(a), str(a)]) == 0


def test_counters_must_match_exactly_for_a_common_seed():
    parent = _runs([0.25, 0.5], metric="mac.retx_frac.D", trace=1, exact=True)
    same = compare._counter_status(compare._series(parent, 1), compare._series(parent, 1))
    assert same == ["counters line-tcp: exact match"]
    change = _runs([0.25, 0.6], metric="mac.retx_frac.D", trace=1, exact=True)
    differ = compare._counter_status(compare._series(parent, 1), compare._series(change, 1))
    assert differ == ["counters line-tcp: DIFFER in mac.retx_frac.D"]
