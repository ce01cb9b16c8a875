"""Each benchmark workload at a tiny scale: every metric is emitted and checked."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import run, traced, workloads  # noqa: E402
from bench.speed import Speedometer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Reported by bench/run.py from its child interpreters, not by the workload code.
PROCESS_METRICS = {"setup_s", "peak_rss_mb"}

#: One round: a timed pair, one cold pass, one uncached round trip (two with
#: the warm-up's), one warm pass; the traced run adds cached round trips.
TINY = dict(
    rounds=1, pairs=1, cold_passes=1, uncached_trips=1, warm_passes=1, trace_repeats=2
)

#: Every Roofnet flow crosses 3-5 low-rate hops and needs ~0.4 s to deliver.
TIMED_DURATION_S = {"roofnet-tcp": 0.5}


def tiny_plan(workload: workloads.Workload) -> workloads.Plan:
    return replace(
        workload.plan,
        duration_s=TIMED_DURATION_S.get(workload.name, 0.05),
        grid_duration_s=0.05,
        service_duration_s=0.05,
        **TINY,
    )


def tiny_bench(workload: workloads.Workload, workdir: Path) -> workloads.Bench:
    workdir.mkdir()
    return workloads.prepare(workload, seed=3, plan=tiny_plan(workload), workdir=workdir)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric_and_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    tally = workloads.Tally()

    bench = tiny_bench(workload, tmp_path / "measure")
    with Speedometer() as speedometer:
        measured, samples = workloads.measure(bench, tally, speedometer)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {key: entry["unit"] for key, entry in measured.items()} == {
        key: unit for key, unit in expected.items() if key not in PROCESS_METRICS
    }
    assert all(entry["value"] > 0 for entry in measured.values())
    assert all(len(samples["scaled"][key]) == entry["samples"] for key, entry in measured.items())

    metrics = traced.trace(tiny_bench(workload, tmp_path / "trace"), tally)
    assert {key: entry["unit"] for key, entry in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    for part in ("D", "R16", "harness"):
        assert metrics[f"named_share.{part}"]["value"] >= 0.95
    assert tally.failures == []
    assert tally.attempted > 0


def test_plan_scales_with_run_length_and_keeps_a_floor():
    plan = workloads.WORKLOADS["line-tcp"].plan
    assert plan.scaled(workloads.REFERENCE_SECONDS) == plan
    doubled = plan.scaled(2 * workloads.REFERENCE_SECONDS)
    assert doubled.rounds == 2 * plan.rounds
    assert doubled.duration_s == plan.duration_s and doubled.warm_passes == plan.warm_passes
    assert plan.scaled(0.1).rounds == 2


def test_a_repeat_that_differs_is_a_failed_check(tmp_path):
    workload = workloads.WORKLOADS["line-tcp"]
    tally = workloads.Tally()
    runs = workloads.ScenarioRuns(tiny_bench(workload, tmp_path / "bench"), tally)
    result, _wall = runs.run("D", 0)
    result.events_processed += 1
    runs.record("D", runs.config("D", 0), result)
    assert len(tally.failures) == 1
    assert "repeat" in tally.failures[0]


def test_a_flow_that_never_delivers_is_a_failed_check(tmp_path):
    workload = workloads.WORKLOADS["line-tcp"]
    tally = workloads.Tally()
    runs = workloads.ScenarioRuns(tiny_bench(workload, tmp_path / "bench"), tally)
    config = runs.config("D", 0)
    result = workloads.run_scenario(config)
    for flow in result.flows:
        flow.packets_received = 0
    runs.record("D", config, result)
    runs.check_delivery()
    assert len(tally.failures) == 1 and "delivered nothing" in tally.failures[0]


def test_benchmark_json_follows_its_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["run_seconds"] == workloads.REFERENCE_SECONDS == run.DEFAULT_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= setup["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
