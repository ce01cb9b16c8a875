"""Compare a parent's benchmark report with a change's.

    python bench/compare.py PARENT.json CHANGE.json

Both reports are ``bench/run.py --out`` files holding several runs made on
one machine, alternating parent and change.  The i-th untraced run of each
report form a pair.  For every workload and end-to-end metric in
``BENCHMARK.json`` the verdict is:

``regression``
    the change's median is worse than the parent's by more than the bound;
``gain``
    the change wins at least nine tenths of all pairs (ties count for
    neither), over at least ten pairs, and the medians differ by more than
    the parent's interquartile range;
``unresolved``
    either side's spread (interquartile range over median) exceeds the
    bound, and not every change run beats every parent run;
``same``
    otherwise: within the bound.

Simulated counters (metrics a traced run marks ``exact``) must be equal
between traced runs of the same seed; their status is printed after the
table.  The exit code is 1 when any metric regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
GAIN_SHARE = 0.9
MIN_PAIRS = 10


def iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def spread(values: Sequence[float]) -> float:
    median = statistics.median(values)
    return iqr(values) / abs(median) if median else 0.0


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """The verdict for one metric on one workload (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    if sign * (change_median - parent_median) < -bound * abs(parent_median):
        return "regression"
    pairs = list(zip(parent, change))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= GAIN_SHARE * len(pairs)
        and abs(change_median - parent_median) > iqr(parent)
    ):
        return "gain"
    every_run_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if max(spread(parent), spread(change)) > bound and not every_run_better:
        return "unresolved"
    return "same"


def _series(runs: List[dict], trace: int) -> Dict[Tuple[str, str], List[Tuple[int, float]]]:
    """(workload, metric) -> [(seed, value)] over the runs with this trace setting."""
    series: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        for workload, result in run["workloads"].items():
            for name, entry in result["metrics"].items():
                if trace and not entry.get("exact"):
                    continue
                series.setdefault((workload, name), []).append((run["seed"], entry["value"]))
    return series


def compare(
    parent_runs: List[dict], change_runs: List[dict], benchmark: dict
) -> Tuple[List[str], bool]:
    """The report lines, and whether any metric regressed."""
    parent, change = _series(parent_runs, 0), _series(change_runs, 0)
    lines = [
        f"{'workload':14s} {'metric':30s} {'parent':>11s} {'change':>11s} {'delta':>8s} "
        f"{'spread':>13s} {'won':>6s}  verdict"
    ]
    regressed = False
    workloads = sorted({workload for workload, _name in parent} & {w for w, _n in change})
    for workload in workloads:
        for spec in benchmark["end_to_end"]:
            key = (workload, spec["name"])
            if key not in parent or key not in change:
                lines.append(f"{workload:14s} {spec['name']:30s} missing from a report")
                continue
            a = [value for _seed, value in parent[key]]
            b = [value for _seed, value in change[key]]
            result = verdict(a, b, spec["better"], spec["bound"])
            regressed |= result == "regression"
            sign = 1.0 if spec["better"] == "higher" else -1.0
            pairs = list(zip(a, b))
            wins = sum(sign * (y - x) > 0 for x, y in pairs)
            a_median, b_median = statistics.median(a), statistics.median(b)
            lines.append(
                f"{workload:14s} {spec['name']:30s} {a_median:11.5g} {b_median:11.5g} "
                f"{(b_median - a_median) / a_median:+8.2%} "
                f"{spread(a):6.1%}/{spread(b):6.1%} {f'{wins}/{len(pairs)}':>6s}  "
                f"{result} (bound {spec['bound']:.0%})"
            )
    lines.extend(_counter_status(_series(parent_runs, 1), _series(change_runs, 1)))
    return lines, regressed


def _counter_status(parent, change) -> List[str]:
    """Exact-match status of the simulated counters, per workload."""
    status: Dict[str, List[str]] = {}
    for key in sorted(set(parent) & set(change)):
        seeds = {seed for seed, _value in parent[key]} & {seed for seed, _value in change[key]}
        if not seeds:
            continue
        values = {(seed, value) for seed, value in parent[key] + change[key] if seed in seeds}
        if len(values) != len(seeds):
            status.setdefault(key[0], []).append(key[1])
        else:
            status.setdefault(key[0], [])
    if not status:
        return ["counters: no traced runs with a common seed"]
    return [
        f"counters {workload}: "
        + (f"DIFFER in {', '.join(differ)}" if differ else "exact match")
        for workload, differ in sorted(status.items())
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    lines, regressed = compare(
        json.loads(args.parent.read_text())["runs"],
        json.loads(args.change.read_text())["runs"],
        benchmark,
    )
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
