"""Which layer did a change move?  Two traced benchmark runs, side by side.

    python .github/scripts/layer_shares.py parent.json change.json

Both files are ``bench/run.py --out`` reports holding a traced run
(``--trace 1``).  For each workload, and each scheme of it (``D``, ``R16``,
and ``harness`` for the sweep, cache, codec and service layers), this
prints every ``<layer>.self_share`` and ``<layer>.events_per_sim_s`` of the
parent's traced run beside the change's, with the change's relative
difference, and then ``trace_overhead``.  Reports with several traced runs
are read at the largest seed both traced, or each at its own largest traced
seed when they share none; a seed traced twice is read at its last run.  It
gates nothing: the exit code is 0 whatever moved, even when a report is
missing or holds no traced run.
"""

import json
import sys
from pathlib import Path

#: The per-layer metrics shown, before ``trace_overhead``.
KINDS = ("self_share", "events_per_sim_s")


def traced_runs(path):
    """``{seed: run}`` over the report's traced runs (the last run of each seed)."""
    if not Path(path).exists():
        return {}
    runs = json.loads(Path(path).read_text())["runs"]
    return {run["seed"]: run for run in runs if run["trace"] == 1}


def layer_metrics(run):
    """``{(workload, scheme): {shown name: value}}`` for one traced run."""
    table = {}
    for workload, result in run["workloads"].items():
        for name, entry in result["metrics"].items():
            parts = name.split(".")
            if parts[0] == "trace_overhead" and len(parts) == 2:
                scheme, shown = parts[1], "trace_overhead"
            elif len(parts) in (2, 3) and parts[1] in KINDS:
                scheme, shown = (parts[2] if len(parts) == 3 else "harness"), ".".join(parts[:2])
            else:
                continue
            table.setdefault((workload, scheme), {})[shown] = entry["value"]
    return table


def _order(shown):
    if shown == "trace_overhead":
        return (len(KINDS), shown)
    return (KINDS.index(shown.split(".")[1]), shown)


def _value(value):
    return "-" if value is None else f"{value:.5g}"


def side_by_side(parent_run, change_run):
    """The printed lines for one traced run of each side."""
    parent, change = layer_metrics(parent_run), layer_metrics(change_run)
    lines = []
    for workload, scheme in sorted(set(parent) | set(change)):
        a, b = parent.get((workload, scheme), {}), change.get((workload, scheme), {})
        lines.append(f"{workload} {scheme}")
        lines.append(f"  {'metric':28s} {'parent':>12s} {'change':>12s} {'delta':>9s}")
        for shown in sorted(set(a) | set(b), key=_order):
            x, y = a.get(shown), b.get(shown)
            delta = f"{(y - x) / x:+.1%}" if x and y is not None else ""
            lines.append(f"  {shown:28s} {_value(x):>12s} {_value(y):>12s} {delta:>9s}")
    return lines


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[1])
        return 2
    parent, change = traced_runs(argv[1]), traced_runs(argv[2])
    if not parent or not change:
        print("layer shares: a report is missing or holds no traced run")
        return 0
    common = set(parent) & set(change)
    seeds = (max(common), max(common)) if common else (max(parent), max(change))
    print(f"layer shares: parent seed {seeds[0]}, change seed {seeds[1]}")
    print("\n".join(side_by_side(parent[seeds[0]], change[seeds[1]])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
