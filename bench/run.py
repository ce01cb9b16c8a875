"""Benchmark the simulator end to end, or layer by layer with ``--trace 1``.

    python bench/run.py                               # all four workloads
    python bench/run.py --workload line-tcp --seed 3
    python bench/run.py --workload roofnet-tcp --trace 1
    python bench/run.py --workload mobile-voip --seconds 10 --out /path/report.json

Workloads run one after another, each in fresh interpreters: one that sets
up and measures, bracketed by four that only set up, so ``setup_s`` is a
median of five and ``peak_rss_mb`` belongs to one workload.  Every metric
is printed with its unit and sample count, the run is appended to the JSON
report (``bench/reports/report.json`` unless ``--out`` names another) with
every sample behind it, and the last stdout line is one JSON object::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

The exit code is 0 when every output check passed, 1 when one failed, and
2 when a workload could not run at all, or not within ``WORKLOAD_DEADLINE_S``
(then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("line-tcp", "roofnet-tcp", "mobile-voip", "sweep-service")
SETUP_SAMPLES = 5

#: Wall time one workload's interpreters may take together.
WORKLOAD_DEADLINE_S = 170.0

#: The run length the workloads' plans are sized for (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 10.0


class ChildFailed(RuntimeError):
    """A workload's interpreter exited without a result."""


def _child(deadline: float, *args: object) -> dict:
    command = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, check=False,
            timeout=max(0.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(command[1:])} timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(command[1:])} exited with {done.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns its correctness tally, metrics and samples."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    # Set-up probes bracket the measuring child, so the samples span the run.
    probes = 0 if trace else (SETUP_SAMPLES - 1) // 2
    setup = [_child(deadline, "setup", name, seed, seconds)["setup_s"] for _ in range(probes)]
    out = _child(deadline, "run", name, seed, seconds, trace)
    metrics, samples = out["metrics"], out["samples"]
    if not trace:
        setup.append(out["setup_s"])
        setup += [_child(deadline, "setup", name, seed, seconds)["setup_s"] for _ in range(probes)]
        for kind in ("scaled", "raw"):
            samples[kind]["setup_s"] = [probe[kind] for probe in setup]
        metrics["setup_s"] = {
            "value": statistics.median(samples["scaled"]["setup_s"]), "unit": "s",
            "samples": len(setup),
        }
        metrics["peak_rss_mb"] = {"value": out["peak_rss_mb"], "unit": "MB", "samples": 1}
    return {
        "correct": not out["failures"],
        "attempted": out["attempted"],
        "failed": len(out["failures"]),
        "failures": out["failures"],
        "metrics": dict(sorted(metrics.items())),
        "samples": samples,
        "slowdown": out["slowdown"],
    }


def append_report(path: Path, run: dict) -> None:
    """Add ``run`` to the report at ``path`` (created if missing)."""
    report = json.loads(path.read_text()) if path.exists() else {"runs": []}
    report["runs"].append(run)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(report, indent=1, sort_keys=True))
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="run length each workload's work is sized for",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "reports" / "report.json")
    args = parser.parse_args(argv)

    results = {}
    for name in args.workload:
        try:
            results[name] = result = run_workload(name, args.seed, args.seconds, args.trace)
        except ChildFailed as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 2
        for metric, entry in result["metrics"].items():
            print(f"{name:14s} {metric:42s} {entry['value']:14.6g} {entry['unit']:13s} "
                  f"n={entry['samples']}")
        print(f"{name:14s} {'(machine slowdown)':42s} {result['slowdown']:14.6g} {'x':13s}")
        for failure in result["failures"]:
            print(f"{name:14s} FAILED {failure}")

    append_report(args.out, {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "finished_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workloads": results,
    })
    single = len(results) == 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (metric if single else f"{name}/{metric}"): {
                "value": entry["value"], "unit": entry["unit"],
            }
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
