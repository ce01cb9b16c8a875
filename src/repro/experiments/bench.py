"""``repro.bench`` — the simulator's performance baseline subsystem.

The ROADMAP's north star is a simulator that runs "as fast as the
hardware allows"; this module is how that claim is measured rather than
asserted.  It times a fixed scenario matrix — the clear/noisy line
topologies, the Roofnet and Wigle meshes, and a random-waypoint mobility
run, each under the paper's D/A/R1/R16 schemes — and reports, per case,

* processed simulation events and wall-clock seconds,
* the events/second throughput of the event engine + PHY dispatch + MAC
  hot path, a diagnostic: ``compare`` gates on simulated seconds per
  wall-clock second instead.

Results are written to ``BENCH_<revision>.json`` so every future PR has a
trajectory to compare against, and ``bench compare`` diffs two such
reports case by case (exit code 4 when any case's simulated seconds per
wall-clock second drop by more than ``--threshold`` percent; events/s is
shown alongside but never gates, since deleting work also deletes
events)::

    python -m repro.experiments bench                 # full matrix
    python -m repro.experiments bench --quick         # CI smoke subset
    python -m repro.experiments bench --families roofnet wigle --schemes R16
    python -m repro.experiments bench compare BENCH_old.json BENCH_new.json --threshold 5
    python -m repro.experiments bench compare BENCH_old.json BENCH_new.json --json

Timing runs always simulate — the sweep result cache is deliberately
bypassed, since a cache hit would time JSON deserialisation instead of
the simulator.  With ``--repeats N`` each case is run N times and the
best (minimum) wall time is kept, the standard way to strip scheduler
noise from a throughput number.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.mobility.spec import MobilitySpec
from repro.phy.params import LOW_RATE_PHY
from repro.topology.roofnet import roofnet_scenario
from repro.topology.standard import fig1_topology, line_topology
from repro.topology.wigle import wigle_topology

#: Scheme labels every family is benchmarked under (the paper's bars).
DEFAULT_SCHEMES: Sequence[str] = ("D", "A", "R1", "R16")

#: Default simulated duration per case.  Long enough that steady-state MAC
#: behaviour dominates: with short runs TCP is still in slow start, frames
#: are small and rare, and timer events drown out the per-transmission
#: dispatch cost the benchmark exists to track (on the heavy topologies
#: the steady-state event rate differs from the warm-up rate by 3-8x).
DEFAULT_DURATION_S = 2.0


@dataclass(frozen=True)
class BenchCase:
    """One timed simulation: a scenario family under one scheme."""

    family: str
    scheme: str
    config: ScenarioConfig

    @property
    def name(self) -> str:
        return f"{self.family}/{self.scheme}"


@dataclass
class BenchCaseResult:
    """Timing outcome of one :class:`BenchCase`."""

    family: str
    scheme: str
    sim_duration_s: float
    events: int
    wall_s: float
    throughput_mbps: float

    @property
    def name(self) -> str:
        return f"{self.family}/{self.scheme}"

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "family": self.family,
            "scheme": self.scheme,
            "sim_duration_s": self.sim_duration_s,
            "events": self.events,
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "throughput_mbps": round(self.throughput_mbps, 4),
        }


@dataclass
class BenchReport:
    """A full bench run: per-case numbers plus environment provenance."""

    revision: str
    duration_s: float
    repeats: int
    cases: List[BenchCaseResult] = field(default_factory=list)
    #: Raw PHY dispatch microbenchmarks (see :func:`dispatch_micro`).
    dispatch: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        total_events = sum(case.events for case in self.cases)
        total_wall = sum(case.wall_s for case in self.cases)
        families: Dict[str, Dict[str, float]] = {}
        for case in self.cases:
            bucket = families.setdefault(case.family, {"events": 0, "wall_s": 0.0})
            bucket["events"] += case.events
            bucket["wall_s"] += case.wall_s
        return {
            "revision": self.revision,
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "duration_s": self.duration_s,
            "repeats": self.repeats,
            "cases": [case.to_dict() for case in self.cases],
            "dispatch": list(self.dispatch),
            "summary": {
                "total_events": total_events,
                "total_wall_s": round(total_wall, 3),
                "events_per_sec_overall": round(total_events / total_wall, 1)
                if total_wall > 0
                else 0.0,
                "events_per_sec_by_family": {
                    family: round(bucket["events"] / bucket["wall_s"], 1)
                    if bucket["wall_s"] > 0
                    else 0.0
                    for family, bucket in sorted(families.items())
                },
            },
        }


# ----------------------------------------------------------------------
# The scenario matrix
# ----------------------------------------------------------------------
def _family_configs(duration_s: float, seed: int) -> Dict[str, ScenarioConfig]:
    """The benchmark families, as base configs (scheme filled in per case).

    The mix is chosen to stress different parts of the hot path: the line
    topologies are relay-pipeline bound, Roofnet is the large-N dispatch
    stressor (38 stations, 6 concurrent TCP flows), Wigle adds hidden
    terminals, the mobility run adds per-tick geometry invalidation
    and live re-estimation on top, and line-cubic swaps the congestion
    controller so the per-ACK cubic-curve arithmetic is timed too.
    """
    from repro.spec import TransportSpec

    return {
        "line-clear": ScenarioConfig(
            topology=line_topology(5),
            bit_error_rate=1e-6,
            duration_s=duration_s,
            seed=seed,
        ),
        "line-cubic": ScenarioConfig(
            topology=line_topology(5),
            transport=TransportSpec("cubic"),
            bit_error_rate=1e-6,
            duration_s=duration_s,
            seed=seed,
        ),
        "line-noisy": ScenarioConfig(
            topology=line_topology(5),
            bit_error_rate=1e-5,
            duration_s=duration_s,
            seed=seed,
        ),
        "roofnet": ScenarioConfig(
            topology=roofnet_scenario(seed=7),
            phy=LOW_RATE_PHY,
            duration_s=duration_s,
            seed=seed,
        ),
        "wigle": ScenarioConfig(
            topology=wigle_topology(include_hidden=True),
            phy=LOW_RATE_PHY,
            duration_s=duration_s,
            seed=seed,
        ),
        "mobility": ScenarioConfig(
            topology=fig1_topology(),
            mobility=MobilitySpec.random_waypoint(10.0),
            duration_s=duration_s,
            seed=seed,
        ),
    }


def default_cases(
    duration_s: float = DEFAULT_DURATION_S,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    families: Optional[Sequence[str]] = None,
    seed: int = 1,
) -> List[BenchCase]:
    """Build the benchmark matrix (every family × every scheme)."""
    from dataclasses import replace

    all_families = _family_configs(duration_s, seed)
    if families is None:
        chosen = list(all_families)
    else:
        unknown = [name for name in families if name not in all_families]
        if unknown:
            raise ValueError(
                f"unknown bench families {unknown}; known: {sorted(all_families)}"
            )
        chosen = list(families)
    return [
        BenchCase(family=family, scheme=scheme,
                  config=replace(all_families[family], scheme_label=scheme))
        for family in chosen
        for scheme in schemes
    ]


#: --quick defaults: one cheap and one heavy family under two schemes, at a
#: duration sized so a CI runner finishes in roughly ten seconds while the
#: large-N dispatch path (Roofnet) is still exercised.
QUICK_DURATION_S = 0.08
QUICK_FAMILIES: Sequence[str] = ("line-clear", "line-cubic", "roofnet")
QUICK_SCHEMES: Sequence[str] = ("D", "R16")


def quick_cases(duration_s: float = QUICK_DURATION_S, seed: int = 1) -> List[BenchCase]:
    """The CI smoke subset (see the QUICK_* constants)."""
    return default_cases(
        duration_s=duration_s, schemes=QUICK_SCHEMES, families=QUICK_FAMILIES, seed=seed
    )


# ----------------------------------------------------------------------
# PHY dispatch microbenchmark
# ----------------------------------------------------------------------
def dispatch_micro(
    topology: str = "roofnet", frames: int = 2000, repeats: int = 1, seed: int = 1
) -> Dict[str, object]:
    """Time the raw transmission hot path, isolated from MAC and transport.

    Builds the named topology's radios on a channel (no protocol stacks),
    then saturates it: each frame is transmitted by the next radio in
    round-robin order and the resulting signal events are drained.  Only
    the ``Radio.transmit`` → ``WirelessChannel.start_transmission`` calls
    are inside the timed region — per-receiver fade draw, threshold
    compare and signal scheduling, the path the neighborhood cull and
    keyed per-link RNG refactor targets — while the drain between
    frames runs off the clock.  Reported as
    transmissions/second (and the drain's events/second alongside).
    """
    from repro.mac.frames import FrameKind, MacFrame, SubPacket
    from repro.mac.timing import DEFAULT_TIMING
    from repro.packet import Packet
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.sim.units import us

    specs = {
        "roofnet": lambda: roofnet_scenario(seed=7),
        "wigle": lambda: wigle_topology(include_hidden=True),
        "line": lambda: line_topology(5),
    }
    if topology not in specs:
        raise ValueError(f"unknown dispatch topology {topology!r}; known: {sorted(specs)}")
    spec = specs[topology]()

    def build():
        from repro.phy.channel import WirelessChannel

        sim = Simulator()
        channel = WirelessChannel(sim, LOW_RATE_PHY, rng=RandomStreams(seed))
        radios = [
            Radio(node_id, position, channel)
            for node_id, position in sorted(spec.positions.items())
        ]
        subpacket = SubPacket(
            packet=Packet(src=0, dst=1, size_bytes=1000, seq=0),
            mac_seq=0,
            bits=DEFAULT_TIMING.subpacket_bits(1000),
        )
        frame = MacFrame(
            kind=FrameKind.DATA, origin=0, final_dst=1, transmitter=0, receiver=1,
            header_bits=DEFAULT_TIMING.header_bits(), subpackets=[subpacket],
        )
        return sim, radios, frame

    best_wall = float("inf")
    best_total = float("inf")
    events = 0
    clock = time.perf_counter
    for _ in range(max(1, int(repeats))):
        sim, radios, frame = build()
        n_radios = len(radios)
        dispatch_wall = 0.0
        run_start = clock()
        for index in range(frames):
            radio = radios[index % n_radios]
            start = clock()
            radio.transmit(frame, us(200))
            dispatch_wall += clock() - start
            sim.run()
        total_wall = clock() - run_start
        if dispatch_wall < best_wall:
            best_wall = dispatch_wall
            best_total = total_wall
            events = sim.processed_events
    return {
        "topology": topology,
        "radios": len(spec.positions),
        "frames": frames,
        "events": events,
        "wall_s": round(best_wall, 6),
        "total_wall_s": round(best_total, 6),
        "transmissions_per_sec": round(frames / best_wall, 1) if best_wall > 0 else 0.0,
        "events_per_sec": round(events / best_total, 1) if best_total > 0 else 0.0,
    }


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_case(case: BenchCase, repeats: int = 1) -> BenchCaseResult:
    """Time one case; with ``repeats > 1`` keep the best wall time."""
    best_wall = float("inf")
    events = 0
    throughput = 0.0
    for _ in range(max(1, int(repeats))):
        start = time.perf_counter()
        result = run_scenario(case.config)
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_wall = wall
            events = result.events_processed
            throughput = result.total_throughput_mbps
    return BenchCaseResult(
        family=case.family,
        scheme=case.scheme,
        sim_duration_s=case.config.duration_s,
        events=events,
        wall_s=best_wall,
        throughput_mbps=throughput,
    )


def run_bench(
    cases: Iterable[BenchCase],
    repeats: int = 1,
    revision: Optional[str] = None,
    progress=None,
    dispatch_topologies: Sequence[str] = (),
) -> BenchReport:
    """Run every case serially (parallel workers would contend for cores)."""
    cases = list(cases)
    duration = cases[0].config.duration_s if cases else 0.0
    report = BenchReport(
        revision=revision or git_revision(), duration_s=duration, repeats=repeats
    )
    for case in cases:
        outcome = run_case(case, repeats=repeats)
        report.cases.append(outcome)
        if progress is not None:
            progress(outcome)
    for topology in dispatch_topologies:
        report.dispatch.append(dispatch_micro(topology, repeats=repeats))
    return report


def git_revision() -> str:
    """Short git revision of the working tree, or ``"local"`` off-repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "local"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "local"


def write_report(report: BenchReport, path: Optional[str] = None) -> Path:
    """Serialise ``report`` to ``path`` (default ``BENCH_<revision>.json``)."""
    target = Path(path) if path else Path(f"BENCH_{report.revision}.json")
    target.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return target


def format_report(report: BenchReport) -> str:
    """Aligned text rendering of a report, matching the other experiment tables."""
    header = f"{'case':<20} {'events':>9} {'wall s':>8} {'events/s':>11} {'Mb/s':>8}"
    lines = [header, "-" * len(header)]
    for case in report.cases:
        lines.append(
            f"{case.name:<20} {case.events:>9} {case.wall_s:>8.3f} "
            f"{case.events_per_sec:>11,.0f} {case.throughput_mbps:>8.2f}"
        )
    data = report.to_dict()["summary"]
    lines.append("-" * len(header))
    lines.append(
        f"{'overall':<20} {data['total_events']:>9} {data['total_wall_s']:>8.3f} "
        f"{data['events_per_sec_overall']:>11,.0f}"
    )
    for micro in report.dispatch:
        lines.append(
            f"{'dispatch/' + str(micro['topology']):<20} "
            f"{micro['frames']} frames {micro['wall_s']:>8.3f} s "
            f"{micro['transmissions_per_sec']:>11,.0f} tx/s"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Baseline comparison (``bench compare A.json B.json``)
# ----------------------------------------------------------------------
def load_report(path: str) -> Dict[str, object]:
    """Read a ``BENCH_*.json`` report written by :func:`write_report`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _case_name(case: Dict[str, object]) -> str:
    """Best-effort case name: ``name`` field, else ``family/scheme``.

    Older report writers stored only ``family``/``scheme``; renamed or
    hand-edited reports may carry either shape.  Compare must degrade to
    a symmetric-difference report rather than crash on the shape change.
    """
    name = case.get("name")
    if name:
        return str(name)
    return f"{case.get('family', '?')}/{case.get('scheme', '?')}"


def _sim_speed(case: Dict[str, object]) -> float:
    """Simulated seconds per wall-clock second of one report case."""
    wall = float(case.get("wall_s", 0.0))
    return float(case.get("sim_duration_s", 0.0)) / wall if wall > 0 else 0.0


def compare_reports_data(
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold_pct: float = 5.0,
) -> Dict[str, object]:
    """Structured diff of two bench reports (the ``--json`` payload).

    Cases present in both reports are compared; cases present in only one
    (added, removed or renamed between revisions) are listed under
    ``only_in_baseline`` / ``only_in_current`` and never gate.  Each
    compared row carries a ``status``:

    * ``"regression"`` — simulated seconds per wall second dropped by more
      than ``threshold_pct`` (events/s is reported but never gates),
    * ``"durations differ"`` — timed at different simulated durations, so
      the numbers are only loosely comparable and the row is not gated,
    * ``"ok"`` — everything else.
    """
    base_cases = {_case_name(case): case for case in baseline.get("cases", [])}
    cur_cases = {_case_name(case): case for case in current.get("cases", [])}
    rows: List[Dict[str, object]] = []
    regressions: List[str] = []
    for name in sorted(set(base_cases) & set(cur_cases)):
        base = base_cases[name]
        cur = cur_cases[name]
        base_speed = _sim_speed(base)
        cur_speed = _sim_speed(cur)
        delta_pct = 100.0 * (cur_speed - base_speed) / base_speed if base_speed > 0 else 0.0
        if base.get("sim_duration_s") != cur.get("sim_duration_s"):
            status = "durations differ"
        elif delta_pct < -threshold_pct:
            status = "regression"
            regressions.append(name)
        else:
            status = "ok"
        rows.append(
            {
                "name": name,
                "baseline_sim_s_per_wall_s": round(base_speed, 4),
                "current_sim_s_per_wall_s": round(cur_speed, 4),
                "delta_pct": round(delta_pct, 2),
                "baseline_events_per_sec": float(base.get("events_per_sec", 0.0)),
                "current_events_per_sec": float(cur.get("events_per_sec", 0.0)),
                "baseline_sim_duration_s": base.get("sim_duration_s"),
                "current_sim_duration_s": cur.get("sim_duration_s"),
                "status": status,
            }
        )
    base_micro = {str(m.get("topology", "?")): m for m in baseline.get("dispatch", [])}
    cur_micro = {str(m.get("topology", "?")): m for m in current.get("dispatch", [])}
    dispatch_rows: List[Dict[str, object]] = []
    for topology in sorted(set(base_micro) & set(cur_micro)):
        base_tps = float(base_micro[topology].get("transmissions_per_sec", 0.0))
        cur_tps = float(cur_micro[topology].get("transmissions_per_sec", 0.0))
        delta_pct = 100.0 * (cur_tps - base_tps) / base_tps if base_tps > 0 else 0.0
        status = "ok"
        if delta_pct < -threshold_pct:
            status = "regression"
            regressions.append(f"dispatch/{topology}")
        dispatch_rows.append(
            {
                "name": f"dispatch/{topology}",
                "baseline_transmissions_per_sec": base_tps,
                "current_transmissions_per_sec": cur_tps,
                "delta_pct": round(delta_pct, 2),
                "status": status,
            }
        )
    return {
        "baseline_revision": baseline.get("revision", "?"),
        "current_revision": current.get("revision", "?"),
        "threshold_pct": threshold_pct,
        "cases": rows,
        "dispatch": dispatch_rows,
        "only_in_baseline": sorted(set(base_cases) - set(cur_cases)),
        "only_in_current": sorted(set(cur_cases) - set(base_cases)),
        "regressions": regressions,
    }


def compare_reports(
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold_pct: float = 5.0,
) -> Tuple[str, List[str]]:
    """Diff two bench reports case by case.

    Returns ``(table_text, regressions)`` where ``regressions`` lists the
    case names whose simulated seconds per wall second dropped by more
    than ``threshold_pct`` relative to the baseline.  Cases present in only
    one report (renamed or added between revisions) are reported as a
    symmetric difference but never counted as regressions; cases timed at
    different simulated durations are flagged (warm-up effects make their
    speeds only loosely comparable) and excluded from regression
    accounting too.  The events/s columns are diagnostic only.
    """
    data = compare_reports_data(baseline, current, threshold_pct=threshold_pct)
    header = (
        f"{'case':<20} {'base sim-s/s':>12} {'cur sim-s/s':>12} {'delta':>8} "
        f"{'base ev/s':>12} {'cur ev/s':>12}   (threshold -{threshold_pct:g}%)"
    )
    lines = [
        f"baseline {data['baseline_revision']}  vs  current {data['current_revision']}",
        header,
        "-" * len(header),
    ]
    for row in data["cases"]:
        note = ""
        if row["status"] == "durations differ":
            note = (
                f"   [durations differ: {row['baseline_sim_duration_s']} vs "
                f"{row['current_sim_duration_s']} s — not gated]"
            )
        elif row["status"] == "regression":
            note = "   REGRESSION"
        lines.append(
            f"{row['name']:<20} {row['baseline_sim_s_per_wall_s']:>12.3f} "
            f"{row['current_sim_s_per_wall_s']:>12.3f} {row['delta_pct']:>+7.1f}% "
            f"{row['baseline_events_per_sec']:>12,.0f} {row['current_events_per_sec']:>12,.0f}{note}"
        )
    for name in data["only_in_baseline"]:
        lines.append(f"{name:<20} {'—':>12} {'—':>12} {'—':>8}   only in baseline")
    for name in data["only_in_current"]:
        lines.append(f"{name:<20} {'—':>12} {'—':>12} {'—':>8}   only in current")
    for row in data["dispatch"]:
        note = "   REGRESSION" if row["status"] == "regression" else ""
        lines.append(
            f"{row['name']:<20} {row['baseline_transmissions_per_sec']:>12,.0f} "
            f"{row['current_transmissions_per_sec']:>12,.0f} {row['delta_pct']:>+7.1f}%"
            f"   (tx/s){note}"
        )
    lines.append("-" * len(header))
    if data["only_in_baseline"] or data["only_in_current"]:
        lines.append(
            f"case sets differ — compared {len(data['cases'])} common case(s); "
            f"only in baseline: {', '.join(data['only_in_baseline']) or '(none)'}; "
            f"only in current: {', '.join(data['only_in_current']) or '(none)'}"
        )
    regressions = list(data["regressions"])
    if regressions:
        lines.append(
            f"{len(regressions)} regression(s) beyond {threshold_pct:g}%: "
            + ", ".join(regressions)
        )
    else:
        lines.append(f"no regressions beyond {threshold_pct:g}%")
    return "\n".join(lines), regressions


def run_compare_cli(args) -> int:
    """Execute ``bench compare <baseline> <current>``; 4 on regression.

    File and format problems exit 2 with a message (distinct from the
    regression code, so callers can script on the exit status).
    """
    try:
        baseline = load_report(args.positional[1])
        current = load_report(args.positional[2])
        if getattr(args, "json", False):
            data = compare_reports_data(baseline, current, threshold_pct=args.threshold)
            regressions = list(data["regressions"])
            text = json.dumps(data, indent=2)
        else:
            text, regressions = compare_reports(
                baseline, current, threshold_pct=args.threshold
            )
    except OSError as exc:
        print(f"bench compare: cannot read report: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"bench compare: malformed report: {exc!r}", file=sys.stderr)
        return 2
    print(text)
    return 4 if regressions else 0


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - thin CLI shim
    """Standalone entry point (``python -m repro.experiments bench`` wraps this)."""
    import argparse

    parser = argparse.ArgumentParser(prog="python -m repro.experiments bench")
    add_bench_arguments(parser)
    return run_bench_cli(parser.parse_args(argv))


def add_bench_arguments(parser) -> None:
    """Attach the bench flags to an (sub)parser; shared with the CLI."""
    parser.add_argument(
        "positional", nargs="*", metavar="compare A.json B.json",
        help="subcommand: 'compare BASELINE CURRENT' diffs two bench reports "
             "(per-case sim-s/s delta; exit 4 on regression); empty = run the bench",
    )
    parser.add_argument(
        "--threshold", type=float, default=5.0, metavar="PCT",
        help="drop in simulated seconds per wall second (in %%) counted as a "
             "regression by 'compare' (default 5)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="'compare' only: emit the structured diff as JSON (for CI tooling); "
             "exit codes are unchanged",
    )
    parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help=f"simulated seconds per case (default {DEFAULT_DURATION_S})",
    )
    parser.add_argument(
        "--repeats", type=int, default=1, metavar="N",
        help="time each case N times and keep the best wall time (default 1)",
    )
    parser.add_argument(
        "--schemes", nargs="+", default=None, metavar="LABEL",
        help=f"scheme labels to bench (default {' '.join(DEFAULT_SCHEMES)})",
    )
    parser.add_argument(
        "--families", nargs="+", default=None, metavar="FAMILY",
        help="scenario families (default: all; see module docstring)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="scenario seed (default 1)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke subset (~10 s): line-clear + roofnet under D and R16",
    )
    parser.add_argument(
        "--no-dispatch", action="store_true",
        help="skip the raw PHY dispatch microbenchmarks (roofnet + wigle)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="result file (default BENCH_<git rev>.json in the working directory)",
    )


def run_bench_cli(args) -> int:
    """Execute a parsed bench invocation; returns a process exit code."""
    positional = list(getattr(args, "positional", []) or [])
    if positional:
        if positional[0] != "compare" or len(positional) != 3:
            print(
                "usage: bench [flags]  |  bench compare BASELINE.json CURRENT.json "
                "[--threshold PCT]",
                file=sys.stderr,
            )
            return 2
        return run_compare_cli(args)
    # --quick only swaps in smaller *defaults*; explicit --duration,
    # --families and --schemes always win so the flags compose rather than
    # silently overriding each other.
    if args.quick:
        duration = args.duration if args.duration is not None else QUICK_DURATION_S
        families = tuple(args.families) if args.families else QUICK_FAMILIES
        schemes = tuple(args.schemes) if args.schemes else QUICK_SCHEMES
    else:
        duration = args.duration if args.duration is not None else DEFAULT_DURATION_S
        families = tuple(args.families) if args.families else None
        schemes = tuple(args.schemes) if args.schemes else DEFAULT_SCHEMES
    cases = default_cases(
        duration_s=duration, schemes=schemes, families=families, seed=args.seed
    )

    def progress(outcome: BenchCaseResult) -> None:
        print(
            f"  {outcome.name:<20} {outcome.events:>9} events  "
            f"{outcome.wall_s:>7.3f} s  {outcome.events_per_sec:>11,.0f} ev/s",
            file=sys.stderr,
        )

    dispatch_topologies: Sequence[str] = ()
    if not args.no_dispatch:
        dispatch_topologies = ("roofnet",) if args.quick else ("roofnet", "wigle")
    print(f"benching {len(cases)} cases ({duration:g} simulated s each)...", file=sys.stderr)
    report = run_bench(
        cases, repeats=args.repeats, progress=progress,
        dispatch_topologies=dispatch_topologies,
    )
    print(format_report(report))
    target = write_report(report, args.output)
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
