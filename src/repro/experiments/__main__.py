"""Command-line entry point for the experiment sweeps.

List everything the harness can reproduce::

    python -m repro.experiments list

Run any figure/table by name, fanned out over worker processes and served
incrementally from the on-disk result cache::

    python -m repro.experiments run fig3 --jobs 4
    python -m repro.experiments run fig6a fig6b --seeds 3 --duration 0.2
    python -m repro.experiments run table3 --no-cache
    python -m repro.experiments run mobility-tcp mobility-voip

Run an **arbitrary scenario** — any registered topology × MAC × routing ×
traffic × mobility combination — straight from a declarative spec, with
no experiment module at all::

    python -m repro.experiments run --set topology=roofnet mac=ripple routing=etx
    python -m repro.experiments run --set topology=fig1 traffic=voip mobility=random_waypoint \
        mobility.speed=5 duration=0.5 --seeds 3
    python -m repro.experiments run --spec scenario.json        # scenario document

``--set`` keys are ``field=value`` with dotted component parameters
(``topology.n_hops=6``, ``mac.max_aggregation=8``,
``phy.max_deviation_sigmas=4``); ``--spec`` takes a JSON file holding one
:class:`repro.spec.ScenarioConfig` document (or a list of them), and
``--set`` assignments override the file.  Spec runs flow through the same
sweep runner and result cache as the named experiments; add ``--json``
for a machine-readable ``[{digest, config, result}, ...]`` document on
stdout (scripts and the service smoke test consume this instead of
scraping the tables — the cache summary moves to stderr).

Re-render a completed experiment's tables *without* simulating anything
(errors out if the sweep has not been run yet)::

    python -m repro.experiments report fig3
    python -m repro.experiments report mobility-tcp --seeds 3

Results are rendered as the aligned text tables of
:mod:`repro.experiments.report`; a cache summary (hits/misses) is printed
at the end.  The cache lives under ``.repro-cache`` (override with
``--cache-dir`` or the ``REPRO_CACHE_DIR`` environment variable) and is
keyed by a content hash of each scenario config, so a second invocation of
the same sweep is served almost entirely from disk.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.experiments.parallel import (
    CacheMissError,
    CacheOnlySweepRunner,
    ResultCache,
    SweepRunner,
)
from repro.experiments.report import format_table, render_panel
from repro.serialization import SpecError


@dataclass(frozen=True)
class Experiment:
    """One runnable figure/table: a renderer plus its bookkeeping."""

    name: str
    description: str
    #: (runner, duration_s or None for the experiment's default, seed) -> text
    render: Callable[[SweepRunner, Optional[float], int], str]
    #: Heading the 'list' command files this experiment under.
    group: str = "paper figures"
    #: Never simulates: serves purely from the result cache, even under 'run'.
    cache_only: bool = False
    #: Sweep axes shown in 'list' (empty = a fixed scenario set).
    axes: str = ""


def _duration_kwargs(duration_s: Optional[float]) -> dict:
    return {} if duration_s is None else {"duration_s": duration_s}


def _render_motivation(runner, duration_s, seed):
    from repro.experiments.motivation import run_motivation

    results = run_motivation(seed=seed, runner=runner, **_duration_kwargs(duration_s))
    rows = {
        name: [res.throughput_mbps, 100.0 * res.reordering_ratio]
        for name, res in results.items()
    }
    return format_table("Section II motivation", ["Mb/s", "reorder %"], rows)


def _render_longlived(bit_error_rate):
    def render(runner, duration_s, seed):
        from repro.experiments.longlived import run_longlived_panel

        blocks = []
        for route_set in ("ROUTE0", "ROUTE1", "ROUTE2"):
            panel = run_longlived_panel(
                route_set,
                bit_error_rate,
                seed=seed,
                runner=runner,
                **_duration_kwargs(duration_s),
            )
            blocks.append(
                render_panel(
                    f"{route_set} (BER {bit_error_rate:g}) — total Mb/s vs active flows",
                    panel.throughput_mbps,
                    [1, 2, 3],
                )
            )
        return "\n\n".join(blocks)

    return render


def _render_regular_collisions(runner, duration_s, seed):
    from repro.experiments.collisions import run_regular_collisions

    result = run_regular_collisions(seed=seed, runner=runner, **_duration_kwargs(duration_s))
    columns = sorted(next(iter(result.throughput_mbps.values())))
    return render_panel("Fig. 6(a) — total Mb/s vs parallel flows", result.throughput_mbps, columns)


def _render_hidden_collisions(runner, duration_s, seed):
    from repro.experiments.collisions import run_hidden_collisions

    result = run_hidden_collisions(seed=seed, runner=runner, **_duration_kwargs(duration_s))
    columns = sorted(next(iter(result.throughput_mbps.values())))
    return render_panel("Fig. 6(b) — flow-1 Mb/s vs hidden flows", result.throughput_mbps, columns)


def _render_hops(cross_traffic):
    def render(runner, duration_s, seed):
        from repro.experiments.hops import run_hops

        result = run_hops(
            cross_traffic=cross_traffic,
            seed=seed,
            runner=runner,
            **_duration_kwargs(duration_s),
        )
        columns = sorted(next(iter(result.throughput_mbps.values())))
        suffix = "with cross traffic" if cross_traffic else "no cross traffic"
        return render_panel(
            f"Fig. 7 — flow-1 Mb/s vs hops ({suffix})", result.throughput_mbps, columns
        )

    return render


def _render_web(runner, duration_s, seed):
    from repro.experiments.web import run_web_traffic

    result = run_web_traffic(seed=seed, runner=runner, **_duration_kwargs(duration_s))
    rows = {
        label: [result.total_mbps[label], float(result.transfers_completed[label])]
        for label in result.total_mbps
    }
    return format_table("Fig. 8 — web traffic", ["Mb/s", "segments"], rows)


def _render_table3(runner, duration_s, seed):
    from repro.experiments.voip import run_table3

    results = run_table3(seed=seed, runner=runner, **_duration_kwargs(duration_s))
    blocks = []
    for ber, result in sorted(results.items()):
        columns = sorted(next(iter(result.mos.values())))
        blocks.append(
            render_panel(f"Table III — mean MoS (BER {ber:g})", result.mos, columns)
        )
    return "\n\n".join(blocks)


def _render_wigle(runner, duration_s, seed):
    from repro.experiments.wigle import run_wigle

    result = run_wigle(seed=seed, runner=runner, **_duration_kwargs(duration_s))
    columns = list(next(iter(result.throughput_mbps.values())))
    return render_panel("Fig. 10 — Wigle per-pair Mb/s", result.throughput_mbps, columns)


def _render_roofnet(runner, duration_s, seed):
    from repro.experiments.roofnet import run_roofnet

    result = run_roofnet(seed=seed, runner=runner, **_duration_kwargs(duration_s))
    columns = list(next(iter(result.throughput_mbps.values())))
    return render_panel("Fig. 12 — Roofnet per-pair Mb/s", result.throughput_mbps, columns)


def _render_aggregation(runner, duration_s, seed):
    from repro.experiments.ablation import run_aggregation_ablation

    result = run_aggregation_ablation(seed=seed, runner=runner, **_duration_kwargs(duration_s))
    rows = {"R": [result.throughput_mbps[level] for level in sorted(result.throughput_mbps)]}
    return format_table(
        "Ablation — Mb/s vs max aggregation",
        [str(level) for level in sorted(result.throughput_mbps)],
        rows,
    )


def _render_mobility_tcp(runner, duration_s, seed):
    from repro.experiments.mobility import run_mobility_tcp

    result = run_mobility_tcp(seed=seed, runner=runner, **_duration_kwargs(duration_s))
    columns = sorted(next(iter(result.throughput_mbps.values())))
    return render_panel(
        "Mobility — TCP Mb/s vs node speed (m/s, random waypoint)",
        result.throughput_mbps,
        columns,
    )


def _render_mobility_voip(runner, duration_s, seed):
    from repro.experiments.mobility import run_mobility_voip

    result = run_mobility_voip(seed=seed, runner=runner, **_duration_kwargs(duration_s))
    columns = sorted(next(iter(result.mos.values())))
    return render_panel(
        "Mobility — mean VoIP MoS vs node speed (m/s, random waypoint)",
        result.mos,
        columns,
    )


def _render_fading(runner, duration_s, seed):
    from repro.experiments.fading import FADING_MODELS, run_fading

    result = run_fading(seed=seed, runner=runner, **_duration_kwargs(duration_s))
    return render_panel(
        "Fading — flow-1 Mb/s per propagation model (4-hop line)",
        result.throughput_mbps,
        list(FADING_MODELS),
    )


def _render_congestion(runner, duration_s, seed):
    from repro.experiments.congestion import run_congestion

    blocks = []
    for topology in ("line", "roofnet"):
        result = run_congestion(
            topology=topology, seed=seed, runner=runner, **_duration_kwargs(duration_s)
        )
        throughput = render_panel(
            f"Congestion — flow-1 Mb/s per transport ({topology})",
            result.throughput_mbps,
            list(next(iter(result.throughput_mbps.values()))),
        )
        rexmit = render_panel(
            f"Congestion — flow-1 retransmitted segments ({topology})",
            {t: {k: float(v) for k, v in row.items()} for t, row in result.retransmissions.items()},
            list(next(iter(result.retransmissions.values()))),
        )
        blocks.extend([throughput, rexmit])
    return "\n\n".join(blocks)


def _render_corpus(runner, duration_s, seed):
    from repro.experiments.corpus import CORPUS_DURATION_S, run_corpus

    result = run_corpus(
        seed=seed,
        duration_s=CORPUS_DURATION_S if duration_s is None else duration_s,
        runner=runner,
    )
    rows = {
        label: [result.throughput_mbps[label], float(result.events[label])]
        for label in result.labels
    }
    return format_table(
        f"Corpus — sampled registry cross-product (sample seed {seed})",
        ["Mb/s", "events"],
        rows,
    )


def _render_corpus_report(runner, duration_s, seed):
    # Cache-only by design: re-render the corpus sweep without ever
    # simulating, whichever runner the command line built.
    cache = getattr(runner, "cache", None)
    if cache is None:
        raise CacheMissError(
            "corpus-report never simulates and needs a result cache "
            "(drop --no-cache)"
        )
    return _render_corpus(CacheOnlySweepRunner(cache), duration_s, seed)


def _render_forwarders(runner, duration_s, seed):
    from repro.experiments.ablation import run_forwarder_ablation

    result = run_forwarder_ablation(seed=seed, runner=runner, **_duration_kwargs(duration_s))
    rows = {"R16": [result.throughput_mbps[count] for count in sorted(result.throughput_mbps)]}
    return format_table(
        "Ablation — Mb/s vs max forwarders",
        [str(count) for count in sorted(result.throughput_mbps)],
        rows,
    )


EXPERIMENTS: Dict[str, Experiment] = {
    exp.name: exp
    for exp in [
        Experiment("motivation", "Section II: SPR vs preExOR vs MCExOR", _render_motivation),
        Experiment("fig3", "Long-lived TCP, BER 1e-6, ROUTE0/1/2", _render_longlived(1e-6)),
        Experiment("fig4", "Long-lived TCP, BER 1e-5, ROUTE0/1/2", _render_longlived(1e-5)),
        Experiment("fig6a", "Regular collisions (parallel flows)", _render_regular_collisions),
        Experiment("fig6b", "Hidden collisions (hidden UDP load)", _render_hidden_collisions),
        Experiment("fig7a", "2-7 hop line, no cross traffic", _render_hops(False)),
        Experiment("fig7b", "2-7 hop line, with cross traffic", _render_hops(True)),
        Experiment("fig8", "Short web transfers", _render_web),
        Experiment("table3", "VoIP MoS, both BER points", _render_table3),
        Experiment("fig10", "Wigle topology per-pair throughput", _render_wigle),
        Experiment("fig12", "Roofnet topology per-pair throughput", _render_roofnet),
        Experiment("ablation-aggregation", "RIPPLE max-aggregation sweep", _render_aggregation,
                   group="ablations"),
        Experiment("ablation-forwarders", "RIPPLE forwarder-cap sweep", _render_forwarders,
                   group="ablations"),
        Experiment("mobility-tcp", "TCP throughput vs node speed (random waypoint)", _render_mobility_tcp,
                   group="mobility"),
        Experiment("mobility-voip", "VoIP MoS vs node speed (random waypoint)", _render_mobility_voip,
                   group="mobility"),
        Experiment("fading", "D/R16 line throughput per propagation model", _render_fading,
                   group="components"),
        Experiment("congestion", "Transport x MAC grid (reno/tahoe/newreno/cubic)", _render_congestion,
                   group="components"),
        Experiment("corpus", "Seeded sample of the registry cross-product", _render_corpus,
                   group="corpus",
                   axes="topology x mac x routing x traffic x transport x phy x mobility"),
        Experiment("corpus-report", "Corpus sweep re-rendered from the cache", _render_corpus_report,
                   group="corpus", cache_only=True,
                   axes="topology x mac x routing x traffic x transport x phy x mobility"),
    ]
}


# ----------------------------------------------------------------------
# Declarative spec runs (--spec / --set)
# ----------------------------------------------------------------------

#: ``--set`` shorthands for scenario document field names.
_SET_FIELD_ALIASES = {
    "duration": "duration_s",
    "warmup": "warmup_s",
    "ber": "bit_error_rate",
    "scheme": "scheme_label",
    "flows": "active_flows",
}

#: ``--set`` keys addressing a component by name (dotted keys = params).
_SET_COMPONENTS = ("topology", "mac", "routing", "traffic", "transport", "mobility", "phy")


def _parse_set_value(text: str):
    """JSON-decode a ``--set`` value where possible, else keep the string."""
    try:
        return json.loads(text)
    except (ValueError, TypeError):
        return text


def _normalize_topology_entry(entry) -> Dict[str, object]:
    """A scenario document's topology entry as a mutable ref dict.

    Inline topologies (positions spelled out) have no builder parameters,
    so dotted keys are rejected.
    """
    if isinstance(entry, dict) and "positions" in entry:
        raise SpecError(
            "--set topology.<param> cannot parameterise an inline topology "
            "(the spec file spells out positions); name a registered builder "
            "with topology=<name> instead"
        )
    return dict(entry or {})


def _apply_sets(data: Dict[str, object], items: List[str]) -> Dict[str, object]:
    """Fold ``--set key=value`` assignments into a scenario document.

    Component keys (``mac=ripple``) set the component's name keeping
    already-set params; dotted keys (``mac.max_aggregation=8``) merge into
    its params.  Name assignments are applied before dotted ones, so the
    two are order-independent (``phy.max_deviation_sigmas=4 phy=low_rate``
    overrides the profile either way round).  Everything else is a
    document field (with the shorthands of :data:`_SET_FIELD_ALIASES`).
    """
    data = dict(data)
    assignments = []
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise SpecError(f"--set expects key=value, got {item!r}")
        assignments.append((key, _parse_set_value(raw)))
    # Pass 1: component names and plain fields; pass 2: dotted params.
    for key, value in (pair for pair in assignments if "." not in pair[0]):
        if key == "phy":
            data["phy"] = value
        elif key == "mobility":
            entry = dict(data.get("mobility") or {})
            entry["model"] = value
            data["mobility"] = entry
        elif key == "topology":
            entry = data.get("topology")
            if not isinstance(entry, dict) or "positions" in entry:
                entry = {}  # replace an inline topology wholesale
            else:
                entry = dict(entry)
            entry["name"] = value
            data["topology"] = entry
        elif key in _SET_COMPONENTS:
            entry = dict(data.get(key) or {})
            entry["name"] = value
            data[key] = entry
        else:
            field_name = _SET_FIELD_ALIASES.get(key, key)
            if field_name == "active_flows" and isinstance(value, str):
                value = [int(part) for part in value.split(",") if part]
            elif field_name == "active_flows" and isinstance(value, int):
                value = [value]
            data[field_name] = value
    for key, value in (pair for pair in assignments if "." in pair[0]):
        component, _, param = key.partition(".")
        if component not in _SET_COMPONENTS:
            raise SpecError(
                f"--set {key!r}: unknown component {component!r}; "
                f"dotted keys address one of {_SET_COMPONENTS}"
            )
        if component == "phy":
            entry = data.get("phy")
            if entry is None:
                entry = {}
            elif isinstance(entry, str):
                from repro.spec import resolve_phy

                entry = resolve_phy(entry).to_dict()
            else:
                entry = dict(entry)
            entry[param] = value
            data["phy"] = entry
        elif component == "mobility":
            entry = dict(data.get("mobility") or {"model": "static"})
            if param in ("update_interval_s", "reestimate_interval_s", "mobile_nodes"):
                entry[param] = value
            else:
                params = dict(entry.get("params") or {})
                if param == "speed" and entry.get("model") == "random_waypoint":
                    params["speed_min_mps"] = float(value)
                    params["speed_max_mps"] = float(value)
                else:
                    params[param] = value
                entry["params"] = params
            data["mobility"] = entry
        else:
            entry = data.get(component)
            entry = _normalize_topology_entry(entry) if component == "topology" else dict(entry or {})
            params = dict(entry.get("params") or {})
            params[param] = value
            entry["params"] = params
            entry.setdefault("name", None)
            data[component] = entry
    for component in ("mac", "routing", "traffic", "transport", "topology"):
        entry = data.get(component)
        if not isinstance(entry, dict) or "positions" in entry:
            continue  # absent, or an inline topology
        if entry.get("name") is None:
            raise SpecError(
                f"--set {component}.<param> used without naming the component "
                f"(add {component}=<name>)"
            )
    return data


def _configs_from_args(args) -> List["ScenarioConfig"]:
    """Build the ScenarioConfig list a ``run --spec/--set`` invocation asks for."""
    from repro.spec import ScenarioConfig

    documents: List[Dict[str, object]] = []
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        documents = list(loaded) if isinstance(loaded, list) else [loaded]
    else:
        documents = [{}]
    sets = list(args.set or [])
    configs: List[ScenarioConfig] = []
    for document in documents:
        data = _apply_sets(dict(document), sets)
        if "topology" not in data:
            raise SpecError(
                "a spec run needs a topology: --set topology=<name> "
                "(see repro.topology.registry) or a --spec file"
            )
        if args.duration is not None:
            data["duration_s"] = args.duration
        configs.append(ScenarioConfig.from_dict(data))
    return configs


def _describe_config(config) -> str:
    parts = [
        f"topology={config.topology.name}",
        f"mac={config.mac.name}",
        f"routing={config.routing.name}",
        f"traffic={config.traffic.name}",
        f"transport={config.transport.name}",
    ]
    if config.mobility is not None:
        parts.append(f"mobility={config.mobility.model}")
    parts.append(f"duration={config.duration_s:g}s")
    return " ".join(parts)


def _render_spec_result(result) -> str:
    lines = [
        f"{'flow':>4} {'kind':<6} {'Mb/s':>8} {'recv':>7} "
        f"{'rexmit':>7} {'fastRT':>7} {'RTO':>4} {'MoS':>5}"
    ]
    for flow in result.flows:
        quality = result.voip_quality.get(flow.flow_id)
        mos = f"{quality.mos:5.2f}" if quality is not None else "    -"
        lines.append(
            f"{flow.flow_id:>4} {flow.kind:<6} {flow.throughput_mbps:>8.2f} "
            f"{flow.packets_received:>7} {flow.retransmissions:>7} "
            f"{flow.fast_retransmits:>7} {flow.timeouts:>4} {mos}"
        )
    for flow_id, quality in sorted(result.voip_quality.items()):
        if not any(flow.flow_id == flow_id for flow in result.flows):
            lines.append(
                f"{flow_id:>4} {'voip':<6} {'-':>8} {'-':>7} "
                f"{'-':>7} {'-':>7} {'-':>4} {quality.mos:5.2f}"
            )
    lines.append(
        f"total TCP Mb/s: {result.total_throughput_mbps:.2f}   "
        f"events: {result.events_processed}"
    )
    return "\n".join(lines)


def _run_specs(args, runner: SweepRunner) -> int:
    from dataclasses import replace

    configs = []
    labels = []
    for config in _configs_from_args(args):
        for seed in range(1, args.seeds + 1):
            seeded = replace(config, seed=seed) if args.seeds > 1 else config
            configs.append(seeded)
            labels.append(f"{_describe_config(seeded)} seed={seeded.seed}")
    results = runner.run(configs)
    if getattr(args, "json", False):
        # Machine-readable mode: one document per scenario, carrying the
        # cache digest alongside the canonical config and result payloads
        # — what scripts and the service smoke test consume instead of
        # scraping the human tables.
        from repro.experiments.parallel import config_digest

        documents = [
            {
                "digest": config_digest(config),
                "config": config.to_dict(),
                "result": result.to_dict(),
            }
            for config, result in zip(configs, results)
        ]
        json.dump(documents, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    for label, result in zip(labels, results):
        print(f"=== {label} ===")
        print(_render_spec_result(result))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's figures/tables through the parallel sweep runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list runnable experiments and registered components")
    # Arguments shared by 'run' and 'report' — defined once so the two
    # commands cannot drift apart (identical flags and defaults are what
    # makes 'report' recompute the same cache digests 'run' stored under).
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="N",
        help="process each experiment with seeds 1..N (default 1)",
    )
    shared.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-scenario simulated duration (default: each experiment's own)",
    )
    shared.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    run = sub.add_parser(
        "run",
        help="run experiments by name, or an arbitrary scenario via --spec/--set",
        parents=[shared],
    )
    run.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="experiment names from 'list', or 'all' (omit when using --spec/--set)",
    )
    run.add_argument("--jobs", type=int, default=1, help="worker processes (default 1; 0 = one per CPU)")
    run.add_argument("--no-cache", action="store_true", help="always simulate, never read/write the cache")
    run.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="JSON file with one scenario document (or a list of them)",
    )
    run.add_argument(
        "--set",
        nargs="+",
        default=None,
        metavar="KEY=VALUE",
        help="declarative scenario assignments, e.g. topology=roofnet mac=ripple "
             "routing=etx traffic=voip topology.seed=3 mac.max_aggregation=8",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="with --spec/--set: print [{digest, config, result}, ...] JSON on "
             "stdout instead of tables (cache summary goes to stderr)",
    )
    report = sub.add_parser(
        "report",
        help="re-render completed experiments from the cache (never simulates)",
        parents=[shared],
    )
    report.add_argument(
        "names",
        nargs="+",
        metavar="NAME",
        help="experiment names from 'list', or 'all'",
    )
    return parser


def _print_experiment_groups() -> None:
    """The 'list' catalogue: experiments filed under their group headings."""
    width = max(len(name) for name in EXPERIMENTS)
    groups: Dict[str, List[Experiment]] = {}
    for exp in EXPERIMENTS.values():
        groups.setdefault(exp.group, []).append(exp)
    for position, (group, members) in enumerate(groups.items()):
        if position:
            print()
        print(f"{group}:")
        for exp in members:
            suffix = "  [cache-only]" if exp.cache_only else ""
            if exp.axes:
                suffix += f"  (axes: {exp.axes})"
            print(f"  {exp.name:<{width}}  {exp.description}{suffix}")


def _print_component_registries() -> None:
    from repro.mac.registry import MAC_SCHEMES
    from repro.mobility.models import MOBILITY_MODELS
    from repro.phy.registry import PROPAGATION_MODELS
    from repro.routing.registry import ROUTING_STRATEGIES
    from repro.topology.registry import TOPOLOGIES
    from repro.traffic.registry import TRAFFIC_KINDS
    from repro.transport.registry import TRANSPORT_SCHEMES

    print("\ncomponent registries (compose freely with run --set; "
          "full reference: docs/COMPONENTS.md):")
    registries = (
        TOPOLOGIES, MAC_SCHEMES, ROUTING_STRATEGIES, TRAFFIC_KINDS,
        TRANSPORT_SCHEMES, MOBILITY_MODELS, PROPAGATION_MODELS,
    )
    for registry in registries:
        print(f"  {registry.summary()}")


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        _print_experiment_groups()
        _print_component_registries()
        return 0

    spec_mode = args.command == "run" and (args.spec is not None or args.set is not None)
    if spec_mode and args.names:
        print("use either experiment names or --spec/--set, not both", file=sys.stderr)
        return 2
    if args.command == "run" and args.json and not spec_mode:
        print("--json needs a --spec/--set scenario run (named experiments "
              "render figure tables only)", file=sys.stderr)
        return 2
    if args.command == "run" and not spec_mode and not args.names:
        print("nothing to run: give experiment names or --spec/--set", file=sys.stderr)
        return 2

    names = [] if spec_mode else (list(EXPERIMENTS) if "all" in args.names else args.names)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    if args.command == "report":
        cache = ResultCache(args.cache_dir)
        runner: SweepRunner = CacheOnlySweepRunner(cache)
    else:
        cache = None if args.no_cache else ResultCache(args.cache_dir)
        runner = SweepRunner(jobs=args.jobs, cache=cache)

    if spec_mode:
        try:
            status = _run_specs(args, runner)
        except (ValueError, KeyError, OSError) as exc:
            # SpecError, registry lookups, component-param validation, bad
            # files — all user input; show the message, not a traceback.
            print(f"bad scenario spec: {exc}", file=sys.stderr)
            return 2
        if cache is not None:
            _print_cache_summary(cache, sys.stderr if args.json else sys.stdout)
        return status
    for name in names:
        exp = EXPERIMENTS[name]
        for seed in range(1, args.seeds + 1):
            header = f"=== {name} (seed {seed}) ==="
            print(header)
            try:
                print(exp.render(runner, args.duration, seed))
            except CacheMissError as exc:
                print(
                    f"{name} (seed {seed}): {exc}.\n"
                    f"Run it first:  python -m repro.experiments run {name} --seeds {args.seeds}"
                    + (f" --duration {args.duration:g}" if args.duration is not None else ""),
                    file=sys.stderr,
                )
                return 3
            print()
    if cache is not None:
        _print_cache_summary(cache, sys.stdout)
    return 0


def _print_cache_summary(cache: ResultCache, out) -> None:
    total = cache.hits + cache.misses
    suffix = f", {cache.quarantined} corrupt quarantined" if cache.quarantined else ""
    print(
        f"cache: {cache.hits}/{total} hits ({cache.misses} simulated{suffix}) in {cache.root}",
        file=out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
