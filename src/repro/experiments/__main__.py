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
from typing import Dict, List, Optional

from repro.experiments.figures import FIGURES, Figure
from repro.experiments.grids import scenario_grid
from repro.experiments.parallel import (
    CacheMissError,
    CacheOnlySweepRunner,
    ResultCache,
    SweepRunner,
)
from repro.experiments.report import render_blocks
from repro.serialization import SpecError


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
    # One seed keeps each document's own; more sweep seeds 1..N.
    axes = {"seed": range(1, args.seeds + 1)} if args.seeds > 1 else {}
    configs = [
        seeded
        for config in _configs_from_args(args)
        for seeded in scenario_grid(config, axes)[0]
    ]
    labels = [f"{_describe_config(config)} seed={config.seed}" for config in configs]
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
    """The 'list' catalogue: figures filed under their group headings."""
    width = max(len(name) for name in FIGURES)
    groups: Dict[str, Dict[str, Figure]] = {}
    for name, figure in FIGURES.items():
        groups.setdefault(figure.group, {})[name] = figure
    for position, (group, members) in enumerate(groups.items()):
        if position:
            print()
        print(f"{group}:")
        for name, figure in members.items():
            print(f"  {name:<{width}}  {figure.title}")


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

    names = [] if spec_mode else (list(FIGURES) if "all" in args.names else args.names)
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(FIGURES)}", file=sys.stderr)
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
        for seed in range(1, args.seeds + 1):
            print(f"=== {name} (seed {seed}) ===")
            try:
                print(render_blocks(FIGURES[name].blocks(runner, seed, args.duration)))
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
