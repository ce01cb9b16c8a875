"""Generated reference documents: one command writes or checks both.

Two reference documents are generated from the live registries instead
of being hand-maintained.  Each generator lives next to its registry;
:data:`GENERATED_DOCS` maps each document to its generator::

    python -m repro.docs            # (re)write every generated document
    python -m repro.docs --check    # write nothing; exit 1, with a diff, if one is stale

Paths resolve against the repository root, whatever the working
directory.  The CI ``docs-freshness`` job runs ``--check``, so no
document can drift from the code the way hand-written tables do.

This module also holds the ``docs/COMPONENTS.md`` generator.  For every
component registry (topology, MAC, routing, traffic, mobility,
propagation) it emits each entry's canonical name, aliases, parameter
schema and one-line description.  Parameters come from the registered
factory's signature (or its ``doc_params`` attribute for factories with
non-introspectable ``(params, bounds)`` protocols); descriptions come
from the factory's docstring.  A registered factory *without* a
docstring fails the build — an undocumented component is a bug, not a
gap.
"""

from __future__ import annotations

import argparse
import difflib
import inspect
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.corpus.docs import generate_corpus_markdown

HEADER = """\
# Component reference

<!-- GENERATED FILE - DO NOT EDIT.
     Regenerate with:  PYTHONPATH=src python -m repro.docs
     CI fails when this file is stale (python -m repro.docs --check). -->

Every pluggable layer of the simulator is a named component in a
registry (see `repro.registry`); a scenario addresses components purely
by name, either in a scenario JSON document or with
`python -m repro.experiments run --set <layer>=<name>
<layer>.<param>=<value>`.  This reference is generated from the live
registries by `python -m repro.docs`.
"""


class DocsError(RuntimeError):
    """Raised when a registered component cannot be documented (no docstring)."""


@dataclass(frozen=True)
class ComponentRow:
    """One rendered registry entry."""

    name: str
    aliases: Tuple[str, ...]
    params: Tuple[str, ...]
    description: str


def _first_doc_line(registry_kind: str, name: str, obj: Callable) -> str:
    doc = inspect.getdoc(obj)
    if not doc or not doc.strip():
        raise DocsError(
            f"{registry_kind} {name!r}: registered factory has no docstring; "
            "every component needs the one-line description the generated docs consume"
        )
    return doc.strip().splitlines()[0].strip()


def _signature_params(factory: Callable, skip: int) -> Tuple[str, ...]:
    """``name=default`` strings from a factory signature, after ``skip`` args."""
    explicit = getattr(factory, "doc_params", None)
    if explicit is not None:
        return tuple(explicit)
    rendered: List[str] = []
    parameters = list(inspect.signature(factory).parameters.values())[skip:]
    for parameter in parameters:
        if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
            continue
        if parameter.default is parameter.empty:
            rendered.append(parameter.name)
        else:
            rendered.append(f"{parameter.name}={parameter.default!r}")
    return tuple(rendered)


def _plain_rows(registry, skip: int) -> List[ComponentRow]:
    rows = [
        ComponentRow(
            name=name,
            aliases=tuple(registry.aliases_of(name)),
            params=_signature_params(entry, skip),
            description=_first_doc_line(registry.kind, name, entry),
        )
        for name, entry in registry.items()
    ]
    for prefix, entry in registry.prefix_items():
        rows.append(
            ComponentRow(
                name=f"{prefix}:<arg>",
                aliases=(),
                # The first positional argument is the part after the colon.
                params=_signature_params(entry, 1),
                description=_first_doc_line(registry.kind, prefix, entry),
            )
        )
    return rows


def _mac_rows(registry) -> List[ComponentRow]:
    rows = []
    for name, info in registry.items():
        description = _first_doc_line(registry.kind, name, info.factory)
        rows.append(
            ComponentRow(
                name=name,
                aliases=tuple(registry.aliases_of(name)),
                params=tuple(info.params),
                description=f"{description} [{info.label}]",
            )
        )
    return rows


@dataclass(frozen=True)
class RegistrySection:
    """One documented registry: heading, addressing hints and its rows."""

    title: str
    registry_path: str
    set_key: str
    rows: Sequence[ComponentRow]
    note: str = ""


def registry_sections() -> List[RegistrySection]:
    """Collect every component registry as a renderable section."""
    from repro.mac.registry import MAC_SCHEMES
    from repro.mobility.models import MOBILITY_MODELS
    from repro.phy.registry import PROPAGATION_MODELS
    from repro.routing.registry import ROUTING_STRATEGIES
    from repro.topology.registry import TOPOLOGIES
    from repro.traffic.registry import TRAFFIC_KINDS
    from repro.transport.registry import TRANSPORT_SCHEMES

    return [
        RegistrySection(
            title="Topologies",
            registry_path="repro.topology.registry.TOPOLOGIES",
            set_key="topology",
            rows=_plain_rows(TOPOLOGIES, skip=0),
            note=(
                "`trace:<arg>` takes a file path after the colon "
                "(`--set topology=trace:site.csv`); see `repro.topology.tracefile` "
                "for the CSV/JSON formats."
            ),
        ),
        RegistrySection(
            title="MAC schemes",
            registry_path="repro.mac.registry.MAC_SCHEMES",
            set_key="mac",
            rows=_mac_rows(MAC_SCHEMES),
            note=(
                "Bracketed suffixes are the paper's figure labels. "
                "`rate_adapt` wraps the scheme named by its `inner` parameter, "
                "which must read the `max_aggregation` it passes on."
            ),
        ),
        RegistrySection(
            title="Routing strategies",
            registry_path="repro.routing.registry.ROUTING_STRATEGIES",
            set_key="routing",
            rows=_plain_rows(ROUTING_STRATEGIES, skip=2),
        ),
        RegistrySection(
            title="Traffic kinds",
            registry_path="repro.traffic.registry.TRAFFIC_KINDS",
            set_key="traffic",
            rows=_plain_rows(TRAFFIC_KINDS, skip=3),
            note=(
                "The default traffic spec `\"flows\"` is not a registry entry: it means "
                "\"drive each flow according to its own `FlowSpec.kind`\"; naming a "
                "kind re-flavours every active flow."
            ),
        ),
        RegistrySection(
            title="Transport schemes",
            registry_path="repro.transport.registry.TRANSPORT_SCHEMES",
            set_key="transport",
            rows=_plain_rows(TRANSPORT_SCHEMES, skip=0),
            note=(
                "Congestion control for every TCP-backed flow of a scenario. The "
                "default (no `transport=`) is `reno`, bit-identical to pre-registry runs."
            ),
        ),
        RegistrySection(
            title="Mobility models",
            registry_path="repro.mobility.models.MOBILITY_MODELS",
            set_key="mobility",
            rows=_plain_rows(MOBILITY_MODELS, skip=2),
            note=(
                "Model parameters ride in `MobilitySpec.params` "
                "(`--set mobility=random_waypoint mobility.speed=5`); "
                "`update_interval_s`, `reestimate_interval_s` and `mobile_nodes` "
                "are spec-level fields shared by every model."
            ),
        ),
        RegistrySection(
            title="Propagation models",
            registry_path="repro.phy.registry.PROPAGATION_MODELS",
            set_key="phy.propagation",
            rows=_plain_rows(PROPAGATION_MODELS, skip=1),
            note=(
                "Selected through the PHY: `--set phy.propagation=rician "
                "'phy.propagation_params={\"k_factor\": 8}'`.  The default "
                "`shadowing` entry inherits `phy.max_deviation_sigmas` as its "
                "fade bound."
            ),
        ),
    ]


def _escape_cell(text: str) -> str:
    return text.replace("|", "\\|")


def _render_section(section: RegistrySection) -> List[str]:
    lines = [
        f"## {section.title}",
        "",
        f"Registry: `{section.registry_path}` — select with `--set {section.set_key}=<name>`.",
        "",
        "| name | aliases | parameters | description |",
        "|------|---------|------------|-------------|",
    ]
    for row in section.rows:
        aliases = ", ".join(f"`{alias}`" for alias in row.aliases) or "—"
        params = ", ".join(f"`{param}`" for param in row.params) or "—"
        lines.append(
            f"| `{row.name}` | {aliases} | {params} | {_escape_cell(row.description)} |"
        )
    if section.note:
        lines.extend(["", section.note])
    lines.append("")
    return lines


def generate_components_markdown() -> str:
    """The full COMPONENTS.md document, rendered from the live registries."""
    lines = [HEADER]
    for section in registry_sections():
        lines.extend(_render_section(section))
    return "\n".join(lines).rstrip() + "\n"


def repo_root() -> Path:
    """The repository root, derived from this file's location in ``src``."""
    return Path(__file__).resolve().parents[2]


#: Each generated document's repository-relative path, and its generator.
GENERATED_DOCS: Dict[str, Callable[[], str]] = {
    "docs/COMPONENTS.md": generate_components_markdown,
    "docs/CORPUS.md": generate_corpus_markdown,
}


def check_freshness(root: Path, path: str) -> Optional[str]:
    """None when ``root / path`` holds what its generator writes, else a unified diff."""
    expected = GENERATED_DOCS[path]()
    try:
        committed = (root / path).read_text(encoding="utf-8")
    except OSError:
        committed = ""
    if committed == expected:
        return None
    return "".join(
        difflib.unified_diff(
            committed.splitlines(keepends=True),
            expected.splitlines(keepends=True),
            fromfile=f"{path} (committed)",
            tofile=f"{path} (generated)",
        )
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.docs",
        description="Generate the reference documents from the live registries.",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="do not write; exit 1 (with a diff) if a committed copy is stale",
    )
    args = parser.parse_args(argv)
    root = repo_root()
    if not args.check:
        for path, generate in GENERATED_DOCS.items():
            (root / path).write_text(generate(), encoding="utf-8")
            print(f"wrote {path}")
        return 0
    stale = False
    for path in GENERATED_DOCS:
        diff = check_freshness(root, path)
        if diff is None:
            print(f"{path} is up to date")
        else:
            print(diff, end="")
            print(f"{path} is stale")
            stale = True
    if stale:
        print("regenerate with: PYTHONPATH=src python -m repro.docs")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
