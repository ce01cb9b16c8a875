"""``registry-hygiene``: the component registries stay usable and documented.

The registries are the public face of the scenario API: everything in
them must be resolvable by name from a JSON spec and rendered into the
generated ``docs/COMPONENTS.md``.  This rule re-checks those properties
against the *live* registries on every pass, so a component merged
without a docstring or a dangling alias is a lint failure rather than a
latent doc/CLI bug.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path
from typing import Iterable, List, Tuple

from repro.analysis.base import ProjectContext, ProjectRule, register_rule
from repro.analysis.findings import Finding

#: The component registries under hygiene, as ``(module, attribute)``.
COMPONENT_REGISTRIES: Tuple[Tuple[str, str], ...] = (
    ("repro.mac.registry", "MAC_SCHEMES"),
    ("repro.routing.registry", "ROUTING_STRATEGIES"),
    ("repro.traffic.registry", "TRAFFIC_KINDS"),
    ("repro.transport.registry", "TRANSPORT_SCHEMES"),
    ("repro.topology.registry", "TOPOLOGIES"),
    ("repro.mobility.models", "MOBILITY_MODELS"),
    ("repro.phy.registry", "PROPAGATION_MODELS"),
    ("repro.corpus.checks", "CORPUS_CHECKS"),
)

def _load_attribute(dotted_path: str) -> object:
    """Import ``"pkg.module.attribute"`` and return the attribute."""
    module_name, _, attribute = dotted_path.rpartition(".")
    return getattr(importlib.import_module(module_name), attribute)


def _location(root: Path, obj) -> Tuple[str, int]:
    """Repo-relative ``(path, line)`` of a class/function, for findings."""
    try:
        source_file = inspect.getsourcefile(obj)
        _, line = inspect.getsourcelines(obj)
    except (OSError, TypeError):
        return "src/repro", 1
    path = Path(source_file or "src/repro")
    try:
        return path.resolve().relative_to(root.resolve()).as_posix(), line
    except ValueError:
        return path.as_posix(), line


def _entry_factory(entry) -> object:
    """The callable behind a registry entry (MAC entries wrap theirs)."""
    return getattr(entry, "factory", entry)


@register_rule
class RegistryHygiene(ProjectRule):
    """Registered components resolve and document themselves.

    Checks, against the live registries: every entry's factory is
    callable and has the docstring the generated reference consumes;
    every alias resolves to a registered name; every prefix entry is
    callable and documented.
    """

    id = "registry-hygiene"
    title = "component registry entry unusable or undocumented"

    def check_project(self, ctx: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for module_name, attribute in COMPONENT_REGISTRIES:
            findings.extend(self._check_registry(ctx.root, module_name, attribute))
        return findings

    # ------------------------------------------------------------------
    # Registries
    # ------------------------------------------------------------------
    def _check_registry(
        self, root: Path, module_name: str, attribute: str
    ) -> Iterable[Finding]:
        registry_path = f"src/{module_name.replace('.', '/')}.py"
        try:
            registry = _load_attribute(f"{module_name}.{attribute}")
        except (ImportError, AttributeError) as exc:
            yield Finding(
                rule=self.id,
                path=registry_path,
                line=1,
                message=f"registry {module_name}.{attribute} does not import: {exc}",
            )
            return
        entries = list(registry.items()) + [
            (f"{prefix}:<arg>", entry) for prefix, entry in registry.prefix_items()
        ]
        for name, entry in entries:
            factory = _entry_factory(entry)
            path, line = _location(root, factory)
            if not callable(factory):
                yield Finding(
                    rule=self.id,
                    path=registry_path,
                    line=1,
                    message=f"{registry.kind} {name!r}: registered entry is not callable",
                )
                continue
            doc = inspect.getdoc(factory)
            if not doc or not doc.strip():
                yield Finding(
                    rule=self.id,
                    path=path,
                    line=line,
                    message=(
                        f"{registry.kind} {name!r}: factory has no docstring; the "
                        "generated component reference needs its one-line description"
                    ),
                )
        for alias, target in registry.alias_items():
            if target not in registry.names():
                yield Finding(
                    rule=self.id,
                    path=registry_path,
                    line=1,
                    message=f"{registry.kind} alias {alias!r} -> {target!r} does not resolve",
                )
