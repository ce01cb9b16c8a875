"""Named component registries: the extension seam of the scenario API.

Every pluggable layer of the simulator — MAC schemes, routing strategies,
traffic kinds, topologies, mobility models — owns one :class:`Registry`
and populates it with a ``@register("name")`` decorator at import time.
The declarative spec layer (:mod:`repro.spec`) then refers to components
purely by name, which is what makes a scenario a JSON document instead of
a code change: ``{"mac": {"name": "ripple"}, "routing": {"name":
"static"}}`` resolves through the registries at build time.

Adding a component is therefore one decorated function::

    from repro.topology.registry import register_topology

    @register_topology("campus")
    def campus(n_buildings: int = 4) -> TopologySpec:
        ...

after which ``--set topology=campus topology.n_buildings=6`` works from
the CLI with no other code touched.

Registries are *closed* against accidents: registering a name twice
raises (a silent overwrite would make behaviour depend on import order),
and looking up an unknown name raises an error that lists what *is*
registered.

Besides plain names, a registry can hold **prefix entries**
(:meth:`Registry.add_prefix`): an entry addressed as ``prefix:argument``,
where the argument is free-form — the mechanism behind path-addressed
components like ``topology=trace:nodes.csv``.  A prefixed name is
resolved by its prefix alone; :meth:`Registry.split_prefixed` recovers
the argument for the caller to hand to the entry.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class RegistryError(ValueError):
    """Raised on duplicate registration or lookup of an unknown name."""


class Registry:
    """A named, write-once mapping of component names to entries.

    Reads like a mapping where its callers need one: ``in``, iteration
    over the canonical names, ``get`` and ``items``.
    """

    def __init__(self, kind: str) -> None:
        #: Human-readable component kind, used in error messages
        #: (e.g. ``"MAC scheme"``, ``"topology"``).
        self.kind = kind
        self._entries: Dict[str, object] = {}
        self._aliases: Dict[str, str] = {}
        self._prefixes: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def add(self, name: str, entry: T) -> T:
        """Register ``entry`` under ``name``; duplicate names raise."""
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self.kind} name must be a non-empty string, got {name!r}")
        if name in self._entries or name in self._aliases:
            raise RegistryError(
                f"duplicate {self.kind} registration {name!r}: "
                f"already provided by {self._entries.get(name, self._aliases.get(name))!r}"
            )
        self._entries[name] = entry
        return entry

    def register(self, name: str) -> Callable[[T], T]:
        """Decorator form of :meth:`add`; returns the decorated object unchanged."""

        def decorate(entry: T) -> T:
            self.add(name, entry)
            return entry

        return decorate

    def add_prefix(self, prefix: str, entry: T) -> T:
        """Register ``entry`` for every name of the form ``prefix:<argument>``.

        The argument after the colon is free-form (a file path, a URL, an
        expression) and is recovered with :meth:`split_prefixed`; how it is
        interpreted is entirely the entry's business.
        """
        if not prefix or not isinstance(prefix, str) or ":" in prefix:
            raise RegistryError(
                f"{self.kind} prefix must be a non-empty string without ':', got {prefix!r}"
            )
        if prefix in self._entries or prefix in self._aliases or prefix in self._prefixes:
            raise RegistryError(f"duplicate {self.kind} registration {prefix!r}")
        self._prefixes[prefix] = entry
        return entry

    def register_prefix(self, prefix: str) -> Callable[[T], T]:
        """Decorator form of :meth:`add_prefix`; returns the object unchanged."""

        def decorate(entry: T) -> T:
            self.add_prefix(prefix, entry)
            return entry

        return decorate

    def alias(self, alias: str, target: str) -> None:
        """Make ``alias`` resolve to the already-registered ``target``."""
        if target not in self._entries:
            raise RegistryError(
                f"cannot alias {alias!r}: unknown {self.kind} {target!r}; "
                f"known: {sorted(self._entries)}"
            )
        if alias in self._entries or alias in self._aliases:
            raise RegistryError(f"duplicate {self.kind} registration {alias!r}")
        self._aliases[alias] = target

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def canonical_name(self, name: str) -> str:
        """Resolve an alias to its canonical name (identity for canonical names)."""
        return self._aliases.get(name, name)

    def split_prefixed(self, name: object) -> Optional[Tuple[str, str]]:
        """``(prefix, argument)`` when ``name`` addresses a prefix entry, else None."""
        if not isinstance(name, str) or ":" not in name:
            return None
        prefix, _, argument = name.partition(":")
        if prefix not in self._prefixes:
            return None
        return prefix, argument

    def lookup(self, name: str):
        """The entry registered under ``name`` (or an alias/prefix); raises if unknown.

        For a prefixed name (``trace:nodes.csv``) this returns the prefix
        entry; pair with :meth:`split_prefixed` to recover the argument.
        """
        prefixed = self.split_prefixed(name)
        if prefixed is not None:
            return self._prefixes[prefixed[0]]
        canonical = self.canonical_name(name)
        try:
            return self._entries[canonical]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; known: {self.known_names()}"
            ) from None

    def get(self, name: str, default=None):
        """Mapping-style lookup returning ``default`` for unknown names."""
        prefixed = self.split_prefixed(name)
        if prefixed is not None:
            return self._prefixes[prefixed[0]]
        return self._entries.get(self._aliases.get(name, name), default)

    def known_names(self) -> List[str]:
        """Canonical names plus aliases and prefix forms, sorted (for errors/help)."""
        return sorted([*self._entries, *self._aliases, *(f"{p}:<arg>" for p in self._prefixes)])

    def prefixes(self) -> Tuple[str, ...]:
        """Registered prefixes in registration order."""
        return tuple(self._prefixes)

    def aliases_of(self, name: str) -> List[str]:
        """Aliases resolving to canonical ``name``, sorted (for docs/help)."""
        return sorted(alias for alias, target in self._aliases.items() if target == name)

    def prefix_items(self):
        return self._prefixes.items()

    def names(self) -> Tuple[str, ...]:
        """Canonical names in registration order."""
        return tuple(self._entries)

    def summary(self) -> str:
        """One-line inventory: ``<kind>: name, alias, prefix:<arg>, ...``.

        The introspection hook behind ``python -m repro.experiments list``
        and the corpus enumeration docs — one stable rendering of what a
        registry holds, instead of each CLI joining ``known_names()`` its
        own way.
        """
        return f"{self.kind}: {', '.join(self.known_names())}"

    def items(self):
        return self._entries.items()

    def __contains__(self, name: object) -> bool:
        return (
            name in self._entries
            or name in self._aliases
            or self.split_prefixed(name) is not None
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Registry({self.kind!r}, {sorted(self._entries)})"
