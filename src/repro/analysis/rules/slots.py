"""``slots-on-hot-path``: per-event classes keep their ``__slots__``.

PR 3 bought a large share of its speedup by slotting the objects the
event loop allocates by the tens of thousands per run (``Event``,
``Transmission``, ``MacFrame``).  A new class added to one of those
modules without ``__slots__`` quietly reintroduces a per-instance
``__dict__`` — an allocation and a pointer chase on every event — and
nothing fails; throughput just erodes.  This rule makes the regression
visible at lint time.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict

from repro.analysis.base import Checker, ModuleContext, SourceRule, dotted_name, register_rule

#: Base classes that manage their own storage; subclasses are exempt.
_EXEMPT_BASES = {
    "Enum",
    "IntEnum",
    "StrEnum",
    "Flag",
    "IntFlag",
    "Exception",
    "BaseException",
    "Protocol",
    "ABC",
    "NamedTuple",
    "TypedDict",
}

#: Exception naming convention: ``...Error`` classes are not hot-path data.
_EXEMPT_SUFFIXES = ("Error", "Exception", "Warning")


def _has_slots(node: ast.ClassDef) -> bool:
    """Whether the class body assigns ``__slots__`` or uses ``@dataclass(slots=True)``."""
    for statement in node.body:
        targets = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call) and dotted_name(decorator.func).endswith("dataclass"):
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
    return False


def _is_exempt(node: ast.ClassDef) -> bool:
    if node.name.endswith(_EXEMPT_SUFFIXES):
        return True
    for base in node.bases:
        name = dotted_name(base)
        tail = name.rpartition(".")[2]
        if tail in _EXEMPT_BASES or tail.endswith(_EXEMPT_SUFFIXES):
            return True
    return False


@register_rule
class SlotsOnHotPath(SourceRule):
    """Classes in the event-loop modules must declare ``__slots__``.

    Scoped to ``sim/engine.py``, ``sim/rng.py``, ``phy/radio.py``,
    ``phy/channel.py``, ``phy/error_models.py``, ``packet.py`` and the
    ``transport/`` package — the modules whose instances are allocated
    (or whose attributes are chased) per event, per reception, per
    decoded frame, per packet or per ACK (``sim/rng.py`` and
    ``error_models.py`` joined the list with the PR-8 slab/batched-RNG
    refactor; ``transport/`` joined with the congestion-control registry:
    segments, ACKs and controller state are touched on every delivery).
    ``mac/frames.py`` is covered too: the radio reads each clean frame's
    ``receiver``, and one ``MacFrame`` is allocated per transmission and
    one ``SubPacket`` per packet per hop.
    A plain ``__slots__`` tuple or ``@dataclass(slots=True)`` both
    satisfy the rule; ``Enum``, exception and ``Protocol`` classes are
    exempt (their metaclasses manage storage).  This protects the PR-3
    allocation wins from silently regressing when a helper class lands
    in a hot module.
    """

    id = "slots-on-hot-path"
    title = "hot-path class without __slots__ reintroduces per-instance dicts"
    include = (
        "repro/sim/engine.py",
        "repro/sim/rng.py",
        "repro/phy/radio.py",
        "repro/phy/channel.py",
        "repro/phy/error_models.py",
        "repro/packet.py",
        "repro/mac/frames.py",
        "repro/transport/congestion.py",
        "repro/transport/dropscript.py",
        "repro/transport/host.py",
        "repro/transport/tcp.py",
        "repro/transport/udp.py",
    )

    def checker(self, ctx: ModuleContext) -> "_SlotsChecker":
        return _SlotsChecker(self, ctx)


class _SlotsChecker(Checker):
    def handlers(self) -> Dict[type, Callable[[ast.AST], None]]:
        return {ast.ClassDef: self._class}

    def _class(self, node: ast.ClassDef) -> None:
        if _is_exempt(node) or _has_slots(node):
            return
        self.emit(
            node,
            f"class {node.name} in a hot-path module has no __slots__; declare "
            "one (or @dataclass(slots=True)) so instances stay dict-free",
        )
