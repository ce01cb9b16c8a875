"""The census: every member of ``src/repro`` has a caller outside the tests.

A function, class, method or module constant that only tests call is a
second path beside the one runs take, or a capability nothing uses.  It
costs reading and upkeep, and a test of it checks code no run executes.

The census lists every def, class, method and module constant under
``src/repro`` whose name is never *loaded* in production code:
``src/``, ``bench/``, ``examples/`` and ``.github/scripts/``.  A load is
a ``Name``, an ``Attribute``, or a string that is an identifier, which
covers ``getattr`` and registry lookups.  A mention in ``__all__`` or in
an import is not a load: re-exports would otherwise keep any name alive.
Dunders (the interpreter calls them) and factories registered by a
``register...`` decorator (a registry reaches them by name) are skipped.

The census matches bare names, so a member that shares its name with a
used one (``MacTiming.ack_timeout_ns`` beside the timing table's
``ack_timeout_ns``) counts as used.  It can only under-report.

:data:`STAYS` is the census's exact expected result, each entry with the
reason it stays.  An unused member that is not listed fails the test,
and so does a listed one that gains a caller or is deleted.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: The trees whose loads count as callers.
PRODUCTION = ("src", "bench", "examples", ".github/scripts")

_POWER_DRAW = "one frame's received power drawn alone, which the propagation tests sample"

#: ``qualified name: reason`` for every member the census must find.
STAYS = {
    "repro.corpus.golden.verify_golden": "the golden-digest gate that tier-1 runs",
    "repro.mac.rate_adapt.ArfRateController.current_rate_bps": (
        "the rate ARF sends at, which the rate-adaptation tests read"
    ),
    "repro.mac.timing.MacTiming.data_frame_airtime_ns": (
        "the closed-form frame airtime the oracles hold runs to"
    ),
    "repro.phy.channel.Transmission.end_time": (
        "when a frame leaves the air, which the channel-access tests wait for"
    ),
    "repro.phy.channel.WirelessChannel.candidate_receivers": (
        "the radios a dispatch plan reaches, which the culling tests read"
    ),
    "repro.phy.propagation.PathLossModel.received_power_dbm": _POWER_DRAW,
    "repro.phy.propagation.ShadowingPropagation.received_power_dbm": _POWER_DRAW,
    "repro.service.server._Handler.do_GET": "http.server calls it by name",
    "repro.service.server._Handler.do_POST": "http.server calls it by name",
    "repro.sim.engine.Simulator.pending_events": "the heap size the engine tests read",
    "repro.sim.engine.Simulator.cancelled_pending_events": (
        "the lazy-cancellation count the engine tests read"
    ),
    "repro.sim.rng._PhiloxKey.generate_state": "numpy's Philox calls it by name",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _decorator_name(decorator: ast.AST) -> str:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr
    return decorator.id if isinstance(decorator, ast.Name) else ""


def _is_registered(node: ast.AST) -> bool:
    return any(
        _decorator_name(decorator).startswith("register")
        for decorator in node.decorator_list
    )


def _members(body, prefix: str) -> Iterator[Tuple[str, str]]:
    """``(qualified name, bare name)`` for the defs and classes of a body, classes recursed."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _is_dunder(node.name) and not _is_registered(node):
                yield f"{prefix}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                yield from _members(node.body, f"{prefix}.{node.name}")


def definitions(module: str, tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """Every def, class, method and module constant of ``module`` (``repro.phy.channel``)."""
    yield from _members(tree.body, module)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and not _is_dunder(target.id):
                yield f"{module}.{target.id}", target.id


def loaded_names(tree: ast.Module) -> Set[str]:
    """Names, attributes and identifier strings ``tree`` loads, ``__all__`` aside."""
    exported: Set[int] = set()
    renamed: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                exported.update(id(child) for child in ast.walk(node))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            renamed.update((alias.asname, alias.name) for alias in node.names if alias.asname)
    loads: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exported
        ):
            loads.add(node.value)
    return loads | {renamed[name] for name in loads & renamed.keys()}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_bytes(), str(path))


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


@pytest.fixture(scope="module")
def package() -> Dict[str, ast.Module]:
    """``{module: tree}`` for every module of ``src/repro``."""
    return {_module_name(path): _parse(path) for path in sorted((SRC / "repro").rglob("*.py"))}


@pytest.fixture(scope="module")
def production_loads() -> Set[str]:
    loads: Set[str] = set()
    for tree in PRODUCTION:
        for path in sorted((ROOT / tree).rglob("*.py")):
            loads |= loaded_names(_parse(path))
    return loads


def unused(package: Dict[str, ast.Module], loads: Set[str]) -> Set[str]:
    """The qualified names of the members whose bare name ``loads`` lacks."""
    return {
        qualified
        for module, tree in package.items()
        for qualified, name in definitions(module, tree)
        if name not in loads
    }


def report(package: Dict[str, ast.Module], loads: Set[str]) -> List[str]:
    """One line per member the census finds but :data:`STAYS` lacks, and the reverse."""
    found = unused(package, loads)
    lines = [f"{name}: nothing outside tests/ loads it" for name in sorted(found - STAYS.keys())]
    return lines + [
        f"{name}: listed in STAYS but has a caller or is gone"
        for name in sorted(STAYS.keys() - found)
    ]


def test_every_unused_member_is_one_that_stays(package, production_loads):
    assert all(reason for reason in STAYS.values())
    lines = report(package, production_loads)
    assert not lines, "\n".join(lines)


@pytest.mark.parametrize(
    "snippet, planted",
    [
        ("def planted_helper():\n    return 1", ["planted_helper"]),
        (
            "class Planted:\n    def planted_method(self):\n        pass",
            ["Planted", "Planted.planted_method"],
        ),
        ("PLANTED_CONSTANT = 3", ["PLANTED_CONSTANT"]),
        ("__all__ = ['planted_export']\ndef planted_export():\n    pass", ["planted_export"]),
    ],
    ids=["function", "method", "constant", "exported"],
)
def test_a_planted_member_fails_the_census(package, production_loads, snippet, planted):
    module = "repro.mac.dcf"
    source = (SRC / "repro/mac/dcf.py").read_text(encoding="utf-8")
    before = report(package, production_loads)
    after = report({**package, module: ast.parse(source + "\n" + snippet)}, production_loads)
    assert [line for line in after if line not in before] == [
        f"{module}.{name}: nothing outside tests/ loads it" for name in planted
    ]


@pytest.mark.parametrize(
    "source",
    [
        "helper()",
        "obj.helper",
        "getattr(obj, 'helper')",
        "from repro.x import helper as renamed\nrenamed()",
    ],
    ids=["call", "attribute", "getattr", "renamed-import"],
)
def test_a_load_counts(source):
    assert "helper" in loaded_names(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    ["from repro.x import helper", "__all__ = ['helper']", "obj.helper = 1", "def helper(): pass"],
    ids=["import", "all", "store", "definition"],
)
def test_a_mention_that_is_not_a_load_does_not_count(source):
    assert "helper" not in loaded_names(ast.parse(source))
