"""The source rules: four ``ast`` checks over every module of ``src/repro``.

Every run is bit-identical for its seed, which is what lets RIPPLE, DCF
and AFR be compared run for run.  Four habits would quietly break that,
or erode the event loop, and a run need not show it:

* ``no-unkeyed-rng``: a draw that bypasses
  ``RandomStreams.stream_for(name, *keys)`` (stdlib ``random``, numpy's
  process-global generator, a privately seeded ``default_rng``) depends
  on process state or on a seed outside the scenario's root seed.
* ``no-wall-clock``: a host-clock read (``time.time``, ``perf_counter``,
  ``datetime.now`` ...) leaks wall time into behaviour or into cache
  payloads.  Simulated time is ``Simulator.now``; the service reads its
  operational time (leases, heartbeats, poll deadlines) through
  ``repro.service.clock``.
* ``no-unordered-set-iteration``: a set iterates in hash order, which
  for strings is salted per process, so same-seed runs could reorder
  callbacks, draws or route choices.  Membership tests are fine.
* ``slots-on-hot-path``: a class without ``__slots__`` in a module the
  event loop allocates from per event, reception, frame, packet or ACK
  brings back a per-instance ``__dict__``.

Each rule is a function from a parsed module to ``(line, message)``
findings.  :data:`ALLOWED` names the only modules where a rule may find
anything, and exactly how many findings it must find there, so an
allowance covers what it was written for and fails once it covers
something else or nothing.

The fixtures under ``fixtures/<rule>/`` pin each rule's verdicts.  A
fixture's ``# fixture-module:`` header names the module the snippet
pretends to be; ``bad_*`` snippets must produce a finding and ``good_*``
ones none.  :data:`PLANTED` appends one violation of each rule to a real
module the rule must cover, and each allowance must fail both with its
findings commented out and with one more planted.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURES = Path(__file__).parent / "fixtures"

Finding = Tuple[int, str]


def dotted_name(node: ast.AST) -> str:
    """The dotted form of a Name/Attribute chain (``np.random.default_rng``).

    Any other link (a call, a subscript) leaves the head empty, so the
    name can only fail to match what the rules look for.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.append(node.id if isinstance(node, ast.Name) else "")
    return ".".join(reversed(parts))


def _ends_with(name: str, suffixes) -> bool:
    return any(name == suffix or name.endswith("." + suffix) for suffix in suffixes)


# -- no-unkeyed-rng ----------------------------------------------------------

#: Names that, imported from ``numpy.random``, build generators.
_RNG_IMPORTS = {"default_rng", "Generator", "RandomState", "seed"}
#: Calls that build a generator outside the keyed streams, matched as suffixes
#: so both ``np.random.default_rng`` and ``numpy.random.default_rng`` hit.
_RNG_CONSTRUCTORS = tuple(f"random.{name}" for name in sorted(_RNG_IMPORTS))
_USE_STREAMS = "draw from RandomStreams.stream_for(name, *keys) instead"
_STDLIB_RANDOM = f"stdlib 'random' is process-global state; {_USE_STREAMS}"


def unkeyed_rng(tree: ast.Module) -> Iterator[Finding]:
    """Randomness that does not derive from the scenario seed through ``RandomStreams``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield node.lineno, _STDLIB_RANDOM
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield node.lineno, _STDLIB_RANDOM
            elif node.module in ("numpy.random", "np.random"):
                banned = sorted(alias.name for alias in node.names if alias.name in _RNG_IMPORTS)
                if banned:
                    yield node.lineno, (
                        f"importing {', '.join(banned)} from numpy.random builds unkeyed "
                        f"generators; {_USE_STREAMS}"
                    )
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if _ends_with(name, _RNG_CONSTRUCTORS):
                yield node.lineno, (
                    f"{name}(...) builds a generator outside the keyed streams, so its draws "
                    f"do not depend only on (seed, name, keys); {_USE_STREAMS}"
                )
            elif name.startswith(("np.random.", "numpy.random.")):
                yield node.lineno, (
                    f"{name}(...) draws from numpy's process-global generator; {_USE_STREAMS}"
                )
            elif name.startswith("random."):
                yield node.lineno, f"{name}(...) uses the process-global stdlib RNG; {_USE_STREAMS}"


# -- no-wall-clock -----------------------------------------------------------

#: ``time`` functions that read the host clock.  References are flagged,
#: not only calls, so ``clock = time.perf_counter`` is caught too.
_CLOCK_FUNCTIONS = (
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
)
_CLOCK_ATTRIBUTES = tuple(f"time.{function}" for function in _CLOCK_FUNCTIONS)
#: ``datetime``/``date`` attributes that read "now".
_NOW = {"now", "utcnow", "today"}
_USE_CLOCKS = (
    "simulated time is Simulator.now, and the service reads operational time "
    "through repro.service.clock"
)


def wall_clock(tree: ast.Module) -> Iterator[Finding]:
    """Host-clock reads: ``time.*`` clocks, ``datetime.now``/``utcnow``, ``date.today``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = dotted_name(node)
            head, _, tail = name.rpartition(".")
            if _ends_with(name, _CLOCK_ATTRIBUTES) or (
                tail in _NOW and {"datetime", "date"} & set(head.split("."))
            ):
                yield node.lineno, f"{name} reads the host clock; {_USE_CLOCKS}"
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            banned = sorted(alias.name for alias in node.names if alias.name in _CLOCK_FUNCTIONS)
            if banned:
                yield node.lineno, (
                    f"importing {', '.join(banned)} from time makes host-clock reads "
                    f"ambient; {_USE_CLOCKS}"
                )


# -- no-unordered-set-iteration ----------------------------------------------

#: Methods that return a set when called on one.
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference", "copy"}
_SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.Sub)
_SET_ANNOTATIONS = {"set", "Set", "frozenset", "FrozenSet", "MutableSet"}
#: Calls through which a set's iteration order escapes into a sequence.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter"}
_SORT_IT = (
    "iterates a set in hash order, which is salted per process; iterate "
    "sorted(...) or an insertion-ordered container"
)


def _is_set_display(node: ast.AST) -> bool:
    """Whether ``node`` is syntactically a set right where it stands."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node.func, ast.Attribute) and node.func.attr in _SET_METHODS:
            # ``x.copy()`` is a set only when ``x`` visibly is one.
            return _is_set_display(node.func.value)
    return False


def _annotation_is_set(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Subscript):
        return _annotation_is_set(annotation.value)
    if isinstance(annotation, ast.Name):
        return annotation.id in _SET_ANNOTATIONS
    return isinstance(annotation, ast.Attribute) and annotation.attr in _SET_ANNOTATIONS


def _binding_name(node: ast.AST) -> Optional[str]:
    """``x`` for a name, ``self.x`` for an attribute of ``self``, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "self":
            return f"self.{node.attr}"
    return None


def _set_names(tree: ast.Module) -> Set[str]:
    """Names and ``self.x`` attributes the module binds or annotates as sets.

    A deliberately local inference: one binding to anything else, or an
    augmented assignment other than ``|=``, ``&=`` or ``-=``, removes the name.
    """
    sets: Set[str] = set()
    demoted: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            bindings = [(target, _is_set_display(node.value)) for target in node.targets]
        elif isinstance(node, ast.AnnAssign):
            annotated = _annotation_is_set(node.annotation)
            if not annotated and node.value is None:
                continue
            bindings = [(node.target, annotated or _is_set_display(node.value))]
        elif isinstance(node, ast.AugAssign) and not isinstance(node.op, _SET_OPERATORS):
            bindings = [(node.target, False)]
        else:
            continue
        for target, is_set in bindings:
            name = _binding_name(target)
            if name is not None:
                (sets if is_set else demoted).add(name)
    return sets - demoted


def _is_set(node: ast.AST, sets: Set[str]) -> bool:
    if _is_set_display(node):
        return True
    name = _binding_name(node)
    if name is not None:
        return name in sets
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in _SET_METHODS and _is_set(node.func.value, sets)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPERATORS):
        return _is_set(node.left, sets) or _is_set(node.right, sets)
    return False


def unordered_set_iteration(tree: ast.Module) -> Iterator[Finding]:
    """``for`` loops, comprehensions and ``list``/``tuple``/``enumerate``/``iter`` over sets."""
    sets = _set_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and _is_set(node.iter, sets):
            yield node.lineno, f"for loop {_SORT_IT}"
        elif isinstance(node, ast.comprehension) and _is_set(node.iter, sets):
            yield node.iter.lineno, f"comprehension {_SORT_IT}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_SENSITIVE_CALLS
            and node.args
            and _is_set(node.args[0], sets)
        ):
            yield node.lineno, f"{node.func.id}(...) {_SORT_IT}"


# -- slots-on-hot-path -------------------------------------------------------

#: The modules whose instances are allocated, or whose attributes are
#: read, per event, reception, decoded frame, packet or ACK.
HOT_PATH_MODULES = (
    "repro/sim/engine.py",
    "repro/sim/rng.py",
    "repro/phy/radio.py",
    "repro/phy/channel.py",
    "repro/phy/error_models.py",
    "repro/packet.py",
    "repro/mac/frames.py",
    "repro/transport/congestion.py",
    "repro/transport/host.py",
    "repro/transport/tcp.py",
    "repro/transport/udp.py",
)
#: Bases whose metaclasses manage storage (enums, exceptions, protocols ...).
_STORAGE_BASES = {
    "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag", "Exception", "BaseException",
    "Protocol", "ABC", "NamedTuple", "TypedDict",
}
_EXCEPTION_SUFFIXES = ("Error", "Exception", "Warning")


def _has_slots(node: ast.ClassDef) -> bool:
    """A ``__slots__`` assignment in the body, or ``@dataclass(slots=True)``."""
    for statement in node.body:
        targets = statement.targets if isinstance(statement, ast.Assign) else []
        if isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        if any(isinstance(target, ast.Name) and target.id == "__slots__" for target in targets):
            return True
    return any(
        isinstance(decorator, ast.Call)
        and dotted_name(decorator.func).endswith("dataclass")
        and any(
            keyword.arg == "slots"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in decorator.keywords
        )
        for decorator in node.decorator_list
    )


def _is_exempt(node: ast.ClassDef) -> bool:
    if node.name.endswith(_EXCEPTION_SUFFIXES):
        return True
    for base in node.bases:
        tail = dotted_name(base).rpartition(".")[2]
        if tail in _STORAGE_BASES or tail.endswith(_EXCEPTION_SUFFIXES):
            return True
    return False


def missing_slots(tree: ast.Module) -> Iterator[Finding]:
    """Classes declared without ``__slots__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and not _is_exempt(node) and not _has_slots(node):
            yield node.lineno, (
                f"class {node.name} in a hot-path module has no __slots__; declare one "
                "(or @dataclass(slots=True)) so instances stay dict-free"
            )


RULES = {
    "no-unkeyed-rng": unkeyed_rng,
    "no-wall-clock": wall_clock,
    "no-unordered-set-iteration": unordered_set_iteration,
    "slots-on-hot-path": missing_slots,
}

#: ``(module, rule): (count, reason)``: the only places a rule may find
#: anything, and exactly how many findings it must find there.
ALLOWED = {
    ("repro/sim/rng.py", "no-unkeyed-rng"): (
        2,
        "the keyed streams are built here, as np.random.Generator(np.random.Philox(...))",
    ),
    ("repro/topology/roofnet.py", "no-unkeyed-rng"): (
        1,
        "the layout draws from the topology's own seed, part of its identity, so the "
        "simulation seed stays free to vary per replication",
    ),
    ("repro/service/clock.py", "no-wall-clock"): (
        2,
        "the service's one window onto operational time: wall_s and monotonic_s",
    ),
}


def findings(rule: str, module: str, tree: ast.Module) -> List[Finding]:
    """``rule``'s findings in ``module``, a path such as ``repro/sim/engine.py``."""
    if rule == "slots-on-hot-path" and module not in HOT_PATH_MODULES:
        return []
    return sorted(RULES[rule](tree))


@pytest.fixture(scope="module")
def package():
    """``{module: tree}`` for every file under ``src/repro``."""
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_bytes(), str(path))
        for path in sorted((SRC / "repro").rglob("*.py"))
    }


def violations(rule: str, module: str, tree: ast.Module) -> List[str]:
    """The report lines for ``module`` when its findings differ from its allowance."""
    found = findings(rule, module, tree)
    count, _reason = ALLOWED.get((module, rule), (0, ""))
    if len(found) == count:
        return []
    return [f"src/{module}: {len(found)} findings, {count} allowed"] + [
        f"src/{module}:{line}: [{rule}] {message}" for line, message in found
    ]


@pytest.mark.parametrize("rule", sorted(RULES))
def test_package_keeps_the_rule(rule, package):
    report = []
    for module, tree in package.items():
        report.extend(violations(rule, module, tree))
    for module, allowed_rule in ALLOWED:
        if allowed_rule == rule and module not in package:
            report.append(f"ALLOWED names {module}, which does not exist")
    assert not report, "\n".join(report)


def test_every_hot_path_module_exists(package):
    """A renamed or deleted module would leave the slots rule covering nothing there."""
    assert [module for module in HOT_PATH_MODULES if module not in package] == []


#: One violation per rule and a real module the rule must cover.
PLANTED = {
    "no-unkeyed-rng": ("repro/mac/base.py", "jitter = np.random.default_rng(0)"),
    "no-wall-clock": ("repro/service/worker.py", "started = time.monotonic()"),
    "no-unordered-set-iteration": (
        "repro/core/ripple.py",
        "for relay in set(relays):\n    relay.wake()",
    ),
    "slots-on-hot-path": ("repro/phy/radio.py", "class Tap:\n    pass"),
}


def _source(module: str) -> str:
    return (SRC / module).read_text(encoding="utf-8")


@pytest.mark.parametrize("rule", sorted(PLANTED))
def test_a_planted_violation_fails_the_package(rule):
    module, snippet = PLANTED[rule]
    assert violations(rule, module, ast.parse(_source(module) + "\n" + snippet))


_ALLOWANCES = [
    pytest.param(module, rule, id=f"{module}-{rule}") for module, rule in sorted(ALLOWED)
]


@pytest.mark.parametrize("module, rule", _ALLOWANCES)
def test_an_allowance_fails_once_it_covers_nothing(module, rule, package):
    count, reason = ALLOWED[module, rule]
    assert count > 0 and reason
    lines = _source(module).splitlines()
    for line, _message in findings(rule, module, package[module]):
        lines[line - 1] = "# " + lines[line - 1]
    assert violations(rule, module, ast.parse("\n".join(lines)))


@pytest.mark.parametrize("module, rule", _ALLOWANCES)
def test_an_allowance_fails_once_it_covers_more(module, rule):
    _other_module, snippet = PLANTED[rule]
    assert violations(rule, module, ast.parse(_source(module) + "\n" + snippet))


def _fixture(path: Path) -> Tuple[str, ast.Module]:
    """The module a fixture pretends to be, and its parsed source."""
    source = path.read_text(encoding="utf-8")
    header, _, _ = source.partition("\n")
    assert header.startswith("# fixture-module:"), f"{path} has no fixture-module header"
    return header.partition(":")[2].strip(), ast.parse(source, str(path))


def test_every_rule_has_good_and_bad_fixtures():
    assert sorted(path.name for path in FIXTURES.iterdir() if path.is_dir()) == sorted(RULES)
    for rule in RULES:
        names = [path.name for path in (FIXTURES / rule).glob("*.py")]
        assert any(name.startswith("bad_") for name in names), rule
        assert any(name.startswith("good_") for name in names), rule


@pytest.mark.parametrize(
    "rule, path",
    [
        pytest.param(path.parent.name, path, id=f"{path.parent.name}/{path.stem}")
        for path in sorted(FIXTURES.glob("*/*.py"))
    ],
)
def test_fixture(rule, path):
    module, tree = _fixture(path)
    # An allowed module's count is held on the package, not on a snippet.
    found = [] if (module, rule) in ALLOWED else findings(rule, module, tree)
    if path.name.startswith("bad_"):
        assert found, f"{path.name} expected a finding, got none"
    else:
        assert found == [], found


@pytest.mark.parametrize("name", ["bad_time_time", "bad_datetime_now"])
def test_wall_clock_finding_names_the_two_clocks(name):
    module, tree = _fixture(FIXTURES / "no-wall-clock" / f"{name}.py")
    ((_line, message),) = findings("no-wall-clock", module, tree)
    assert "Simulator.now" in message
    assert "repro.service.clock" in message
