"""``no-wall-clock``: simulated time never reads the host clock.

The engine's clock (:attr:`repro.sim.engine.Simulator.now`) is the only
notion of time the simulation may observe.  A ``time.time()`` /
``datetime.now()`` / ``perf_counter()`` call inside the simulation or
serialization path leaks the host's wall clock into behaviour or into
cache payloads, which breaks bit-identical replays (two runs of the same
seed diverge) and cache-soundness (identical configs hash differently).
Legitimately wall-clocked code is allowlisted *by module*, not by
pragma: the sweep runner (``repro/experiments/parallel.py``), and the
service layer's single clock shim (``repro/service/clock.py``) through
which every lease expiry, heartbeat and poll deadline is read.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict

from repro.analysis.base import Checker, ModuleContext, SourceRule, dotted_name, register_rule

#: Dotted attribute chains that read the host clock.  Matched on the
#: attribute *reference* (not just calls) so ``clock = time.perf_counter``
#: aliasing is caught too.
_BANNED_ATTRIBUTES = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
)

#: ``datetime``/``date`` constructors of "now"; matched as the final
#: attribute with a datetime-ish chain (``datetime.now``,
#: ``datetime.datetime.utcnow``, ``date.today``).
_BANNED_NOW_TAILS = {"now", "utcnow", "today"}

#: Names that, imported from ``time``/``datetime``, read the host clock.
_BANNED_TIME_IMPORTS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
}


@register_rule
class NoWallClock(SourceRule):
    """Host-clock reads are banned outside the sweep runner and the service clock.

    Flags references to ``time.time``/``monotonic``/``perf_counter`` (and
    their ``_ns`` variants), ``datetime.now``/``utcnow``/``date.today``,
    and ``from time import perf_counter``-style imports anywhere in
    ``src/repro`` except the sweep runner (``experiments/parallel.py``),
    which may time the work it fans out, and ``service/clock.py`` — the
    simulation service's one window onto operational time (job leases,
    heartbeats, retry backoff).  The rest of the service package must
    route clock reads through that shim, and simulation code must derive
    every timestamp from ``Simulator.now``.
    """

    id = "no-wall-clock"
    title = "host-clock read inside the simulation/serialization path"
    allow_modules = (
        "repro/experiments/parallel.py",
        "repro/service/clock.py",
    )

    def checker(self, ctx: ModuleContext) -> "_WallClockChecker":
        return _WallClockChecker(self, ctx)


class _WallClockChecker(Checker):
    def handlers(self) -> Dict[type, Callable[[ast.AST], None]]:
        return {ast.Attribute: self._attribute, ast.ImportFrom: self._import_from}

    def _attribute(self, node: ast.Attribute) -> None:
        name = dotted_name(node)
        if not name:
            return
        if any(name == banned or name.endswith("." + banned) for banned in _BANNED_ATTRIBUTES):
            self.emit(
                node,
                f"{name} reads the host clock; simulation code must use "
                "Simulator.now (wall-clock timing belongs in the sweep runner, "
                "repro.experiments.parallel)",
            )
            return
        head, _, tail = name.rpartition(".")
        if tail in _BANNED_NOW_TAILS and ("datetime" in head.split(".") or "date" in head.split(".")):
            self.emit(
                node,
                f"{name} reads the host clock; simulation code must use "
                "Simulator.now (wall-clock timing belongs in the sweep runner, "
                "repro.experiments.parallel)",
            )

    def _import_from(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            banned = sorted(
                alias.name for alias in node.names if alias.name in _BANNED_TIME_IMPORTS
            )
            if banned:
                self.emit(
                    node,
                    f"importing {', '.join(banned)} from time makes host-clock "
                    "reads ambient; simulation code must use Simulator.now",
                )
        elif node.module == "datetime":
            # ``from datetime import datetime`` is fine by itself; the
            # attribute handler catches ``datetime.now`` at the use site.
            return
