"""Scheduling mobility into the discrete-event loop.

The :class:`MobilityManager` is the bridge between a pure
:class:`~repro.mobility.models.MobilityModel` and the running simulation:
every ``update_interval_ns`` it advances the model for each mobile node,
moves the node's radio (so the channel computes path loss from *current*
positions and drops any cached per-pair geometry), and every
``reestimate_interval_ns`` it fires the registered re-estimation
callbacks — the hook the network layer uses to rebuild the ETX
connectivity graph and refresh routes/forwarder lists mid-run.

Two properties the rest of the system relies on:

* **Static short-circuit** — a model whose ``is_static`` is true causes
  the manager to schedule *nothing*.  The event sequence (and therefore
  ``Simulator.processed_events`` and every tie-break) is bit-identical
  to a run without mobility.
* **Bounded work** — the position tick and each re-estimation re-arm
  themselves one at a time, so a manager keeps at most one pending event
  per cadence.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.mobility.models import MobilityModel, Position
from repro.sim.engine import Simulator
from repro.sim.units import ns_to_seconds


class MobilityManager:
    """Drives a mobility model from the simulator's event loop."""

    def __init__(
        self,
        sim: Simulator,
        model: MobilityModel,
        rng: np.random.Generator,
        update_interval_ns: int,
        move_node: Callable[[int, Position], None],
        mobile_nodes: Optional[Iterable[int]] = None,
    ) -> None:
        if update_interval_ns <= 0:
            raise ValueError("update_interval_ns must be positive")
        self.sim = sim
        self.model = model
        self.rng = rng
        self.update_interval_ns = int(update_interval_ns)
        self._move_node = move_node
        self._mobile_filter: Optional[Set[int]] = (
            None if mobile_nodes is None else {int(n) for n in mobile_nodes}
        )
        self._node_ids: List[int] = []
        #: (interval_ns, callback) per registration; each fires on its own cadence.
        self._reestimations: List[Tuple[int, Callable[[], None]]] = []
        self._last_advance_ns: int = 0
        self.updates: int = 0
        self.reestimations: int = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_reestimation(self, interval_ns: int, callback: Callable[[], None]) -> None:
        """Register a periodic link re-estimation callback (e.g. ETX rebuild).

        Each registration keeps its own cadence; callbacks always observe
        positions advanced to the callback's own timestamp.
        """
        if interval_ns <= 0:
            raise ValueError("reestimate interval must be positive")
        self._reestimations.append((int(interval_ns), callback))

    def start(self, positions: Mapping[int, Position]) -> None:
        """Install the initial placement and begin ticking (unless static)."""
        ordered = {node_id: positions[node_id] for node_id in sorted(positions)}
        self.model.setup(ordered, self.rng)
        self._node_ids = [
            node_id
            for node_id in sorted(ordered)
            if self._mobile_filter is None or node_id in self._mobile_filter
        ]
        if self.model.is_static or not self._node_ids:
            # Bit-identical static runs: a static model — or a mobile-node
            # filter that matches nothing — schedules no events.
            return
        self._last_advance_ns = self.sim.now
        self.sim.schedule(self.update_interval_ns, self._tick)
        for index, (interval_ns, _callback) in enumerate(self._reestimations):
            self.sim.schedule(interval_ns, self._reestimate, index)

    # ------------------------------------------------------------------
    # Event-loop callbacks
    # ------------------------------------------------------------------
    def _advance_positions(self) -> None:
        """Advance every mobile node to the current simulation time.

        Shared by ticks and re-estimations: a re-estimation that fires at
        the same timestamp as (but before) a position tick must not read
        one-interval-stale geometry, so whichever event runs first does the
        advancing and the other sees ``dt == 0`` and leaves state alone.
        """
        now_ns = self.sim.now
        if now_ns <= self._last_advance_ns:
            return
        dt_s = ns_to_seconds(now_ns - self._last_advance_ns)
        now_s = ns_to_seconds(now_ns)
        self._last_advance_ns = now_ns
        for node_id in self._node_ids:
            before = self.model.position(node_id)
            after = self.model.advance(node_id, now_s, dt_s, self.rng)
            if after != before:
                self._move_node(node_id, after)

    def _tick(self) -> None:
        self._advance_positions()
        self.updates += 1
        self.sim.schedule(self.update_interval_ns, self._tick)

    def _reestimate(self, index: int) -> None:
        self._advance_positions()
        self.reestimations += 1
        interval_ns, callback = self._reestimations[index]
        callback()
        self.sim.schedule(interval_ns, self._reestimate, index)
