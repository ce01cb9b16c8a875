"""Predetermined (operator-specified) routes — the paper's PRR / ROUTE0/1/2.

Table II of the paper lists explicit paths per flow (e.g. flow 1 under
ROUTE0 follows 0 → 1 → 2 → 3).  :class:`StaticRouting` stores such paths
and answers next-hop / forwarder-list queries from any node *on* the
path.  Reverse paths (needed by TCP ACKs and RIPPLE's two-way operation)
are derived automatically unless explicitly overridden.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.routing.base import RouteNotFound, RoutingProtocol


class StaticRouting(RoutingProtocol):
    """Routing from an explicit table of end-to-end paths."""

    def __init__(
        self,
        paths: Mapping[Tuple[int, int], Sequence[int]],
        max_forwarders: int = 5,
        add_reverse: bool = True,
    ) -> None:
        super().__init__()
        self.max_forwarders = max_forwarders
        self._paths: Dict[Tuple[int, int], List[int]] = {}
        for (src, dst), route in paths.items():
            route = list(route)
            self._validate(src, dst, route)
            self._paths[(src, dst)] = route
        if add_reverse:
            for (src, dst), route in list(self._paths.items()):
                reverse_key = (dst, src)
                if reverse_key not in self._paths:
                    self._paths[reverse_key] = list(reversed(route))

    @staticmethod
    def _validate(src: int, dst: int, route: List[int]) -> None:
        if len(route) < 2:
            raise ValueError(f"path for ({src}, {dst}) must have at least two nodes")
        if route[0] != src or route[-1] != dst:
            raise ValueError(
                f"path for ({src}, {dst}) must start at {src} and end at {dst}, got {route}"
            )
        if len(set(route)) != len(route):
            raise ValueError(f"path for ({src}, {dst}) revisits a node: {route}")

    # ------------------------------------------------------------------
    # RoutingProtocol interface
    # ------------------------------------------------------------------
    def path(self, src: int, dst: int) -> List[int]:
        route = self._paths.get((src, dst))
        if route is not None:
            return list(route)
        # A node in the middle of a stored path can still forward along it.
        for (stored_src, stored_dst), stored in self._paths.items():
            if stored_dst == dst and src in stored:
                index = stored.index(src)
                return list(stored[index:])
        raise RouteNotFound(f"no static route from {src} to {dst}")

    def pairs(self) -> Iterable[Tuple[int, int]]:
        """All (src, dst) pairs with an explicit (non-derived) path."""
        return list(self._paths.keys())
