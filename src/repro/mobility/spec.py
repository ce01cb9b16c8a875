"""Serializable mobility configuration for scenarios.

:class:`MobilitySpec` is the declarative description of a scenario's
mobility — model name, model parameters, tick/re-estimation cadence —
that rides inside :class:`~repro.spec.ScenarioConfig`.  It round-trips losslessly
through ``to_dict``/``from_dict`` (the sweep cache hashes that dict), and
:meth:`build_model` turns it into a live
:class:`~repro.mobility.models.MobilityModel` at network-build time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mobility.models import MOBILITY_MODELS, Bounds, MobilityModel
from repro.serialization import Wire


@dataclass
class MobilitySpec(Wire):
    """Everything needed to reconstruct a scenario's mobility, JSON-safely."""

    model: str = "static"
    #: How often node positions are advanced (simulated seconds).
    update_interval_s: float = 0.05
    #: How often the ETX graph / routes are re-estimated; 0 disables.
    reestimate_interval_s: float = 0.25
    #: Node ids allowed to move; None means every node.
    mobile_nodes: Optional[List[int]] = None
    #: Model-specific parameters (see each model's constructor).
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.model not in MOBILITY_MODELS:
            raise ValueError(
                f"unknown mobility model {self.model!r}; known: {MOBILITY_MODELS.names()}"
            )
        if self.update_interval_s <= 0:
            raise ValueError("update_interval_s must be positive")
        if self.reestimate_interval_s < 0:
            raise ValueError("reestimate_interval_s must be >= 0")
        # Canonical forms, so equal specs serialize (and digest) alike.
        if self.mobile_nodes is not None:
            self.mobile_nodes = sorted(int(n) for n in self.mobile_nodes)
        self.params = _canonical_params(self.params)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def random_waypoint(
        cls,
        speed_mps: float,
        speed_min_mps: Optional[float] = None,
        pause_s: float = 0.0,
        bounds: Optional[Bounds] = None,
        **kwargs,
    ) -> "MobilitySpec":
        """Random-waypoint spec at (up to) ``speed_mps`` m/s."""
        params: Dict[str, object] = {
            "speed_min_mps": float(speed_mps if speed_min_mps is None else speed_min_mps),
            "speed_max_mps": float(speed_mps),
            "pause_s": float(pause_s),
        }
        if bounds is not None:
            params["bounds"] = [float(v) for v in bounds]
        return cls(model="random_waypoint", params=params, **kwargs)

    @classmethod
    def gauss_markov(
        cls,
        mean_speed_mps: float,
        alpha: float = 0.85,
        speed_std_mps: float = 0.3,
        heading_std_rad: float = 0.5,
        bounds: Optional[Bounds] = None,
        **kwargs,
    ) -> "MobilitySpec":
        params: Dict[str, object] = {
            "mean_speed_mps": float(mean_speed_mps),
            "alpha": float(alpha),
            "speed_std_mps": float(speed_std_mps),
            "heading_std_rad": float(heading_std_rad),
        }
        if bounds is not None:
            params["bounds"] = [float(v) for v in bounds]
        return cls(model="gauss_markov", params=params, **kwargs)

    @classmethod
    def trace(
        cls, traces: Dict[int, List[Tuple[float, float, float]]], **kwargs
    ) -> "MobilitySpec":
        """Spec replaying explicit ``{node_id: [(t_s, x, y), ...]}`` samples."""
        params = {
            "traces": {
                str(node_id): [[float(t), float(x), float(y)] for t, x, y in samples]
                for node_id, samples in traces.items()
            }
        }
        return cls(model="trace", params=params, **kwargs)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    @property
    def is_static(self) -> bool:
        """Whether this spec can never move a node (implies zero sim impact).

        Derived from the spec fields alone — mirroring each model's
        ``is_static`` — so reading the property neither constructs a model
        nor re-parses trace samples (``build_network`` consults it for
        every grid point of a sweep).
        """
        if self.model == "static":
            return True
        if self.mobile_nodes is not None and not self.mobile_nodes:
            return True  # an explicitly empty allow-list pins every node
        if self.model == "random_waypoint":
            return float(self.params.get("speed_max_mps", 1.0)) <= 0.0
        if self.model == "gauss_markov":
            return (
                float(self.params.get("mean_speed_mps", 1.0)) <= 0.0
                and float(self.params.get("speed_std_mps", 0.3)) <= 0.0
            )
        return not self.params.get("traces")  # "trace"

    def build_model(self) -> MobilityModel:
        """Instantiate the configured model through the registry.

        The registered builder validates the model-specific parameters
        (unknown keys raise a ValueError naming the model).
        """
        params = dict(self.params)
        bounds = params.pop("bounds", None)
        if bounds is not None:
            bounds = tuple(float(v) for v in bounds)
        builder = MOBILITY_MODELS.lookup(self.model)
        return builder(params, bounds)


def _canonical_params(params: Dict[str, object]) -> Dict[str, object]:
    """Normalise parameter values so equal specs serialize identically."""
    canonical: Dict[str, object] = {}
    for key in sorted(params):
        value = params[key]
        if key == "traces":
            canonical[key] = {
                str(node_id): [[float(t), float(x), float(y)] for t, x, y in samples]
                for node_id, samples in sorted(value.items(), key=lambda item: int(item[0]))
            }
        elif key == "bounds":
            canonical[key] = [float(v) for v in value]
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            canonical[key] = float(value)
        else:
            canonical[key] = value
    return canonical
