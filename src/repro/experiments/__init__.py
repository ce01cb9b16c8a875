"""Experiment harness: the paper's figures and tables as one table of data.

:data:`repro.experiments.figures.FIGURES` holds every runnable figure:
its grid of scenario configs, one reduction of the results to titled
tables, a title and the claims it supports.  Each entry's grid comes
from the module of its paper item:

============  ========================  ============================================
Paper item    ``FIGURES`` entries       Grid module: what it sweeps
============  ========================  ============================================
Section II    ``motivation``            ``motivation``: SPR vs preExOR vs MCExOR
Fig. 3, 4     ``fig3``, ``fig4``        ``longlived``: long-lived TCP, ROUTE0/1/2
Fig. 6        ``fig6a``, ``fig6b``      ``collisions``: regular / hidden collisions
Fig. 7        ``fig7a``, ``fig7b``      ``hops``: 2-7 hop line, -/+ cross traffic
Fig. 8        ``fig8``                  ``web``: short web transfers
Table III     ``table3``                ``voip``: VoIP MoS, both BER points
Fig. 10       ``fig10``                 ``wigle``: Wigle topology pairs
Fig. 12       ``fig12``                 ``roofnet``: Roofnet topology pairs
(extra)       ``ablation-*``            ``ablation``: aggregation / forwarder caps
(extra)       ``mobility-*``            ``mobility``: scheme x node speed (TCP, VoIP)
(extra)       ``fading``                ``fading``: scheme x propagation model
(extra)       ``congestion``            ``congestion``: transport x MAC
(extra)       ``corpus``                ``corpus``: a seeded corpus sample
============  ========================  ============================================

Every grid is expanded by :func:`~repro.experiments.grids.scenario_grid`
and run by :class:`~repro.experiments.parallel.SweepRunner` (serial or a
process pool, plus an on-disk result cache keyed by a content hash of the
config; see :mod:`repro.experiments.parallel`).  ``python -m
repro.experiments`` lists, runs and re-renders any entry from the command
line with ``--jobs``, ``--seeds`` and ``--no-cache`` flags.
"""

from repro.experiments.grids import Axis, scenario_grid, topology_axis
from repro.experiments.parallel import (
    CACHE_SCHEMA_VERSION,
    CacheMissError,
    CacheOnlySweepRunner,
    ResultCache,
    SweepRunner,
    config_digest,
)
from repro.experiments.runner import ScenarioResult, build_network, run_scenario
from repro.spec import (
    DEFAULT_SCHEME_LABELS,
    PAPER_SCHEMES,
    MacSpec,
    RoutingSpec,
    ScenarioConfig,
    TopologyRef,
    TrafficSpec,
    expand_scheme_label,
)

__all__ = [
    "Axis",
    "CACHE_SCHEMA_VERSION",
    "CacheMissError",
    "CacheOnlySweepRunner",
    "DEFAULT_SCHEME_LABELS",
    "MacSpec",
    "PAPER_SCHEMES",
    "ResultCache",
    "RoutingSpec",
    "ScenarioConfig",
    "ScenarioResult",
    "SweepRunner",
    "TopologyRef",
    "TrafficSpec",
    "build_network",
    "config_digest",
    "expand_scheme_label",
    "run_scenario",
    "scenario_grid",
    "topology_axis",
]
