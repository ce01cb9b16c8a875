"""Experiment harness: one module per table/figure of the paper's evaluation.

==========  ==========================================  ==============================
Paper item  Module / entry point                        What it reports
==========  ==========================================  ==============================
Section II  :func:`repro.experiments.motivation.run_motivation`    SPR vs preExOR vs MCExOR throughput + re-ordering
Fig. 3      :func:`repro.experiments.longlived.run_fig3`           long-lived TCP, BER 1e-6, ROUTE0/1/2
Fig. 4      :func:`repro.experiments.longlived.run_fig4`           long-lived TCP, BER 1e-5
Fig. 6(a)   :func:`repro.experiments.collisions.run_regular_collisions`  regular collisions
Fig. 6(b)   :func:`repro.experiments.collisions.run_hidden_collisions`   hidden collisions
Fig. 7      :func:`repro.experiments.hops.run_hops`                 2-7 hop line, +/- cross traffic
Fig. 8      :func:`repro.experiments.web.run_web_traffic`           short web transfers
Table III   :func:`repro.experiments.voip.run_table3`               VoIP MoS
Fig. 10     :func:`repro.experiments.wigle.run_wigle`               Wigle topology
Fig. 12     :func:`repro.experiments.roofnet.run_roofnet`           Roofnet topology
(extra)     :mod:`repro.experiments.ablation`                       aggregation / forwarder ablations
(extra)     :mod:`repro.experiments.mobility`                       scheme x node-speed sweeps (TCP, VoIP MoS)
==========  ==========================================  ==============================

Each experiment expresses its work as a declarative grid of
:class:`ScenarioConfig` objects and routes it through
:class:`~repro.experiments.parallel.SweepRunner` (multiprocessing fan-out
plus an on-disk result cache keyed by a content hash of the config; see
:mod:`repro.experiments.parallel`).  ``python -m repro.experiments`` lists
and runs any figure/table from the command line with ``--jobs``,
``--seeds`` and ``--no-cache`` flags.
"""

from repro.experiments.grids import Axis, scenario_grid, topology_axis
from repro.experiments.parallel import (
    CACHE_SCHEMA_VERSION,
    CacheMissError,
    CacheOnlySweepRunner,
    ResultCache,
    SweepRunner,
    config_digest,
    expand_grid,
)
from repro.experiments.runner import ScenarioResult, build_network, run_scenario, sweep_schemes
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
    "expand_grid",
    "expand_scheme_label",
    "run_scenario",
    "scenario_grid",
    "sweep_schemes",
    "topology_axis",
]
