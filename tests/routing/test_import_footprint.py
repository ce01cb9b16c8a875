"""No process of the package imports networkx.

Routes come from :mod:`repro.routing.graph`; networkx is only the tests'
oracle.  A fresh interpreter imports every entry point, runs a Roofnet
scenario and a mobile scenario whose routes are re-estimated mid-run,
and must end without networkx in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import dataclasses
import sys

import repro
import repro.analysis
import repro.corpus
import repro.experiments
import repro.experiments.__main__
import repro.service.app
import repro.service.worker
from repro.experiments.mobility import mobility_voip_grid
from repro.experiments.runner import build_network, run_scenario
from repro.routing.dynamic import AdaptiveEtxRouting
from repro.spec import MacSpec, ScenarioConfig, TopologyRef

run_scenario(
    ScenarioConfig(
        topology=TopologyRef("roofnet"), mac=MacSpec("dcf"), phy="low_rate",
        duration_s=0.05, seed=1,
    )
)
(mobile,), _keys = mobility_voip_grid((10.0,), ("R16",), 10, 0.05, 1)
mobile = dataclasses.replace(
    mobile, mobility=dataclasses.replace(mobile.mobility, reestimate_interval_s=0.01)
)
run_scenario(mobile)
network, routing = build_network(mobile)
network.run_seconds(0.05)
assert isinstance(routing, AdaptiveEtxRouting), type(routing)
assert routing.updates > 0, routing.updates
print(sorted(name for name in sys.modules if name.split(".")[0] == "networkx"))
"""


def test_no_entry_point_or_run_imports_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().splitlines()[-1] == "[]"
