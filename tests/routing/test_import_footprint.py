"""What a process of the package loads: no networkx, no HTTP stack, no process pool.

Routes come from :mod:`repro.routing.graph`; networkx is only the tests'
oracle.  The service's HTTP client and server and the sweep's process
pool are imported where they are used, so a process that runs scenarios,
serial sweeps and in-process service round trips loads none of
``urllib.request``, ``http.client``, ``http.server``, ``ssl``, ``email``
or ``multiprocessing``.  A fresh interpreter imports
every entry point, runs a Roofnet scenario, a mobile scenario whose
routes are re-estimated mid-run, a serial sweep and a service round
trip, and reports what it loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Standard-library modules only HTTP or a process pool need.
UNUSED_STDLIB = ("email", "http.client", "http.server", "multiprocessing", "ssl", "urllib.request")

SCRIPT = """
import dataclasses
import json
import sys
import tempfile

import repro
import repro.corpus
import repro.experiments
import repro.experiments.__main__
import repro.service
import repro.service.__main__
import repro.service.app
import repro.service.worker
from repro.experiments.mobility import mobility_voip_grid
from repro.experiments.parallel import ResultCache, SweepRunner
from repro.experiments.runner import build_network, run_scenario
from repro.routing.dynamic import AdaptiveEtxRouting
from repro.service.app import SimulationService
from repro.service.store import JobStore
from repro.service.worker import Worker
from repro.spec import MacSpec, ScenarioConfig, TopologyRef

roofnet = ScenarioConfig(
    topology=TopologyRef("roofnet"), mac=MacSpec("dcf"), phy="low_rate",
    duration_s=0.05, seed=1,
)
run_scenario(roofnet)
(mobile,), _keys = mobility_voip_grid((10.0,), ("R16",), 10, 0.05, 1)
mobile = dataclasses.replace(
    mobile, mobility=dataclasses.replace(mobile.mobility, reestimate_interval_s=0.01)
)
run_scenario(mobile)
network, routing = build_network(mobile)
network.run_seconds(0.05)
assert isinstance(routing, AdaptiveEtxRouting), type(routing)
assert routing.updates > 0, routing.updates
with tempfile.TemporaryDirectory() as root:
    cache = ResultCache(root + "/cache")
    SweepRunner(jobs=1, cache=cache).run([dataclasses.replace(roofnet, seed=2)])
    store = JobStore(root + "/store")
    service = SimulationService(store, cache)
    body = json.dumps({"spec": dataclasses.replace(roofnet, seed=3).to_dict()}).encode()
    status, job = service.route("POST", "/jobs", body)
    assert status == 202, job
    Worker(store, cache=cache).run_once()
    status, job = service.route("GET", "/jobs/" + job["job_id"])
    assert job["state"] == "done", job
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def loaded():
    """The names in ``sys.modules`` when the script above ends."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_no_entry_point_or_run_imports_networkx(loaded):
    assert [name for name in loaded if name.split(".")[0] == "networkx"] == []


def test_no_entry_point_or_run_loads_http_or_a_process_pool(loaded):
    assert [
        name for name in loaded
        if any(name == module or name.startswith(module + ".") for module in UNUSED_STDLIB)
    ] == []
