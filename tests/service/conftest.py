"""Shared fixtures for the simulation-service suite (store, cache, tiny scenarios)."""

import pytest

from repro.experiments.parallel import ResultCache
from repro.experiments.runner import ScenarioConfig
from repro.service.store import JobStore
from repro.topology.standard import fig1_topology

#: The smallest useful ScenarioConfig document — what an HTTP client POSTs.
SMALL_SPEC = {
    "topology": {"name": "line", "params": {"n_hops": 2}},
    "duration_s": 0.05,
}


def make_small_config(**overrides) -> ScenarioConfig:
    """The same tiny scenario the sweep-runner tests use."""
    defaults = dict(
        topology=fig1_topology(),
        scheme_label="D",
        active_flows=[1],
        duration_s=0.05,
        seed=2,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


@pytest.fixture
def small_config():
    """Factory fixture: ``small_config(seed=3)`` -> tiny ScenarioConfig."""
    return make_small_config


@pytest.fixture
def small_spec():
    return dict(SMALL_SPEC)


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "service")


@pytest.fixture
def cache(store):
    return ResultCache(store.cache_dir)
