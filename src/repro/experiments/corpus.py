"""The ``corpus`` experiment family: cached sweeps over sampled scenarios.

``python -m repro.corpus`` gates invariants; this family runs the *same*
seeded sample through the ordinary sweep runner and result cache, so the
corpus scenarios become reportable experiments like any figure:

::

    python -m repro.experiments run corpus --jobs 4
    python -m repro.experiments report corpus           # from cache only

The sample is addressed exactly like the gate's (``--seeds N`` maps to
sampling seeds 1..N), so a nightly ``run corpus`` populates the cache the
invariant gate's scenarios hash to — cross-checking that the corpus and
the experiment pipeline agree on what a scenario *is*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.parallel import SweepRunner
from repro.spec import ScenarioConfig

#: Default sample size of the experiment family (smaller than the CLI
#: gate's: these runs are long enough to produce meaningful throughput).
CORPUS_SAMPLE = 12

#: Default simulated duration per sampled scenario.
CORPUS_DURATION_S = 0.05


@dataclass(frozen=True)
class CorpusSweepResult:
    """Per-scenario headline numbers of one corpus sweep."""

    #: Stable one-line scenario labels, in sample order.
    labels: List[str]
    throughput_mbps: Dict[str, float]
    events: Dict[str, int]


def run_corpus(
    seed: int = 0,
    sample: int = CORPUS_SAMPLE,
    duration_s: float = CORPUS_DURATION_S,
    runner: Optional[SweepRunner] = None,
) -> CorpusSweepResult:
    """Run ``sample`` seed-determined corpus scenarios through ``runner``."""
    from repro.corpus.space import default_space

    if runner is None:
        runner = SweepRunner()
    space = default_space(duration_s=duration_s)
    combos = space.sample(sample, sample_seed=seed)
    labels = [space.describe(combo) for combo in combos]
    configs = [ScenarioConfig.from_dict(space.document_for(combo)) for combo in combos]
    results = runner.run(configs)
    throughput = {}
    events = {}
    for label, result in zip(labels, results):
        throughput[label] = result.total_throughput_mbps
        events[label] = result.events_processed
    return CorpusSweepResult(labels=labels, throughput_mbps=throughput, events=events)
