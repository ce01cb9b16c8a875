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

from typing import List, Tuple

from repro.spec import ScenarioConfig

#: Default sample size of the experiment family (smaller than the CLI
#: gate's: these runs are long enough to produce meaningful throughput).
CORPUS_SAMPLE = 12

#: Default simulated duration per sampled scenario.
CORPUS_DURATION_S = 0.05


def corpus_grid(
    seed: int = 0, sample: int = CORPUS_SAMPLE, duration_s: float = CORPUS_DURATION_S
) -> Tuple[List[ScenarioConfig], List[str]]:
    """``sample`` seed-determined corpus scenarios, keyed by their one-line labels."""
    from repro.corpus.space import default_space

    space = default_space(duration_s=duration_s)
    combos = space.sample(sample, sample_seed=seed)
    configs = [ScenarioConfig.from_dict(space.document_for(combo)) for combo in combos]
    return configs, [space.describe(combo) for combo in combos]
