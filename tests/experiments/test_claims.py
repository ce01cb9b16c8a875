"""Every claim of the FIGURES table holds at its own seed, one test each.

The selected claims' cells run once per session, as one sweep with a
worker process per CPU, so a cell that two claims read simulates once.
CI's ``claims`` job (``.github/scripts/claims.py``) checks the same claims
at ten seeds against their quorums.
"""

import pytest

from repro.experiments.figures import CLAIM_SEEDS, CLAIMS, FIGURES, evaluate
from repro.experiments.parallel import SweepRunner


@pytest.fixture(scope="session")
def verdicts(request):
    """Each selected claim's verdict at its seed, from one sweep of their cells."""
    selected = [
        item.callspec.params["claim_id"]
        for item in request.session.items
        if getattr(item, "originalname", None) == "test_claim_holds"
    ]
    return evaluate(selected, SweepRunner(jobs=0))


@pytest.mark.parametrize("claim_id", list(CLAIMS))
def test_claim_holds(verdicts, claim_id):
    assert verdicts[claim_id] == [True]


def test_claim_ids_are_unique_and_quorums_reachable():
    assert len(CLAIMS) == sum(len(figure.claims) for figure in FIGURES.values())
    assert all(0 < claim.quorum <= CLAIM_SEEDS for _figure, claim in CLAIMS.values())
