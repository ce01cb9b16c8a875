"""Does every claim of the FIGURES table hold at its quorum of ten seeds?

    PYTHONPATH=src python .github/scripts/claims.py

Checks each claim of ``repro.experiments.figures.FIGURES`` at the
``CLAIM_SEEDS`` seeds from its own seed up, as one sweep with a worker
process per CPU, so a cell that claims share simulates once.  Prints one
line per claim (the seeds it held at, its quorum and the seeds where it
failed) and exits 1 when any claim held at fewer seeds than its quorum.
"""

import sys


def main():
    from repro.experiments.figures import CLAIM_SEEDS, CLAIMS, evaluate
    from repro.experiments.parallel import SweepRunner

    verdicts = evaluate(list(CLAIMS), SweepRunner(jobs=0), seeds=CLAIM_SEEDS)
    short = 0
    for claim_id, held in verdicts.items():
        claim = CLAIMS[claim_id][1]
        failed = [claim.seed + offset for offset, ok in enumerate(held) if not ok]
        verdict = "ok" if sum(held) >= claim.quorum else "SHORT"
        short += verdict == "SHORT"
        print(
            f"{verdict:<5} {claim_id}: held at {sum(held)}/{CLAIM_SEEDS} seeds, "
            f"quorum {claim.quorum}, failed at {failed or 'none'}"
        )
    print(f"{len(verdicts) - short} of {len(verdicts)} claims met their quorum")
    return 1 if short else 0


if __name__ == "__main__":
    sys.exit(main())
