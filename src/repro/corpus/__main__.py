"""CLI for the scenario-corpus invariant gate.

::

    python -m repro.corpus                          # sample 16 specs, all checks
    python -m repro.corpus --sample 64 --seed 0     # the CI smoke configuration
    python -m repro.corpus --check determinism      # one invariant (repeatable)
    python -m repro.corpus --format json            # machine-readable findings
    python -m repro.corpus --list                   # check catalogue (one line each)
    python -m repro.corpus --write-golden PATH      # regenerate the digest pins

Exit status: 0 = clean, 1 = findings, 2 = usage error.  The full
catalogue, ``docs/CORPUS.md``, is written by ``python -m repro.docs``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.corpus import checks as checks_mod
from repro.corpus import space as space_mod

#: Schema version of the ``--format json`` document.
JSON_SCHEMA_VERSION = 1

#: Default sample size: small enough for a PR-lane smoke, large enough to
#: touch every layer most runs.
DEFAULT_SAMPLE = 16


def _list_checks(out) -> None:
    for check_id in checks_mod.known_check_ids():
        check = checks_mod.CORPUS_CHECKS.lookup(check_id)
        print(f"{check_id}: {check.title}", file=out)


def _render_text(findings, labels: List[str], checks: List[str], out) -> None:
    for finding in findings:
        print(finding.render(), file=out)
    noun = "finding" if len(findings) == 1 else "findings"
    print(
        f"{len(findings)} {noun} over {len(labels)} sampled specs x "
        f"{len(checks)} checks",
        file=out,
    )


def _render_json(findings, labels: List[str], args, checks: List[str], out) -> None:
    document = {
        "schema": JSON_SCHEMA_VERSION,
        "sample": args.sample,
        "seed": args.seed,
        "duration_s": args.duration,
        "checks": checks,
        "specs": labels,
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    json.dump(document, out, indent=2, sort_keys=True)
    out.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.corpus",
        description="Registry-driven scenario corpus: enumerate, check invariants, "
        "shrink failures.",
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=DEFAULT_SAMPLE,
        metavar="N",
        help=f"number of admissible specs to sample (default: {DEFAULT_SAMPLE})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="sampling seed; the same (seed, sample) names the same specs "
        "on every machine (default: 0)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=space_mod.DEFAULT_DURATION_S,
        metavar="SECONDS",
        help="simulated duration of each invariant run "
        f"(default: {space_mod.DEFAULT_DURATION_S})",
    )
    parser.add_argument(
        "--check",
        action="append",
        dest="checks",
        metavar="ID",
        help="run only this invariant check (repeatable; see --list)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw failing specs without delta-debugging them",
    )
    parser.add_argument(
        "--list", action="store_true", help="print the check catalogue and exit"
    )
    parser.add_argument(
        "--write-golden",
        default=None,
        metavar="PATH",
        help="(re)write the golden digest pin file and exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        _list_checks(sys.stdout)
        return 0

    if args.write_golden:
        from repro.corpus.golden import write_golden

        count = write_golden(args.write_golden)
        print(f"wrote {count} digest pins to {args.write_golden}")
        return 0

    known = checks_mod.known_check_ids()
    if args.checks:
        unknown = [check for check in args.checks if check not in known]
        if unknown:
            parser.error(f"unknown check id(s) {unknown}; known: {known}")
    selected = args.checks or known

    space = space_mod.default_space(duration_s=args.duration)
    combos = space.sample(args.sample, sample_seed=args.seed)
    labels = [space.describe(combo) for combo in combos]
    documents = [space.document_for(combo) for combo in combos]
    findings = checks_mod.evaluate(
        documents, selected, shrink_failures=not args.no_shrink
    )
    if args.format == "json":
        _render_json(findings, labels, args, selected, sys.stdout)
    else:
        _render_text(findings, labels, selected, sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
