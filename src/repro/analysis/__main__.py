"""CLI for the determinism & cache-soundness static-analysis pass.

::

    python -m repro.analysis                     # full pass; exit 1 on findings
    python -m repro.analysis --rule no-unkeyed-rng
    python -m repro.analysis --format json       # machine-readable findings
    python -m repro.analysis --list              # rule catalogue (one line each)

Exit status: 0 = clean, 1 = findings, 2 = usage error.  CI runs the bare
form and gates on it.  The full catalogue, ``docs/ANALYSIS.md``, is
written by ``python -m repro.docs``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.base import ANALYSIS_RULES
from repro.analysis.driver import analyze, known_rule_ids, repo_root

#: Schema version of the ``--format json`` document.
JSON_SCHEMA_VERSION = 1


def _render_text(findings, out) -> None:
    for finding in findings:
        print(finding.render(), file=out)
    noun = "finding" if len(findings) == 1 else "findings"
    print(f"{len(findings)} {noun}", file=out)


def _render_json(findings, root: Path, out) -> None:
    document = {
        "schema": JSON_SCHEMA_VERSION,
        "root": str(root),
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    json.dump(document, out, indent=2, sort_keys=True)
    out.write("\n")


def _list_rules(out) -> None:
    for rule_id in known_rule_ids():
        rule = ANALYSIS_RULES.lookup(rule_id)
        print(f"{rule_id}: {rule.title}", file=out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism & cache-soundness static analysis over src/repro.",
    )
    parser.add_argument(
        "modules",
        nargs="*",
        metavar="MODULE",
        help="restrict source rules to modules whose path contains MODULE "
        "(project-wide rules are skipped when given)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="ID",
        help="run only this rule id (repeatable; see --list)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--root", metavar="DIR", help="repository root (default: auto-detected)")
    parser.add_argument("--list", action="store_true", help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    root = Path(args.root) if args.root else repo_root()

    if args.list:
        _list_rules(sys.stdout)
        return 0

    if args.rules:
        unknown = [rule for rule in args.rules if rule not in known_rule_ids()]
        if unknown:
            parser.error(
                f"unknown rule id(s) {unknown}; known: {known_rule_ids()}"
            )

    findings = analyze(
        root=root,
        rule_ids=args.rules,
        modules=args.modules or None,
    )
    if args.format == "json":
        _render_json(findings, root, sys.stdout)
    else:
        _render_text(findings, sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
