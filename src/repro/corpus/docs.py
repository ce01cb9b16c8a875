"""Generated corpus catalogue: render the live spec space to Markdown.

``docs/CORPUS.md`` is generated from the live registries and check/
constraint tables, and a check without a docstring fails the build.
``python -m repro.docs`` writes it beside the other generated documents,
and ``python -m repro.docs --check`` gates its freshness in CI, so it
can never drift from what ``python -m repro.corpus`` actually
enumerates.
"""

from __future__ import annotations

import inspect
from typing import List

from repro.corpus.checks import CORPUS_CHECKS, known_check_ids
from repro.corpus.space import CONSTRAINTS, LAYERS, default_space


class CorpusDocsError(RuntimeError):
    """Raised when a registered check cannot be documented (no docstring)."""


HEADER = """\
# Scenario corpus

<!-- GENERATED FILE - DO NOT EDIT.
     Regenerate with:  PYTHONPATH=src python -m repro.docs
     CI fails when this file is stale (python -m repro.docs --check). -->

`python -m repro.corpus` enumerates the valid scenario space straight
off the live component registries, samples it with a seeded Philox
stream, and runs every sampled spec through the platform's invariant
checks at short duration — digest stability, run determinism,
parallel==serial, cache round-trips.  Any failure is delta-debugged
down to a **minimal failing spec** naming the offending component(s),
and the CLI exits 1.

```
python -m repro.corpus --sample 64 --seed 0          # the CI smoke sample
python -m repro.corpus --check determinism           # one invariant only
python -m repro.corpus --format json                 # machine-readable findings
python -m repro.corpus --write-golden tests/corpus/golden_digests.json
```

The same sampled specs are runnable as a cached experiment family:
`python -m repro.experiments report corpus`.
"""

GOLDEN_NOTE = """\
## Golden digest pins

`tests/corpus/golden_digests.json` pins the sweep-cache digest of one
canonical scenario per registered component (generated with
`--write-golden`).  A tier-1 test fails on any drift unless
`CACHE_SCHEMA_VERSION` was bumped — the one sanctioned way to invalidate
existing caches.  After an intentional digest change: bump the schema
version, regenerate the pins, commit both.
"""


def _layer_section() -> List[str]:
    space = default_space()
    lines = ["## Enumeration axes", ""]
    lines.append(
        "Each axis is walked off its live registry at enumeration time — a "
        "newly registered component joins the corpus with no corpus change. "
        f"The current space holds {space.size()} raw combinations before "
        "constraint filtering."
    )
    lines.append("")
    for layer in LAYERS:
        labels = ", ".join(f"`{choice.label}`" for choice in space.layers[layer])
        lines.append(f"- **{layer}**: {labels}")
    lines.append("")
    return lines


def _constraint_section() -> List[str]:
    lines = [
        "## Constraint table",
        "",
        "Combinations are only skipped for a written reason — every skip "
        "traces to exactly one row here (`repro.corpus.space.CONSTRAINTS`).",
        "",
        "| id | rule |",
        "| --- | --- |",
    ]
    for constraint in CONSTRAINTS:
        lines.append(f"| `{constraint.id}` | {constraint.description} |")
    lines.append("")
    return lines


def _check_section(check_id: str) -> List[str]:
    check = CORPUS_CHECKS.lookup(check_id)
    # The class's own docstring: inspect.getdoc would inherit InvariantCheck's.
    doc = inspect.cleandoc(type(check).__doc__ or "")
    if not doc.strip():
        raise CorpusDocsError(
            f"corpus check {check_id!r}: check class has no docstring; the "
            "generated catalogue needs the contract a failure reader sees"
        )
    lines = [
        f"### `{check_id}`",
        "",
        f"**{check.title}**",
        "",
    ]
    lines.extend(doc.strip().splitlines())
    lines.append("")
    return lines


def generate_corpus_markdown() -> str:
    """The full CORPUS.md document, rendered from the live registries."""
    lines = [HEADER]
    lines.extend(_layer_section())
    lines.extend(_constraint_section())
    lines.extend(
        [
            "## Invariant checks",
            "",
            "Run in registration order (cheapest first); select one with "
            "`--check <id>`.  Each failing (spec, check) pair is shrunk "
            "toward registry defaults before being reported.",
            "",
        ]
    )
    for check_id in known_check_ids():
        lines.extend(_check_section(check_id))
    lines.append(GOLDEN_NOTE)
    return "\n".join(lines).rstrip() + "\n"

