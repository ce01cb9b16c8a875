"""Generated rule catalogue: render the live rule registry to Markdown.

``docs/ANALYSIS.md`` is generated from :data:`ANALYSIS_RULES`, and a
rule without a docstring fails the build — an unexplained rule cannot
be complied with.  ``python -m repro.docs`` writes it beside the other
generated documents, and ``python -m repro.docs --check`` gates its
freshness in CI.
"""

from __future__ import annotations

import inspect
from typing import List

from repro.analysis.base import ANALYSIS_RULES, ProjectRule, Rule
from repro.analysis.pragmas import PRAGMA_RULE_ID


class AnalysisDocsError(RuntimeError):
    """Raised when a registered rule cannot be documented (no docstring)."""


HEADER = """\
# Static analysis rules

<!-- GENERATED FILE - DO NOT EDIT.
     Regenerate with:  PYTHONPATH=src python -m repro.docs
     CI fails when this file is stale (python -m repro.docs --check). -->

`python -m repro.analysis` enforces the platform's determinism and
cache-soundness contracts mechanically (see `repro.analysis`).  The pass
exits non-zero on any finding and gates CI; run it with `--format json`
for machine-readable output, `--rule <id>` to focus on one rule, or
`--list` to print the catalogue below from the live registry.

## Suppressing a finding

A finding is suppressed by an inline pragma **with a justification** on
the offending line, or on a comment line directly above it:

```python
rng = np.random.default_rng(seed)  # repro: allow[no-unkeyed-rng] seed-scoped layout draw

# repro: allow[no-wall-clock] progress display only, never in results
started = time.perf_counter()
```

A pragma with no reason, an unknown rule id, or a malformed
`# repro:` comment is itself reported (rule id `pragma`), and the
`pragma` rule cannot be suppressed.

## Rule catalogue
"""


def _rule_scope(rule: Rule) -> str:
    if isinstance(rule, ProjectRule):
        return "project-wide (semi-static: imports the live package)"
    scope = ", ".join(f"`{pattern}`" for pattern in rule.include)
    if rule.allow_modules:
        scope += "; exempt: " + ", ".join(f"`{module}`" for module in rule.allow_modules)
    return scope


def _rule_section(rule_id: str, rule: Rule) -> List[str]:
    doc = inspect.getdoc(type(rule))
    if not doc or not doc.strip():
        raise AnalysisDocsError(
            f"analysis rule {rule_id!r}: rule class has no docstring; the generated "
            "catalogue needs the rationale a suppression reviewer reads"
        )
    lines = [
        f"### `{rule_id}`",
        "",
        f"**{rule.title}**",
        "",
        f"Scope: {_rule_scope(rule)}",
        "",
    ]
    lines.extend(doc.strip().splitlines())
    lines.append("")
    return lines


def generate_analysis_markdown() -> str:
    """The full ANALYSIS.md document, rendered from the live rule registry."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    lines = [HEADER]
    for rule_id in sorted(ANALYSIS_RULES.keys()):
        lines.extend(_rule_section(rule_id, ANALYSIS_RULES.lookup(rule_id)))
    lines.extend(
        [
            f"### `{PRAGMA_RULE_ID}`",
            "",
            "**malformed suppression pragma**",
            "",
            "Scope: every analyzed module (always on; not suppressible)",
            "",
            "Reports `# repro:` comments that are not well-formed",
            "`allow[rule-id] reason` pragmas: a missing reason, an unknown rule",
            "id, or broken syntax.  A malformed pragma looks like a suppression",
            "while suppressing nothing, which is worse than either a finding or",
            "a working pragma.",
            "",
        ]
    )
    return "\n".join(lines).rstrip() + "\n"

