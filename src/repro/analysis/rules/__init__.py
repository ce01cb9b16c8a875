"""Rule modules; importing this package registers every rule.

Each module registers one rule id in
:data:`repro.analysis.base.ANALYSIS_RULES` via the ``@register_rule``
decorator, exactly as simulator components register in their layer
registries.  The driver imports this package lazily so the registry is
populated before any lookup.
"""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401  (registration side effects)
    registries,
    rng,
    sets,
    slots,
    wallclock,
)
