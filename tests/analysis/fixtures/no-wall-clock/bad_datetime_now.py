# fixture-module: repro/experiments/fixture.py
"""Bad: wall-clock timestamps leak into results outside the sweep runner."""

from datetime import datetime, timezone


def generated_at():
    return datetime.now(timezone.utc).isoformat()
