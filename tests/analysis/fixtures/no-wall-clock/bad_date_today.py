# fixture-module: repro/experiments/fixture.py
"""Bad: ``date.today()`` reads the host clock too."""

from datetime import date


def run_label(name):
    return f"{name}-{date.today().isoformat()}"
