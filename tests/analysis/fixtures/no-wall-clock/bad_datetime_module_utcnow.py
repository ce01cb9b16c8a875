# fixture-module: repro/service/fixture.py
"""Bad: ``datetime.datetime.utcnow`` through the module import."""

import datetime


def submitted_at():
    return datetime.datetime.utcnow()
