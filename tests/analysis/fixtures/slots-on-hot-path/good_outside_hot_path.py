# fixture-module: repro/experiments/runner.py
"""Good: a module off the per-event path may use plain classes."""


class Report:
    def __init__(self, rows):
        self.rows = rows
