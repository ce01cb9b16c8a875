# fixture-module: repro/transport/fixture.py
"""Bad: ``union`` on a set returns a set."""


class Window:
    def __init__(self):
        self.sacked = set()

    def outstanding(self, lost):
        return [seq for seq in self.sacked.union(lost)]
