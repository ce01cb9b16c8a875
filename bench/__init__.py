"""Standalone benchmark of the simulator: see ``bench/README.md``."""
