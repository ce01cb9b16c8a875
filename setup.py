"""Setup shim.

The requirements are listed in the README's "Requirements" section; this
file exists so that ``pip install -e .`` keeps working on minimal offline
environments whose pip/setuptools cannot build PEP 660 editable wheels (no
``wheel`` package available).
"""

from setuptools import setup

setup()
