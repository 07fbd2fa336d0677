"""Shared test settings.

Hypothesis draws the same examples on every run (derandomize), so a test
run is reproducible, and has no per-example deadline, because the scalar
oracles the batch paths are checked against are slow by design.
"""

from hypothesis import settings

settings.register_profile("repo", derandomize=True, deadline=None)
settings.load_profile("repo")
