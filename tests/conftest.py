"""Hypothesis runs the same examples on every run: no random seed, no
example database, and no deadline, since a property test's speed varies
with the load on the machine."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
