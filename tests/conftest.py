"""Hypothesis runs derandomized and without an example database, so every
process draws the same examples and no run depends on an earlier one."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
