"""Hypothesis runs derandomized with a bounded example count, so the suite is
deterministic and its run time bounded."""
from hypothesis import settings

settings.register_profile("mesa", derandomize=True, deadline=None, max_examples=100, database=None)
settings.load_profile("mesa")
