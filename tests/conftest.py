"""Hypothesis profiles. The local default is hypothesis's own; CI selects a
larger, derandomized run (a failure there repeats on every run):

    pytest --hypothesis-profile=ci
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=400, derandomize=True)
