"""Test-suite settings.

Hypothesis runs derandomized, with no example database and no deadline, so
every property test draws the same examples on every run and machine and
the suite's result does not depend on an earlier run or on the host's speed.
"""

from hypothesis import settings

settings.register_profile("eppsim", derandomize=True, database=None, deadline=None)
settings.load_profile("eppsim")
