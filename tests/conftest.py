"""Test-suite configuration: every Hypothesis property test is deterministic.

One profile, loaded for the whole suite, derandomizes the draws (the examples
depend only on the test), keeps no example database between runs and sets no
per-example deadline, since a draw's cost depends on the machine.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
