"""Hypothesis profiles.  ``ci`` derandomizes the property tests, so a CI
run is reproducible, and prints the blob that replays a failing example:

    python -m pytest --hypothesis-profile=ci
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
