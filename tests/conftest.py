"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run and prints
a reproduction blob with each failure, so a failure in CI replays locally
with ``@reproduce_failure``. Per-test settings still override the profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
