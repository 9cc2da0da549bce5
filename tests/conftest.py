"""Hypothesis profiles: ``default`` for tier-1, ``ci`` for the deeper CI
run of the property tests, chosen by the HYPOTHESIS_PROFILE variable."""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
