"""Hypothesis profiles.  ``default`` is hypothesis's own; ``ci`` runs more
examples without a deadline, for a separate, harder fuzzing step:

    HYPOTHESIS_PROFILE=ci python -m pytest -q tests/test_series.py tests/test_zerodim.py \
        tests/test_jacobi_exact.py

Tests that pin ``max_examples`` themselves keep their count under either
profile.
"""
import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
