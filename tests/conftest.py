"""Shared test settings.

Property tests draw their examples from a fixed derandomised stream, a
bounded number per test and without a per-example deadline, so every run of
the suite checks the same cases and takes about the same time.
"""

from __future__ import annotations

from hypothesis import settings

settings.register_profile(
    "repeatable", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("repeatable")
