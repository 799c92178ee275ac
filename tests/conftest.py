"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

# CI runs tier-1 with --hypothesis-profile=ci: more examples, and a fixed
# search, so a CI failure reproduces locally with the same flag
settings.register_profile("ci", derandomize=True, max_examples=500)


@pytest.fixture
def csv_body():
    """Extractor for the non-comment part of a CSV file.

    Returns a callable mapping a path to the header plus data rows as one
    string, with every '#' comment line stripped.  Determinism guarantees
    apply to exactly this part of the output.
    """

    def read(path) -> str:
        lines = Path(path).read_text().splitlines()
        return "\n".join(ln for ln in lines if not ln.startswith("#"))

    return read
