"""Shared test fixtures."""

import pytest

from intersective import spectral


@pytest.fixture(autouse=True)
def _fresh_sign_count_cache():
    """Start every test with an empty sign-count cache, so test order cannot change cache counts."""
    spectral.sign_count_tuples.cache_clear()
