"""Shared test fixtures."""

import pytest

from intersective import engine


@pytest.fixture(autouse=True)
def _fresh_pair_count_cache():
    """Start every test with an empty pair-count cache, so test order cannot change call counts."""
    engine._cached_pair_count.cache_clear()
