"""Shared test fixtures."""

import pytest

from intersective import engine, numtheory, oracle, spectral
from intersective.cyclotomic import _divisor_table, _squarefree_factor

# Every per-process cache in the package; tests/test_caches.py checks the list is complete.
PER_PROCESS_CACHES = (
    spectral.sign_count_tuples,
    spectral._pi,
    spectral.residue_dp_count,
    spectral._clique_walks,
    engine.weight_candidates,
    oracle._closed_results,
    oracle._labels,
    _squarefree_factor,
    _divisor_table,
    numtheory.factorize,
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Start every test with empty caches, so test order cannot change cache counts or answers."""
    for cache in PER_PROCESS_CACHES:
        cache.cache_clear()
