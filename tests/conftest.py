"""Shared test fixtures and helpers."""

import pytest

from intersective import engine, numtheory, oracle, spectral
from intersective.cyclotomic import _divisor_table, _squarefree_factor

# Every per-process cache in the package; tests/test_caches.py checks the list is complete.
PER_PROCESS_CACHES = (
    spectral.sign_count_tuples,
    spectral._pi,
    spectral._root_of_unity,
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


def adjacent(X, u, v) -> bool:
    """u ~ v in the difference-avoidance graph X: u != v, and u - v lies
    coordinatewise all in J or all in -J. Coordinates are coerced and reduced."""
    G = X.group
    u = tuple(G.element(x) for x in u)
    v = tuple(G.element(x) for x in v)
    if u == v:
        return False
    d = tuple(G.sub(a, b) for a, b in zip(u, v))
    Jset = set(X.J)
    return all(x in Jset for x in d) or all(G.neg(x) in Jset for x in d)
