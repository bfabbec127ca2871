"""Integer helpers: factorization, totient, radical, deterministic primality."""

from __future__ import annotations

import functools

__all__ = [
    "factorize",
    "divisors",
    "euler_phi",
    "radical",
    "is_prime",
    "next_prime",
]

# Deterministic Miller-Rabin witness set, valid for all n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

_FACTOR_LIMIT = 10**12


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; rejects n beyond the proven witness range."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"primality test not deterministic for n >= {_MR_LIMIT}: {n}")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization ((p, e), ...) by trial division; n capped at 1e12."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    if n > _FACTOR_LIMIT:
        raise ValueError(f"trial division capped at {_FACTOR_LIMIT}; factor n = {n} upstream")
    out: list[tuple[int, int]] = []
    m = n
    for p in (2, 3):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
    p = 5
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
        # 6k +- 1 wheel
        p += 2 if p % 6 == 5 else 4
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    """All positive divisors, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def euler_phi(n: int) -> int:
    phi = n
    for p, _ in factorize(n):
        phi = phi // p * (p - 1)
    return phi


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    r = 1
    for p, _ in factorize(n):
        r *= p
    return r


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    m = n + 1
    if m <= 2:
        return 2
    if m % 2 == 0:
        m += 1
    while not is_prime(m):
        m += 2
    return m
