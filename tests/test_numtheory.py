import math

import pytest

from intersective.numtheory import divisors, euler_phi, factorize, is_prime, next_prime, radical


@pytest.mark.parametrize("n,expected", [
    (1, False), (2, True), (3, True), (4, False), (25, False), (97, True),
    (561, False),          # Carmichael
    (3215031751, False),   # strong pseudoprime to bases 2,3,5,7... not to all tested
    (2**61 - 1, True),
])
def test_is_prime(n, expected):
    assert is_prime(n) is expected


def test_is_prime_matches_sieve():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for p in range(2, 45):
        if sieve[p]:
            for q in range(p * p, 2000, p):
                sieve[q] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n], n


def test_factorize():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(105) == ((3, 1), (5, 1), (7, 1))
    assert factorize(2**10) == ((2, 10),)
    for n in range(1, 500):
        assert math.prod(p**e for p, e in factorize(n)) == n


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(105) == [1, 3, 5, 7, 15, 21, 35, 105]
    for n in range(1, 200):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_euler_phi():
    assert euler_phi(1) == 1
    assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert euler_phi(105) == 48
    for n in range(1, 300):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_radical():
    assert radical(1) == 1
    assert radical(12) == 6
    assert radical(360) == 30
    assert radical(97) == 97


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(35) == 37
    assert next_prime(36) == 37

