"""Exact cyclotomic arithmetic, frozen against independently derived values."""

import importlib
import math

import pytest

from intersective.cyclotomic import (DENSE_DEGREE_LIMIT, IntPolynomial, NonExactDivision, cyclotomic,
                                     cyclotomic_stats, inverse_cyclotomic,
                                     is_admissible_support, lam_leung, support_and_gaps)
from intersective.numtheory import divisors, euler_phi, is_prime

cyclotomic_module = importlib.import_module("intersective.cyclotomic")


# first twelve, from the standard table
KNOWN = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    11: (1,) * 11,
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("n", sorted(KNOWN))
def test_small_cyclotomic_table(n):
    assert cyclotomic(n).coeffs == KNOWN[n]


def test_polynomial_ring_ops():
    p = IntPolynomial.from_coeffs([1, 2])
    q = IntPolynomial.from_coeffs([-1, 1])
    assert (p * q).coeffs == (-1, -1, 2)
    assert (p + q).coeffs == (0, 3)
    assert (p - q).coeffs == (2, 1)
    assert p.degree == 1
    assert IntPolynomial.zero().degree == -1
    assert IntPolynomial.from_coeffs([3, 1, 0, 0]).coeffs == (3, 1)
    assert p.evaluate(3) == 7
    assert p.substitute_power(3).coeffs == (1, 0, 0, 2)
    assert str(IntPolynomial.from_coeffs([1, -1])) == "1 - t"


def test_exact_divide_and_divides():
    circle = IntPolynomial.from_coeffs([-1, 0, 0, 0, 0, 1])
    q = circle.exact_divide(cyclotomic(5))
    assert q.coeffs == (-1, 1)
    assert cyclotomic(5).divides(circle)
    assert not cyclotomic(3).divides(circle)
    with pytest.raises(NonExactDivision):
        IntPolynomial.from_coeffs([1, 1, 1]).exact_divide(IntPolynomial.from_coeffs([1, 1]))
    with pytest.raises(ZeroDivisionError):
        circle.exact_divide(IntPolynomial.zero())


def test_degree_is_phi():
    for n in range(1, 200):
        assert cyclotomic(n).degree == euler_phi(n), n


def test_product_identity_sampled():
    for n in (1, 2, 6, 12, 30, 36, 100, 105, 128, 210):
        prod = IntPolynomial.one()
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        assert prod.coeffs == (-1,) + (0,) * (n - 1) + (1,), n


def test_inverse_cyclotomic_identity():
    # checked by dense multiplication, independent of how either factor is computed
    for n in range(1, 501):
        circle = IntPolynomial.from_coeffs([-1] + [0] * (n - 1) + [1])
        assert cyclotomic(n) * inverse_cyclotomic(n) == circle, n


def test_cyclotomic_105_has_height_two():
    h = cyclotomic(105)
    assert h.degree == 48
    assert h[7] == -2 and h[41] == -2
    assert max(abs(c) for c in h.coeffs) == 2
    assert len(h.support()) == 33


def test_lam_leung_matches_direct():
    primes = [p for p in range(3, 32) if is_prime(p)]
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            assert lam_leung(p, q) == cyclotomic(p * q), (p, q)


def test_lam_leung_nonzero_count():
    # 2*pbar*qbar - 1 where pbar = p^-1 mod q, qbar = q^-1 mod p
    for p, q in [(3, 5), (5, 7), (3, 31), (29, 31)]:
        pbar = pow(p, -1, q)
        qbar = pow(q, -1, p)
        assert len(lam_leung(p, q).support()) == 2 * pbar * qbar - 1


def test_support_and_gaps():
    supp, gap = support_and_gaps(cyclotomic(105))
    assert supp[0] == 0 and supp[-1] == 48
    assert gap == 3
    assert support_and_gaps(IntPolynomial.one()) == ((0,), 0)


def test_is_admissible_support():
    assert is_admissible_support({0, 1, 2}, 7)
    assert not is_admissible_support({0, 1, 6}, 7)   # 1 = -6
    assert not is_admissible_support({1, 2}, 7)      # missing 0
    assert not is_admissible_support({0, 7}, 7)      # out of range
    assert not is_admissible_support({0, 2}, 4)      # 2 = -2
    assert is_admissible_support({0}, 1)


def test_inverse_cyclotomic_35_support():
    # support of the negated inverse: {0..4} u {7..11}, degree 11
    h = inverse_cyclotomic(35).scale(-1)
    assert h.degree == 35 - euler_phi(35) == 11
    assert h.support() == (0, 1, 2, 3, 4, 7, 8, 9, 10, 11)
    assert h[0] == 1


def test_cyclotomic_stats():
    st = cyclotomic_stats(105)
    assert (st.phi, st.radical, st.nonzero_count, st.max_gap, st.height) == (48, 105, 33, 3, 2)
    st8 = cyclotomic_stats(8)
    assert (st8.phi, st8.nonzero_count, st8.max_gap, st8.height) == (4, 2, 4, 1)


def test_cyclotomic_stats_15015():
    st = cyclotomic_stats(15015)
    assert (st.phi, st.nonzero_count, st.max_gap, st.height) == (5760, 5371, 4, 23)


@pytest.mark.parametrize("inverse", [False, True])
def test_self_check_catches_corrupted_product(monkeypatch, inverse):
    real = cyclotomic_module._mobius_product

    def corrupted(n, length, sign):
        c = real(n, length, sign)
        c[1] += 1
        return c

    cyclotomic_module._squarefree_factor.cache_clear()
    monkeypatch.setattr(cyclotomic_module, "_mobius_product", corrupted)
    try:
        with pytest.raises(RuntimeError, match="self-check"):
            (inverse_cyclotomic if inverse else cyclotomic)(105)
    finally:
        cyclotomic_module._squarefree_factor.cache_clear()


def test_degree_guard_refuses_before_allocating(monkeypatch):
    primorial = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23  # phi = 36495360
    assert euler_phi(primorial) > DENSE_DEGREE_LIMIT

    def unreachable(n, length, sign):
        raise AssertionError(f"series of length {length} started past the guard")

    monkeypatch.setattr(cyclotomic_module, "_mobius_product", unreachable)
    with pytest.raises(ValueError, match="dense storage limit"):
        cyclotomic(primorial)
    with pytest.raises(ValueError, match="dense storage limit"):
        inverse_cyclotomic(primorial)


def test_radical_reduction_consistency():
    # Phi_{p^k * m}(t) = Phi_{pm}(t^{p^{k-1}}) for squarefree m; spot checks
    assert cyclotomic(9) == cyclotomic(3).substitute_power(3)
    assert cyclotomic(50) == cyclotomic(10).substitute_power(5)
    assert cyclotomic(12) == cyclotomic(6).substitute_power(2)


def test_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        cyclotomic(0)
    with pytest.raises(ValueError):
        inverse_cyclotomic(-3)
