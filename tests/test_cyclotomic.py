"""Exact cyclotomic arithmetic, frozen against independently derived values."""

import importlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersective.cyclotomic import (DENSE_DEGREE_LIMIT, IntPolynomial, NonExactDivision, cyclotomic,
                                     inverse_cyclotomic, is_admissible_support, lam_leung,
                                     support_and_gaps)
from intersective.numtheory import divisors, euler_phi, factorize, is_prime, radical
from intersective.spectral import count_nonneg_tuples

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


# Phi_n has even degree for n > 2; Psi_n has odd degree at n = 2 and 105, even at 6 and 30
@pytest.mark.parametrize("n", [2, 6, 30, 105])
@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("where", ["c[1]", "middle", "last computed"])
def test_self_check_catches_each_corrupted_coefficient(monkeypatch, n, inverse, where):
    real = cyclotomic_module._mobius_product
    degree = n - euler_phi(n) if inverse else euler_phi(n)

    def corrupted(n, length, sign):
        assert length == degree // 2 + 2  # through the coefficient past the middle
        c = real(n, length, sign)
        c[{"c[1]": 1, "middle": degree // 2, "last computed": length - 1}[where]] += 1
        return c

    monkeypatch.setattr(cyclotomic_module, "_mobius_product", corrupted)
    with pytest.raises(RuntimeError, match="self-check"):
        (inverse_cyclotomic if inverse else cyclotomic)(n)


@pytest.mark.parametrize("n,inverse,changes", [
    # Phi_105(1) is unchanged, since c[0] and c[48] rise and c[1] and c[47] fall; not monic
    (105, False, {0: 1, 1: -1}),
    # Psi_30 has degree 22 and sum k c_k is unchanged (11 * 4 = 11 * (13 - 9)); middle not 0
    (30, True, {11: 4, 9: 11}),
])
def test_self_check_catches_what_the_value_at_one_misses(monkeypatch, n, inverse, changes):
    real = cyclotomic_module._mobius_product

    def corrupted(n, length, sign):
        c = real(n, length, sign)
        for k, delta in changes.items():
            c[k] += delta
        return c

    monkeypatch.setattr(cyclotomic_module, "_mobius_product", corrupted)
    with pytest.raises(RuntimeError, match="self-check"):
        (inverse_cyclotomic if inverse else cyclotomic)(n)


def _reference_series(n, length, sign):
    """The Moebius series of _mobius_product, one list update per coefficient per divisor.

    Multiplying by (1 - t^d) is a descending in-place update; dividing by it
    multiplies by 1 + t^d + t^2d + ..., an ascending one.
    """
    signed = [(1, 1)]  # (d, mu(d)); for squarefree n, mu(n/d) = mu(n) * mu(d)
    for p, _ in factorize(n):
        signed += [(d * p, -m) for d, m in signed]
    mu_n = signed[-1][1]
    c = [0] * length
    c[0] = 1
    for d, m in signed:
        if sign * mu_n * m == 1:
            for k in range(length - 1, d - 1, -1):
                c[k] -= c[k - d]
    for d, m in signed:
        if sign * mu_n * m == -1:
            for k in range(d, length):
                c[k] += c[k - d]
    return c


def test_half_series_matches_the_full_series():
    for n in range(2, 2000):
        if radical(n) == n:
            phi = euler_phi(n)
            assert cyclotomic(n).coeffs == tuple(_reference_series(n, phi + 1, 1)), n
            psi = _reference_series(n, n - phi + 1, -1)
            assert inverse_cyclotomic(n).coeffs == tuple(-x for x in psi), n


@st.composite
def _series_queries(draw):
    n = draw(st.integers(2, 3000).filter(lambda n: radical(n) == n))
    sign = draw(st.sampled_from((1, -1)))
    degree = euler_phi(n) if sign == 1 else n - euler_phi(n)
    return n, draw(st.integers(1, degree + 1)), sign


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_series_queries())
def test_packed_series_matches_the_reference(query):
    assert cyclotomic_module._mobius_product(*query) == _reference_series(*query)


# Phi_255255 has height 532; its first coefficient past 8-bit digits is c[5268]
PHI_255255_HALF = euler_phi(255255) // 2 + 2


def test_certificate_refuses_digits_too_narrow():
    packed = cyclotomic_module._packed_series
    assert packed(255255, PHI_255255_HALF, 1, 1) is None
    assert packed(255255, 5269, 1, 1) is None
    assert packed(255255, 5268, 1, 1) == _reference_series(255255, 5268, 1)


def test_series_widens_until_certified(monkeypatch):
    real, widths = cyclotomic_module._packed_series, []

    def from_one_byte(n, length, sign, nbytes):
        widths.append(nbytes // 2)
        assert len(widths) <= 2, widths  # fail rather than widen forever
        return real(n, length, sign, nbytes // 2)

    monkeypatch.setattr(cyclotomic_module, "_packed_series", from_one_byte)
    assert cyclotomic_module._mobius_product(255255, 5300, 1) == _reference_series(255255, 5300, 1)
    assert widths == [1, 2]


def test_certificate_failure_on_wide_digits_raises(monkeypatch):
    # a certificate that can never pass stops once the digits hold every coefficient
    pack, widths = cyclotomic_module._PackedDigits.pack, []

    def off_by_one(self, coeffs):
        widths.append(self.nbytes)
        assert len(widths) <= 2, widths  # fail rather than widen forever
        return pack(self, coeffs) + 1

    monkeypatch.setattr(cyclotomic_module._PackedDigits, "pack", off_by_one)
    with pytest.raises(RuntimeError, match="certificate failed at n = 105"):
        cyclotomic(105)
    assert widths == [4, 8]  # the series at 16 and 32 bits; 32 holds every coefficient


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


def _reference_str(p):
    """IntPolynomial.__str__ as one loop over the coefficients."""
    parts = []
    for k, c in enumerate(p.coeffs):
        if c:
            mag = -c if c < 0 else c
            if k == 0:
                term = str(mag)
            else:
                var = "t" if k == 1 else f"t^{k}"
                term = var if mag == 1 else f"{mag}*{var}"
            parts += (" - " if c < 0 else " + ", term)
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


@pytest.mark.parametrize("coeffs,text", [
    ((), "0"),
    ((1,), "1"),
    ((-1,), "-1"),
    ((5,), "5"),
    ((-5,), "-5"),
    ((0, 1), "t"),
    ((0, -1), "-t"),
    ((0, 2), "2*t"),
    ((0, -2), "-2*t"),
    ((0, 0, -1), "-t^2"),
    ((0, 0, -3, 1), "-3*t^2 + t^3"),
    ((-1, 1), "-1 + t"),
    ((2, -1, 0, -4, 1, -1), "2 - t - 4*t^3 + t^4 - t^5"),
    ((0, 3, -1, 12), "3*t - t^2 + 12*t^3"),
])
def test_str_table(coeffs, text):
    p = IntPolynomial(coeffs)
    assert str(p) == _reference_str(p) == text


def test_str_matches_the_reference_on_cyclotomics():
    for n in range(1, 500):
        for p in (cyclotomic(n), inverse_cyclotomic(n)):
            assert str(p) == _reference_str(p), n


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-3, 3), max_size=12))
def test_str_matches_the_reference(coeffs):
    p = IntPolynomial(coeffs)
    assert str(p) == _reference_str(p)


def test_polynomial_from_list_tuple_or_generator():
    polys = [IntPolynomial([1, -1]), IntPolynomial((1, -1)), IntPolynomial(c for c in (1, -1, 0))]
    assert all(p.coeffs == (1, -1) for p in polys)
    assert len(set(polys)) == 1
    assert len({count_nonneg_tuples(p, 7, 2) for p in polys}) == 1
