"""Integer polynomials and cyclotomic arithmetic, exact throughout.

Polynomials are dense tuples of int coefficients, low degree first, with no
trailing zeros. All division here is exact division over Z; a failed exact
division raises rather than rounding.

Cyclotomic polynomials come from the Moebius product (Arnold and Monagan,
"Calculating cyclotomic polynomials", Math. Comp. 80 (2011)): for n >= 2,

    Phi_n(t) = prod_{d | n} (1 - t^d)^mu(n/d),

an identity in Z[[t]], where each 1 - t^d is a unit with inverse
1 + t^d + t^2d + .... Both sides are the same power series and the left one
is a polynomial of degree phi(n), so the series truncated at degree phi(n)
is exactly Phi_n; factors with d > phi(n) leave the truncated series
unchanged. The cofactor Psi_n = (t^n - 1)/Phi_n = -(1 - t^n) / Phi_n has
degree n - phi(n) < n, and below degree n both 1 - t^n and the d = n term
1/(1 - t^n) are 1, so Psi_n is -prod_{d | n} (1 - t^d)^(-mu(n/d)) truncated
at its degree, with no division by a dense polynomial. The series runs on
packed integers (_PackedDigits) in Z[t]/(t^L) at t = 2^B, modulo 2^(BL): times
1 - t^d is X - (X << dB), and over it is times 1 + t^(2^i d) for 2^i d < L.
Evaluation at 2^B is a ring homomorphism, so only the final coefficients need
|c_k| < 2^(B-1). The decoded c is certified exactly: c * prod_divided (1 - t^d)
= prod_multiplied (1 - t^d) mod t^L. Each factor at most doubles the largest
coefficient, so with max(#divided, #multiplied) + 1 spare bits per digit both
sides fit their digits and agree iff their packed values do; prod_divided has
constant term 1, a unit of Z[[t]], so only the true series passes. A failure
doubles B, from 16 bits; every |c_k| is at most 2^#multiplied * L^#divided, the
product of the factors' L1 norms, so a failure at a B that holds it raises.
Only squarefree n are computed this way; Phi_n(t) = Phi_r(t^{n/r}) and
Psi_n(t) = Psi_r(t^{n/r}) for the radical r of n. Phi_n is palindromic for
n >= 2 and t^n - 1 anti-palindromic, so Psi_n is anti-palindromic: the series
runs only through coefficient deg/2 + 1 and the top half is its mirror image.
As a runtime self-check on the computed half, the coefficient past the middle
must equal its mirror, the result must be monic, an even-degree Psi_n must
have a zero middle coefficient, and the values at 1 must hold: Phi_n(1) = p
when n = p is prime and 1 otherwise, Psi_n'(1) = 1 when n is prime and n
otherwise; a failure raises. A degree past DENSE_DEGREE_LIMIT is refused
before any series is allocated. best_divisor_polynomial searches products
of the factors Phi_d of t^n - 1 on the same packed digits.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
import sys
from typing import Iterable

from .numtheory import divisors, euler_phi, factorize, is_prime, radical

__all__ = [
    "IntPolynomial",
    "NonExactDivision",
    "cyclotomic",
    "inverse_cyclotomic",
    "lam_leung",
    "support_and_gaps",
    "is_admissible_support",
    "require_admissible",
    "best_divisor_polynomial",
]

# Dense storage only; degrees beyond this are refused rather than silently slow.
DENSE_DEGREE_LIMIT = 2_000_000

DIVISOR_SUBSET_CAP = 1 << 20
# A divisor search with max J >= _LOW_DIGITS tests products mod t^_LOW_DIGITS
# first. Of the cutoffs 16, 32, 64, 128 and 256 timed on n = 1155 (J = supp
# Phi_1155), n = 1000 (274 random residues) and (10000, {0, 1, 6667}), 16 and 32
# were fastest, within 0.01 s of each other, and 256 was 4-8x slower; 32 also
# beat no low test on random dense J for n = 150 and 180, where 64 and 128 did
# not. Its cost is on the Z_105 query's searches, whose dense J pass most
# products on to the full test: 3.4 ms against 3.1 ms with no low test.
_LOW_DIGITS = 32
# Low products a divisor table memoises: the Z_105 query needs up to 63 (at most
# 3 of 7 factors); 32 tables of 256 stay near 3 MB with digits up to 8 bytes.
_LOW_MEMO_CAP = 256


class NonExactDivision(ArithmeticError):
    """Raised when polynomial division over Z leaves a remainder."""


class IntPolynomial:
    """Dense integer polynomial; coeffs[k] is the coefficient of t^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        c = tuple(coeffs)
        if c and c[-1] == 0:
            last = len(c) - 1
            while last >= 0 and c[last] == 0:
                last -= 1
            c = c[:last + 1]
        if len(c) > DENSE_DEGREE_LIMIT:
            raise ValueError(f"degree {len(c) - 1} exceeds dense storage limit {DENSE_DEGREE_LIMIT}")
        self.coeffs = c

    def __eq__(self, other) -> bool:
        return self.coeffs == other.coeffs if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"IntPolynomial(coeffs={self.coeffs!r})"

    @classmethod
    def from_coeffs(cls, coeffs) -> "IntPolynomial":
        return cls(tuple(int(c) for c in coeffs))

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "IntPolynomial":
        if k < 0:
            raise ValueError(f"monomial exponent must be >= 0, got {k}")
        return cls((0,) * k + (c,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial (its distinct marker)."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # __getitem__ answers 0 past the degree, so iterating it would never end
    __iter__ = None

    def support(self) -> tuple[int, ...]:
        return tuple(itertools.compress(range(len(self.coeffs)), self.coeffs))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPolynomial(tuple(out))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial.zero()
        # sparse factors stay cheap: cost is nnz(a) * nnz(b), not len * len
        bnz = [(j, cb) for j, cb in enumerate(b) if cb]
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in bnz:
                    out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def scale(self, k: int) -> "IntPolynomial":
        return IntPolynomial(tuple(k * c for c in self.coeffs))

    def substitute_power(self, k: int) -> "IntPolynomial":
        """t -> t^k."""
        if k < 1:
            raise ValueError(f"substitution power must be >= 1, got {k}")
        if not self.coeffs:
            return IntPolynomial.zero()
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return IntPolynomial(tuple(out))

    def exact_divide(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient over Z; raises NonExactDivision on any remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return IntPolynomial.zero()
        if self.degree < divisor.degree:
            raise NonExactDivision(f"degree {self.degree} < divisor degree {divisor.degree}")
        rem = list(self.coeffs)
        d = divisor.coeffs
        lead = d[-1]
        qlen = len(rem) - len(d) + 1
        q = [0] * qlen
        for k in range(qlen - 1, -1, -1):
            head = rem[k + len(d) - 1]
            if head % lead != 0:
                raise NonExactDivision(f"leading coefficient {lead} does not divide {head}")
            f = head // lead
            q[k] = f
            if f:
                for j, dc in enumerate(d):
                    rem[k + j] -= f * dc
        if any(rem):
            raise NonExactDivision("nonzero remainder")
        return IntPolynomial(tuple(q))

    def divides(self, other: "IntPolynomial") -> bool:
        try:
            other.exact_divide(self)
            return True
        except NonExactDivision:
            return False

    def evaluate(self, x):
        """Horner evaluation; works for int, Fraction, complex."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        c = self.coeffs
        parts = [(" - " if x < 0 else " + ") + (str(abs(x)) if k == 0 else "t" if x in (1, -1)
                                                else f"{abs(x)}*t") for k, x in enumerate(c[:2]) if x]
        parts += [f" + t^{k}" if x == 1 else f" - t^{k}" if x == -1 else f" + {x}*t^{k}" if x > 0
                  else f" - {-x}*t^{k}" for k, x in enumerate(c[2:], 2) if x]
        text = "".join(parts)
        return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]


class _PackedDigits:
    """Polynomials of degree < width as the integers P(2^B), B = 8 * nbytes.

    This is Kronecker substitution (Harvey, J. Symbolic Comput. 44 (2009)):
    P(2^B) * Q(2^B) = (PQ)(2^B), so a product of packed polynomials is one
    big-int multiplication. Every coefficient c must satisfy |c| < 2^(B-1).
    Then c + 2^(B-1) is a digit in [1, 2^B), so P(2^B) + half, with
    half = sum_k 2^(B-1) * 2^(Bk), holds these digits with no carries, and
    flipping each top bit gives c in two's complement. B is a whole number of bytes;
    on a little-endian machine 1-, 2-, 4- and 8-byte digits pack through struct, digits of
    up to 8 bytes decode sign-extended to the next of those through memoryview.cast.
    """

    def __init__(self, nbytes: int, width: int):
        self.nbytes, self.width = nbytes, width
        B = 8 * nbytes
        self.every = (1 << B * width) - 1  # all width digits: X & every is X mod t^width
        ones = self.every // ((1 << B) - 1)  # 1 in every digit
        self.half = ones << (B - 1)  # 2^(B-1) in every digit
        self.low = self.half - ones  # 2^(B-1) - 1 in every digit
        wide = next((w for w in (1, 2, 4, 8) if w >= nbytes), 0) if sys.byteorder == "little" else 0
        self.wide, self.format = wide, {1: "b", 2: "h", 4: "i", 8: "q"}.get(wide)

    def pack(self, coeffs) -> int:
        """P(2^B) from P's coefficients, any number of them."""
        raw = struct.pack(f"<{len(coeffs)}{self.format}", *coeffs) if self.wide == self.nbytes else \
            b"".join(c.to_bytes(self.nbytes, "little", signed=True) for c in coeffs)
        offsets = int.from_bytes((bytes(self.nbytes - 1) + b"\x80") * len(coeffs), "little")
        return (int.from_bytes(raw, "little") ^ offsets) - offsets

    def unpack(self, X: int) -> list[int]:
        """P's coefficients, width of them, from X = P(2^B) or X = P(2^B) mod 2^(B * width)."""
        nb, wide = self.nbytes, self.wide
        raw = (((X + self.half) & self.every) ^ self.half).to_bytes(self.width * nb, "little")
        if not wide:
            return [int.from_bytes(raw[i:i + nb], "little", signed=True) for i in range(0, len(raw), nb)]
        if wide > nb:  # each digit's top byte, sign-extended, fills its widened high bytes
            sign = raw[nb - 1::nb].translate(bytes(128) + b"\xff" * 128)
            raw, digits = bytearray(self.width * wide), raw
            for i in range(wide):
                raw[i::wide] = digits[i::nb] if i < nb else sign
        return memoryview(raw).cast(self.format).tolist()

    def truncate(self, X: int) -> int:
        """The packed polynomial X mod t^width, for X = P(2^B)."""
        return ((X + self.half) & self.every) - self.half

    def mask(self, exponents) -> int:
        """The top bit of the digit of each exponent."""
        raw = bytearray(self.width * self.nbytes)
        for k in exponents:
            raw[k * self.nbytes + self.nbytes - 1] = 0x80
        return int.from_bytes(raw, "little")

    def nonzero(self, X: int) -> int:
        """The top bit of every digit of X whose coefficient is nonzero.

        The low B - 1 bits of the digit c + 2^(B-1) of X + half are c for
        c >= 0 and 2^(B-1) + c >= 1 for c < 0, so they are zero iff c is.
        Adding low sets a digit's top bit iff they are nonzero, and cannot
        carry out, since 2 * (2^(B-1) - 1) < 2^B.
        """
        return (((X + self.half) & self.low) + self.low) & self.half


def _packed_series(n: int, length: int, sign: int, nbytes: int) -> list[int] | None:
    """_mobius_product at nbytes-byte digits, or None if its certificate fails."""
    signed = [(1, 1)]  # (d, mu(d)); for squarefree n, mu(n/d) = mu(n) * mu(d)
    for p, _ in factorize(n):
        signed += [(d * p, -m) for d, m in signed]
    # (1 - t^d)^1 and (1 - t^d)^-1 factors; those with d >= length are 1 mod t^length
    up, down = ([d for d, m in signed if d < length and sign * signed[-1][1] * m == e] for e in (1, -1))
    X, B, every = 1, 8 * nbytes, (1 << 8 * nbytes * length) - 1
    for d in up:
        X = (X - (X << d * B)) & every
    for d in down:  # 1/(1 - t^d) = prod (1 + t^(2^i d)) mod t^length
        while d < length:
            X = (X + (X << d * B)) & every
            d *= 2
    c = _PackedDigits(nbytes, length).unpack(X)
    wide = 2 * nbytes
    while 8 * wide < B + max(len(up), len(down)) + 1:
        wide *= 2
    check = _PackedDigits(wide, length)
    lhs, rhs, B, every = check.pack(c) & check.every, 1, 8 * wide, check.every
    for d in down:
        lhs = (lhs - (lhs << d * B)) & every
    for d in up:
        rhs = (rhs - (rhs << d * B)) & every
    if lhs != rhs and 8 * nbytes > len(up) + len(down) * length.bit_length() + 1:
        raise RuntimeError(f"Moebius series certificate failed at n = {n} on {8 * nbytes}-bit digits")
    return c if lhs == rhs else None


def _mobius_product(n: int, length: int, sign: int) -> list[int]:
    """Coefficients of t^0..t^(length-1) of prod_{d|n} (1 - t^d)^(sign*mu(n/d)), n squarefree."""
    nbytes = 2
    while (c := _packed_series(n, length, sign, nbytes)) is None:
        nbytes *= 2
    return c


@functools.lru_cache(maxsize=2048)
def _squarefree_factor(n: int, inverse: bool) -> IntPolynomial:
    """Phi_n, or Psi_n = (t^n - 1)/Phi_n when inverse, for squarefree n >= 2.

    Only coefficients 0..deg//2 + 1 come from the series; the rest mirror
    them, since Phi_n is palindromic and Psi_n anti-palindromic.
    """
    phi = euler_phi(n)
    deg = n - phi if inverse else phi
    half = deg // 2 + 2
    if inverse:
        c = [-x for x in _mobius_product(n, half, -1)]
    else:
        c = _mobius_product(n, half, 1)
    mirror = -1 if inverse else 1
    top = c[-1]
    c[half - 1:] = [mirror * x for x in reversed(c[:deg + 2 - half])]  # c[k] = mirror * c[deg - k]
    # Psi_n = (t - 1) prod Phi_d over 1 < d < n, d | n, so Psi_n'(1) = sum k c_k
    # is prod Phi_d(1), and Phi_d(1) is p for d = p prime, else 1
    prime = phi == n - 1
    if inverse:
        at_one, expected = sum(k * x for k, x in enumerate(c)), 1 if prime else n
    else:
        at_one, expected = sum(c), n if prime else 1
    if top != c[half - 1] or c[-1] != 1 or at_one != expected \
            or (inverse and deg % 2 == 0 and c[deg // 2]):
        kind = "inverse cyclotomic" if inverse else "cyclotomic"
        raise RuntimeError(f"{kind} self-check failed at n = {n}: not monic, "
                           f"not mirrored at the middle, or wrong at t = 1")
    return IntPolynomial(tuple(c))


def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial Phi_n, degree phi(n).

    Reduces to the squarefree radical first: Phi_n(t) = Phi_rad(n)(t^{n/rad(n)}).
    """
    if n < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {n}")
    return IntPolynomial((-1, 1)) if n == 1 else _from_radical(n, False)


def inverse_cyclotomic(n: int) -> IntPolynomial:
    """Psi_n = (t^n - 1) / Phi_n, the product of Phi_d over proper divisors d of n.

    Psi_n(t) = Psi_rad(n)(t^{n/rad(n)}), since t^n - 1 is (t^{n/rad(n)})^rad(n) - 1.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    return IntPolynomial.one() if n == 1 else _from_radical(n, True)


def _from_radical(n: int, inverse: bool) -> IntPolynomial:
    phi = euler_phi(n)
    degree = n - phi if inverse else phi
    if degree + 1 > DENSE_DEGREE_LIMIT:  # refused before any series is allocated
        raise ValueError(f"degree {degree} exceeds dense storage limit {DENSE_DEGREE_LIMIT}")
    r = radical(n)
    base = _squarefree_factor(r, inverse)
    return base if r == n else base.substitute_power(n // r)


def lam_leung(p: int, q: int) -> IntPolynomial:
    """Phi_pq for distinct primes p < q via the closed +-1 coefficient form.

    With pb = p^{-1} mod q and qb = q^{-1} mod p: coefficient +1 at exponents
    p*x + q*y for 0 <= x < pb, 0 <= y < qb; coefficient -1 at p*x + q*y - pq
    for pb <= x < q, qb <= y < p. Nonzero count is 2*pb*qb - 1.
    """
    if not (is_prime(p) and is_prime(q)):
        raise ValueError(f"need primes, got {p}, {q}")
    if not p < q:
        raise ValueError(f"need p < q, got p={p}, q={q}")
    pb = pow(p, -1, q)
    qb = pow(q, -1, p)
    out = [0] * ((p - 1) * (q - 1) + 1)
    for x in range(pb):
        for y in range(qb):
            out[p * x + q * y] += 1
    for x in range(pb, q):
        for y in range(qb, p):
            out[p * x + q * y - p * q] -= 1
    return IntPolynomial(tuple(out))


def support_and_gaps(h: IntPolynomial) -> tuple[tuple[int, ...], int]:
    """(support exponents, max gap between consecutive support exponents)."""
    supp = h.support()
    return supp, max(map(operator.sub, supp[1:], supp), default=0)


def is_admissible_support(J, n: int) -> bool:
    """True iff 0 in J, J inside [0, n), and J and -J share only 0 mod n."""
    Jset = set(J)
    if 0 not in Jset:
        return False
    if any(not 0 <= j < n for j in Jset):
        return False
    return all((-j) % n not in Jset for j in Jset if j != 0)


def require_admissible(residues: set[int], n: int) -> None:
    """Raise ValueError unless residues contain 0 and meet their negation mod n only at 0."""
    if 0 not in residues:
        raise ValueError("J must contain 0")
    if not is_admissible_support(residues, n):
        raise ValueError(f"support {sorted(residues)} collides with its negation mod {n}")


@functools.lru_cache(maxsize=32)
def _divisor_table(divs: tuple[int, ...]) -> tuple:
    """best_divisor_polynomial's set-up for the factors Phi_d, d in divs: digits of
    width _LOW_DIGITS, the factors packed and mod t^_LOW_DIGITS, their degrees,
    reach (bit s of reach[i] set iff some subset of factors[i:] has degree s),
    and a memo of subset products mod t^_LOW_DIGITS keyed on the subset's bitmask."""
    factors = [cyclotomic(d) for d in divs]
    degrees = [f.degree for f in factors]
    low = _PackedDigits(math.prod(sum(map(abs, f.coeffs)) for f in factors).bit_length() // 8 + 1,
                        _LOW_DIGITS)
    packed = [low.pack(f.coeffs) for f in factors]
    reach = [1] * (len(factors) + 1)
    for i in range(len(factors) - 1, -1, -1):
        reach[i] = reach[i + 1] | reach[i + 1] << degrees[i]
    return low, packed, [low.truncate(P) for P in packed], degrees, reach, {}


def best_divisor_polynomial(n: int, J: Iterable[int]) -> IntPolynomial | None:
    """Highest-degree product of cyclotomic factors of t^n - 1 supported inside J.

    Enumerates subsets of divisors d > 1 of n (so the constant term stays 1)
    depth first and keeps the first subset of the highest degree whose
    product has its support inside J; intermediate supports may shrink
    through cancellation, so only degree prunes the recursion. Every product
    of such Phi_d is monic, so t^deg is in its support and a subset whose
    degree is not in J is not tested. The search enters a subset only when
    some subset below it has a degree in J above the best degree so far,
    read off the bitset of the degrees the remaining factors can add; a
    pruned subset could never become the winner, so the winner is the one
    of the unpruned search.
    Returns None when no nonempty subset fits; raises ValueError past
    DIVISOR_SUBSET_CAP visited subsets.

    Each subset's product travels as one packed integer (_PackedDigits), one
    multiplication per step. Digits are wide enough for every coefficient:
    for polynomials |coeff(fg)| <= ||fg||_1 <= ||f||_1 * ||g||_1, and each
    ||Phi_d||_1 >= 1, so every coefficient of every subset product is at
    most L = prod ||Phi_d||_1 over all candidate d in absolute value, and a
    digit of B >= bitlength(L) + 1 bits (a sign bit) holds it. The support
    test is then a constant number of big-int operations, and only the
    winner's coefficients are decoded. Products travel mod t^_LOW_DIGITS,
    as the low digits of the packed product: the truncations multiply to
    the truncated product, within the same digit bound. When max(J) <
    _LOW_DIGITS that is the whole product; otherwise a subset with a low
    coefficient outside J is rejected from them, and one that passes
    multiplies its full factors for the exact test. All but J's mask and
    bitset comes from _divisor_table, kept per process per candidate set; its
    memo holds the low products of the subsets of at most 3 factors, where
    every search over those factors starts, up to _LOW_MEMO_CAP of them.
    """
    Jset = {j % n for j in J}
    require_admissible(Jset, n)
    max_j = max(Jset)
    if max_j == 0:
        return None
    lows, packed, packed_low, degrees, reach, memo = _divisor_table(
        tuple(d for d in divisors(n) if d > 1 and euler_phi(d) <= max_j))
    exact = max_j < _LOW_DIGITS  # then the products mod t^_LOW_DIGITS are whole
    digits = lows if exact else _PackedDigits(lows.nbytes, max_j + 1)
    outside = digits.half ^ digits.mask(Jset)
    j_bits = sum(1 << j for j in Jset)
    best_deg, best = 0, None
    wanted = j_bits & -2  # degrees in J above best_deg
    visited = 0

    def rec(i: int, parent: int, factor: int, deg: int, chosen: int) -> None:
        """Visit the subset chosen (a bitset of factor indices) whose product
        mod t^_LOW_DIGITS is parent * factor, or the memo's."""
        nonlocal best_deg, best, wanted, visited
        visited += 1
        if visited > DIVISOR_SUBSET_CAP:
            raise ValueError(f"divisor-subset search exceeded cap {DIVISOR_SUBSET_CAP}")
        X = memo.get(chosen)
        if X is None:
            X = lows.truncate(parent * factor)
            if chosen.bit_count() <= 3 and len(memo) < _LOW_MEMO_CAP:
                memo[chosen] = X
        if deg > best_deg and deg in Jset and not digits.nonzero(X) & outside:
            full = X if exact else math.prod(P for k, P in enumerate(packed) if chosen >> k & 1)
            if not digits.nonzero(full) & outside:
                best_deg, best = deg, full
                wanted = j_bits & -(2 << deg)
        for k in range(i, len(degrees)):
            nd = deg + degrees[k]
            if reach[k + 1] << nd & wanted:
                rec(k + 1, X, packed_low[k], nd, chosen | 1 << k)

    rec(0, 1, 1, 0, 0)
    return None if best is None else IntPolynomial(digits.unpack(best))
