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
at its degree, with no division by a dense polynomial. Only squarefree n are
computed this way; Phi_n(t) = Phi_r(t^{n/r}) and Psi_n(t) = Psi_r(t^{n/r})
for the radical r of n. As a runtime self-check, Phi_n must come out monic
and palindromic and Psi_n monic and anti-palindromic (t^n - 1 is
anti-palindromic and Phi_n palindromic for n >= 2); a failure raises. A
degree past DENSE_DEGREE_LIMIT is refused before any series is allocated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .numtheory import euler_phi, factorize, radical

__all__ = [
    "IntPolynomial",
    "NonExactDivision",
    "cyclotomic",
    "inverse_cyclotomic",
    "lam_leung",
    "support_and_gaps",
    "is_admissible_support",
    "CyclotomicStats",
    "cyclotomic_stats",
]

# Dense storage only; degrees beyond this are refused rather than silently slow.
DENSE_DEGREE_LIMIT = 2_000_000


class NonExactDivision(ArithmeticError):
    """Raised when polynomial division over Z leaves a remainder."""


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; coeffs[k] is the coefficient of t^k."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = self.coeffs
        if c and c[-1] == 0:
            last = len(c) - 1
            while last >= 0 and c[last] == 0:
                last -= 1
            c = c[:last + 1]
            object.__setattr__(self, "coeffs", c)
        if len(c) > DENSE_DEGREE_LIMIT:
            raise ValueError(f"degree {len(c) - 1} exceeds dense storage limit {DENSE_DEGREE_LIMIT}")

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

    def support(self) -> tuple[int, ...]:
        return tuple(k for k, c in enumerate(self.coeffs) if c != 0)

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
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                term = f"{mag}t" if k == 1 else f"{mag}t^{k}"
                parts.append(term if c > 0 else "-" + term)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _mobius_product(n: int, length: int, sign: int) -> list[int]:
    """Coefficients of t^0..t^(length-1) of prod_{d|n} (1 - t^d)^(sign*mu(n/d)).

    n must be squarefree. Multiplying by (1 - t^d) is a descending in-place
    update; dividing by it multiplies by 1 + t^d + t^2d + ..., an ascending
    one. All multiplies run before the divides.
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


@functools.lru_cache(maxsize=2048)
def _squarefree_factor(n: int, inverse: bool) -> IntPolynomial:
    """Phi_n, or Psi_n = (t^n - 1)/Phi_n when inverse, for squarefree n >= 2."""
    phi = euler_phi(n)
    if inverse:
        c = [-x for x in _mobius_product(n, n - phi + 1, -1)]
    else:
        c = _mobius_product(n, phi + 1, 1)
    # Phi_n (n >= 2) is monic and palindromic, Psi_n monic and anti-palindromic;
    # a slip anywhere in the truncated series breaks one of the two
    mirror = -1 if inverse else 1
    if c[-1] != 1 or any(x != mirror * y for x, y in zip(c, reversed(c))):
        kind = "inverse cyclotomic" if inverse else "cyclotomic"
        raise RuntimeError(f"{kind} self-check failed at n = {n}: not monic with the expected symmetry")
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
    from .numtheory import is_prime

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
    gap = max((b - a for a, b in zip(supp, supp[1:])), default=0)
    return supp, gap


def is_admissible_support(J, n: int) -> bool:
    """True iff 0 in J, J inside [0, n), and J and -J share only 0 mod n."""
    Jset = set(J)
    if 0 not in Jset:
        return False
    if any(not 0 <= j < n for j in Jset):
        return False
    return all((-j) % n not in Jset for j in Jset if j != 0)


@dataclass(frozen=True)
class CyclotomicStats:
    n: int
    phi: int
    radical: int
    nonzero_count: int
    max_gap: int
    height: int


def cyclotomic_stats(n: int) -> CyclotomicStats:
    h = cyclotomic(n)
    supp, gap = support_and_gaps(h)
    return CyclotomicStats(
        n=n,
        phi=euler_phi(n),
        radical=radical(n),
        nonzero_count=len(supp),
        max_gap=gap,
        height=max(abs(c) for c in h.coeffs),
    )
