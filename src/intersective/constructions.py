"""Lower-bound constructions and the Q*r^s upper-bound family.

The slab is the classical difference-avoiding set: tuples with entries in
{0..n-2} and a fixed coordinate sum. Two distinct members cannot differ by a
vector with all coordinates in {0,1}: the coordinate bounds keep differences
literal (no wraparound), and equal sums force a strictly positive coordinate
somewhere in each direction.

The construction family picks a window of consecutive primes p_1 < ... < p_m
with 1/2 < prod(1 - 1/p_j) < 1, sets r to their product, takes the least
prime Q in (r, 2r), and forms n = Q * r^s. The weight polynomial is the
product of the Q-th and r^s-th cyclotomic polynomials; its support splits
into blocks x + l*r^(s-1) with 0 <= x < Q that never overlap because
r^(s-1) > Q. All verification inequalities with fractional exponents are
decided exactly by comparing integer powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .abelian import GroupSpec
from .cyclotomic import IntPolynomial, cyclotomic
from .numtheory import is_prime, next_prime
from .oracle import exact_avoidance

__all__ = [
    "slab_size",
    "slab_sizes_upto",
    "slab_members",
    "slab_is_valid",
    "ProductBound",
    "product_lower_bound",
    "ConstructionInstance",
    "ConstructionSearchError",
    "build_construction",
    "BulletCheck",
    "ConstructionReport",
    "verify_construction",
    "construction_upper_bound",
    "SLAB_ENUM_CAP",
    "EPSILON_DENOMINATOR_CAP",
]

SLAB_ENUM_CAP = 10**6
EPSILON_DENOMINATOR_CAP = 64
_WINDOW_SLIDE_CAP = 32


# ---------------------------------------------------------------------------
# slab


def _slab_target(n: int, N: int) -> int:
    return (n - 2) * N // 2


def slab_size(n: int, N: int) -> int:
    """Exact number of tuples in {0..n-2}^N with coordinate sum T = (n-2)N//2.

    Inclusion-exclusion over the set of coordinates pushed to n - 1 or more:
    sum over k of (-1)^k C(N, k) C(T - k(n-1) + N - 1, N - 1), k(n-1) <= T,
    so at most N/2 + 1 binomials whatever n is. The slab is a valid lower
    bound witness family for the pair support {0, 1} in Z_n.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    T = _slab_target(n, N)
    return sum((-1) ** k * math.comb(N, k) * math.comb(T - k * (n - 1) + N - 1, N - 1)
               for k in range(T // (n - 1) + 1))


def slab_sizes_upto(n: int, max_N: int) -> list[int]:
    """slab_size(n, N) for N = 1..max_N."""
    if max_N < 1:
        raise ValueError(f"need N >= 1, got {max_N}")
    return [slab_size(n, N) for N in range(1, max_N + 1)]


def slab_members(n: int, N: int) -> np.ndarray:
    """All slab tuples as an int16 array of shape (size, N), lexicographic order.

    Rows grow one coordinate at a time: every kept prefix is followed by each
    digit 0..n-2 in turn, which keeps the order, and a prefix stays only
    while the remaining coordinates can still reach the target sum, so the
    (n-1)^N tuples outside the slab are never built. Refuses more than
    SLAB_ENUM_CAP tuples in {0..n-2}^N.
    """
    if n < 3 or N < 1:
        raise ValueError(f"need n >= 3 and N >= 1, got n={n}, N={N}")
    total = (n - 1) ** N
    if total > SLAB_ENUM_CAP:
        raise ValueError(f"{total} tuples exceed enumeration cap {SLAB_ENUM_CAP}")
    T = _slab_target(n, N)
    if min(n - 2, T) > np.iinfo(np.int16).max:
        raise ValueError(f"slab entries up to {min(n - 2, T)} do not fit in int16")
    digits = np.arange(n - 1)
    rows = np.zeros((1, 0), dtype=np.int16)
    sums = np.zeros(1, dtype=np.int64)
    for k in range(N):
        reach = (N - 1 - k) * (n - 2)  # the most the later coordinates can add
        cand = (sums[:, None] + digits).ravel()  # prefix-major, digit-minor
        keep = np.flatnonzero((cand <= T) & (cand + reach >= T))
        rows = np.column_stack((rows[keep // (n - 1)], (keep % (n - 1)).astype(np.int16)))
        sums = cand[keep]
    return rows


def slab_is_valid(n: int, N: int) -> bool:
    """Exhaustive check that no two distinct slab members differ by a {0,1}-vector.

    Two members a != b fail when b - a lies in {0,1}^N or in {0,-1}^N; the
    second case is a - b in {0,1}^N, so the check is whether some member
    plus a nonzero step e in {0,1}^N is again a member. Members have entries
    <= n-2, so codes in base (largest entry + 2) <= n of a + e need no carry
    and stay injective, and one sorted-set membership test per step decides it. That costs about
    2^N * |S| log |S| against |S|^2 * N for the pairwise differences, so the
    translate check runs when 2^N - 1 < |S| and the pairwise loop otherwise.
    For n = 3 the members are 0/1 rows, and b - a lies in {0,1}^N exactly
    when the bitmask of a is contained in that of b: one vectorised
    containment test per member replaces the pairwise loop (N = 15 or 16,
    where 2^N is huge next to |S|).
    """
    return _rows_avoid_steps(slab_members(n, N))


def _rows_avoid_steps(arr: np.ndarray) -> bool:
    """True iff no two rows of a nonnegative array differ by a {0,1}- or {0,-1}-vector.

    Equal rows differ by the zero vector, so duplicates fail too.
    """
    m, N = arr.shape
    top = int(arr.max(initial=0))
    if top <= 1 and N < 63:
        return _subset_avoids(arr)
    base = top + 2  # every entry + 1 stays a base digit
    if 2**N - 1 < m and base**N <= np.iinfo(np.int64).max:
        return _translate_avoids(arr, base)
    return _pairwise_avoids(arr)


def _translate_avoids(arr: np.ndarray, base: int) -> bool:
    weights = base ** np.arange(arr.shape[1], dtype=np.int64)
    codes = np.sort(arr.astype(np.int64) @ weights)
    if (codes[1:] == codes[:-1]).any():
        return False
    for mask in range(1, 2 ** arr.shape[1]):
        step = sum(int(w) for i, w in enumerate(weights) if mask >> i & 1)
        if np.isin(codes + step, codes, assume_unique=True).any():
            return False
    return True


def _subset_avoids(arr: np.ndarray) -> bool:
    """_rows_avoid_steps for 0/1 rows: b - a is in {0,1}^N exactly when mask(a) is inside mask(b).

    A row whose mask lies inside another row's mask (a duplicate included)
    fails, which covers both step directions; every pair is compared.
    """
    masks = arr.astype(np.int64) @ (1 << np.arange(arr.shape[1], dtype=np.int64))
    for mask in masks:
        if np.count_nonzero((masks & mask) == mask) > 1:
            return False
    return True


def _pairwise_avoids(arr: np.ndarray) -> bool:
    for i in range(len(arr) - 1):
        d = arr[i + 1:] - arr[i]
        up = ((d == 0) | (d == 1)).all(axis=1)
        down = ((d == 0) | (d == -1)).all(axis=1)
        if (up | down).any():
            return False
    return True


# ---------------------------------------------------------------------------
# product lower bound


@dataclass(frozen=True)
class ProductBound:
    """exact-at-N=1 value raised to the N-th power; base_optimal=False flags a timeout."""

    value: int
    base_value: int
    base_optimal: bool


def product_lower_bound(G: GroupSpec, J: Iterable, N: int, *, timeout: float | None = None) -> ProductBound:
    """Power lower bound: the largest avoider at N = 1, taken to the N-th power.

    An avoider B at N = 1 yields the product avoider B^N, so the value is a
    true lower bound; if the N = 1 search timed out the base is itself only a
    lower bound and the result is flagged.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    base = exact_avoidance(G, J, 1, timeout=timeout)
    return ProductBound(base.value**N, base.value, base.optimal)


# ---------------------------------------------------------------------------
# exact rational-power comparisons


def _power_compare(lhs: int, base: int, num: int, den: int) -> int:
    """Sign of lhs - base**(num/den) for positive integers, exactly."""
    if lhs <= 0:
        raise ValueError(f"need positive left side, got {lhs}")
    if base < 1 or num < 0 or den < 1:
        raise ValueError(f"bad power comparison ({base}, {num}/{den})")
    left = lhs**den
    right = base**num
    return (left > right) - (left < right)


# ---------------------------------------------------------------------------
# the construction family


class ConstructionSearchError(RuntimeError):
    """No verifying instance within the prime-window search budget."""


@dataclass(frozen=True)
class ConstructionInstance:
    """One member of the Q*r^s family with its symbolic support description.

    The weight polynomial is cyclotomic(Q) * cyclotomic(r^s); its support is
    {x + l*block : 0 <= x < Q, l in phi_r_support} with block = r^(s-1) > Q,
    so every support element has a unique (x, l) decomposition. degree equals
    Q - 1 + phi(r) * block and also equals the largest support element.
    """

    M: int
    epsilon: Fraction
    primes: tuple[int, ...]
    r: int
    Q: int
    s: int
    n: int
    degree: int
    support_size: int
    block: int
    phi_r_support: tuple[int, ...]

    def contains(self, j: int) -> bool:
        """Membership in the support, O(1) via the block decomposition."""
        if not 0 <= j < self.n:
            return False
        return j % self.block < self.Q and j // self.block in self._phi_set()

    def _phi_set(self) -> frozenset:
        if not hasattr(self, "_phi_cache"):
            object.__setattr__(self, "_phi_cache", frozenset(self.phi_r_support))
        return self._phi_cache

    def iter_support(self) -> Iterator[int]:
        """Support elements in increasing order, never materialized."""
        for ell in self.phi_r_support:
            base = ell * self.block
            for x in range(self.Q):
                yield base + x

    def weight_polynomial(self) -> IntPolynomial:
        return cyclotomic(self.Q) * cyclotomic(self.r**self.s)

    def to_json_dict(self) -> dict:
        return {
            "M": str(self.M),
            "epsilon": str(self.epsilon),
            "primes": [str(p) for p in self.primes],
            "r": str(self.r),
            "Q": str(self.Q),
            "s": str(self.s),
            "n": str(self.n),
            "degree": str(self.degree),
            "support_size": str(self.support_size),
            "block": str(self.block),
        }


def _admissible_s(epsilon: Fraction) -> int:
    # largest s with epsilon <= 3/(s+1); the spelled-out examples fix the
    # largest-not-smallest reading
    a, b = epsilon.numerator, epsilon.denominator
    return (3 * b - a) // a


def build_construction(M: int, epsilon) -> ConstructionInstance:
    """Deterministic smallest verifying instance for the given M and epsilon.

    Starts from the M consecutive primes just above M and slides the window
    upward, at most _WINDOW_SLIDE_CAP times, until the prime-product
    condition holds and every verification bullet passes in exact
    arithmetic. epsilon must be a rational in (0, 3/4] with denominator at
    most 64; s is the largest value with epsilon <= 3/(s+1), which keeps
    s >= 3 and the support blocks disjoint.
    """
    if M < 2:
        raise ValueError(f"need M >= 2, got {M}")
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= Fraction(3, 4):
        raise ValueError(f"epsilon {epsilon} outside (0, 3/4]: no admissible s >= 3")
    if epsilon.denominator > EPSILON_DENOMINATOR_CAP:
        raise ValueError(f"epsilon denominator {epsilon.denominator} exceeds {EPSILON_DENOMINATOR_CAP}")
    s = _admissible_s(epsilon)
    if s < 3:
        raise RuntimeError(f"epsilon {epsilon} gave s = {s}; the support blocks need s >= 3")

    window = [next_prime(M)]
    while len(window) < M:
        window.append(next_prime(window[-1]))

    failures = []
    for _ in range(_WINDOW_SLIDE_CAP):
        inst = _assemble(M, epsilon, tuple(window), s)
        if inst is None:
            failures.append(f"window {tuple(window)}: prime-product condition failed")
        else:
            report = verify_construction(inst)
            if report.passed:
                return inst
            failures.append(f"window {tuple(window)}: {report.first_failure()}")
        window = window[1:] + [next_prime(window[-1])]
    raise ConstructionSearchError("; ".join(failures[-4:]))


def _assemble(M: int, epsilon: Fraction, primes: tuple[int, ...], s: int) -> ConstructionInstance | None:
    # 1/2 < prod(1 - 1/p) is the only half that can fail (the product is < 1
    # for any nonempty prime set)
    num = math.prod(p - 1 for p in primes)
    den = math.prod(primes)
    if 2 * num <= den:
        return None
    r = den
    Q = next_prime(r)  # Q < 2r by Bertrand's postulate
    block = r ** (s - 1)
    if block <= Q:  # s >= 3 guarantees r^(s-1) >= r^2 > 2r > Q
        raise RuntimeError(f"block r^(s-1) = {block} does not exceed Q = {Q}: support blocks would overlap")
    n = Q * r**s
    degree = Q - 1 + num * block  # num = phi(r) for squarefree r
    phi_support = cyclotomic(r).support()
    inst = ConstructionInstance(
        M=M, epsilon=epsilon, primes=primes, r=r, Q=Q, s=s, n=n,
        degree=degree, support_size=Q * len(phi_support), block=block,
        phi_r_support=phi_support,
    )
    a, b = epsilon.numerator, epsilon.denominator
    # 4 * n^epsilon > n^(3/(s+1)), exactly: both sides to the b*(s+1) power
    lhs = 4 ** (b * (s + 1)) * n ** (a * (s + 1))
    if lhs <= n ** (3 * b):
        return None
    return inst


@dataclass(frozen=True)
class BulletCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ConstructionReport:
    bullets: tuple[BulletCheck, ...]
    degenerate_epsilon: bool

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.bullets)

    def first_failure(self) -> str:
        for b in self.bullets:
            if not b.passed:
                return f"{b.name}: {b.detail}"
        return "all bullets passed"


def verify_construction(inst: ConstructionInstance) -> ConstructionReport:
    """Check the four defining inequalities of an instance in exact arithmetic.

    (1) n = Q * prod p_j^s with at least M distinct primes, all >= M;
    (2) the support S satisfies S ∩ -S = {0} mod n, contains 1, and
        |S|^(3b) >= n^a for epsilon = a/b;
    (3) (8*degree)^(3b) >= n^(3b-a) and degree^b >= n^(b-a) * |S|^b;
    (4) every nonzero support element j has
        (24*(degree - gcd(j, n)))^(3b) >= n^(3b-a).
    A zero epsilon makes the power comparisons trivial and is flagged.
    """
    a, b = inst.epsilon.numerator, inst.epsilon.denominator
    bullets = []

    structural = (
        inst.n == inst.Q * inst.r**inst.s
        and inst.r == math.prod(inst.primes)
        and len(set(inst.primes)) == len(inst.primes) >= inst.M
        and all(is_prime(p) for p in inst.primes)
        and is_prime(inst.Q)
        and inst.Q not in inst.primes
        and min(inst.primes) >= inst.M
    )
    bullets.append(BulletCheck(
        "prime-divisors", structural,
        f"n = {inst.Q} * {inst.r}^{inst.s}, primes {inst.primes}"))

    sym_ok = inst.contains(1)
    collision = None
    for j in inst.iter_support():
        if j != 0 and inst.contains(inst.n - j):
            collision = j
            break
    sym_ok = sym_ok and collision is None
    size_ok = _power_compare(inst.support_size, inst.n, a, 3 * b) >= 0
    bullets.append(BulletCheck(
        "support-admissible", sym_ok and size_ok,
        f"collision at {collision}" if collision is not None
        else f"|S| = {inst.support_size} vs n^({a}/{3*b})"))

    deg_abs = _power_compare(8 * inst.degree, inst.n, 3 * b - a, 3 * b) >= 0
    if a <= b:
        deg_rel = inst.degree**b >= inst.n ** (b - a) * inst.support_size**b
    else:  # epsilon > 1 cannot arise from generation; keep the check total
        deg_rel = inst.degree**b * inst.n ** (a - b) >= inst.support_size**b
    bullets.append(BulletCheck(
        "degree-dominates", deg_abs and deg_rel,
        f"degree {inst.degree} vs (1/8)n^({3*b-a}/{3*b}) and n^({b-a}/{b})*|S|"))

    bad = None
    ok_by_gcd: dict[int, bool] = {}  # the outcome depends on j only through gcd(j, n)
    for j in inst.iter_support():
        if j == 0:
            continue
        g = math.gcd(j, inst.n)
        ok = ok_by_gcd.get(g)
        if ok is None:
            slack = inst.degree - g
            ok = ok_by_gcd[g] = slack > 0 and _power_compare(24 * slack, inst.n, 3 * b - a, 3 * b) >= 0
        if not ok:
            bad = j
            break
    bullets.append(BulletCheck(
        "subgroup-index", bad is None,
        f"element {bad} has gcd {math.gcd(bad, inst.n)}" if bad is not None
        else f"max gcd slack ok over {inst.support_size - 1} elements"))

    return ConstructionReport(tuple(bullets), degenerate_epsilon=(a == 0))


def construction_upper_bound(inst: ConstructionInstance, N: int) -> int:
    """(n - degree)^N for a verified instance.

    Valid because the weight polynomial divides t^n - 1 (Q and r^s are
    coprime, so the two cyclotomic factors are distinct divisors), which
    turns the tuple count into the closed root-count form.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    report = verify_construction(inst)
    if not report.passed:
        raise ValueError(f"unverified instance: {report.first_failure()}")
    return (inst.n - inst.degree) ** N
