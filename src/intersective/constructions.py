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
decided exactly against integer roots of integer powers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

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


def _check_enumerable(n: int, N: int) -> None:
    if n < 3 or N < 1:
        raise ValueError(f"need n >= 3 and N >= 1, got n={n}, N={N}")
    total = (n - 1) ** N
    if total > SLAB_ENUM_CAP:
        raise ValueError(f"{total} tuples exceed enumeration cap {SLAB_ENUM_CAP}")


def _slab_dp(n: int, N: int, empty, prepend) -> list:
    """Slab members built from the back, grouped by coordinate sum.

    tails[s] holds the last j coordinates of the members, those with sum s
    that the first N - j coordinates can still complete to T, as
    prepend(j, d, tails[s - d]) over their first digit d in increasing
    order; only s = T is kept at j = N, so no tail off the target sum is
    built. When prepend keeps the order of its tails, so does each list,
    and the members come out in lexicographic order.
    """
    T = _slab_target(n, N)
    tails = {0: [empty]}
    for j in range(1, N + 1):
        lo = T if j == N else max(0, T - (N - j) * (n - 2))
        extended = {}
        for s in range(lo, min(T, j * (n - 2)) + 1):
            members = []
            for d in range(max(0, s - (j - 1) * (n - 2)), min(n - 2, s) + 1):
                members += prepend(j, d, tails[s - d])
            extended[s] = members
        tails = extended
    return tails[T]


def slab_members(n: int, N: int) -> list[tuple[int, ...]]:
    """All slab tuples, in lexicographic order.

    Tuples are built from the back, one coordinate at a time, and every
    tail of a given sum is shared by all the members that end in it (see
    _slab_dp), so the (n-1)^N tuples outside the slab are never built.
    Refuses more than SLAB_ENUM_CAP tuples in {0..n-2}^N.
    """
    _check_enumerable(n, N)
    return _slab_dp(n, N, (), lambda j, d, tails: [(d,) + t for t in tails])


def slab_is_valid(n: int, N: int) -> bool:
    """Exhaustive check that no two distinct slab members differ by a {0,1}-vector.

    Two members a != b fail when b - a lies in {0,1}^N or in {0,-1}^N; the
    second case is a - b in {0,1}^N, so the check is whether some member
    plus a nonzero step e in {0,1}^N is again a member. Members have entries
    at most top = min(n - 2, T), so their codes sum a_i * base^(N-1-i) with
    base = top + 2 take a + e to code(a) + code(e) without a carry, and the
    members are checked as codes on a bitset (see _translate_avoids). When
    top <= 1 (always for n = 3) the members are 0/1 rows, coded in base 2 as
    bitmasks, and b - a lies in {0,1}^N exactly when mask(a) lies inside
    mask(b) (see _subset_avoids). Equal members differ by the zero vector, so
    duplicates fail too. Refuses more than SLAB_ENUM_CAP tuples in {0..n-2}^N.
    """
    _check_enumerable(n, N)
    top = min(n - 2, _slab_target(n, N))
    if top <= 1:
        return _subset_avoids(_slab_codes(n, N, 2))
    base = top + 2
    return _translate_avoids(_slab_codes(n, N, base), base, N)


def _slab_codes(n: int, N: int, base: int) -> list[int]:
    """Codes sum a_i * base^(N-1-i) of the slab members a, from the DP of slab_members."""

    def prepend(j: int, d: int, tails: list[int]) -> list[int]:
        step = d * base ** (j - 1)
        return [step + t for t in tails]

    return _slab_dp(n, N, 0, prepend)


def _translate_avoids(codes: list[int], base: int, N: int) -> bool:
    """No code c with c + code(e) also a code, e a nonzero step, on a bitset M of the codes.

    Bit c of M >> code(e) is set iff c + code(e) is a code, so any
    (M >> code(e)) & M is a failure; fewer bits than codes means a duplicate.
    """
    flags = bytearray(b"0") * (max(codes, default=0) + 1)
    for c in codes:
        flags[-1 - c] = ord("1")
    M = int(flags, 2)
    if M.bit_count() != len(codes):
        return False
    steps = [0]
    for i in range(N):
        steps += [s + base**i for s in steps]
    return not any(M >> step & M for step in steps[1:])


def _subset_avoids(masks: list[int]) -> bool:
    """For 0/1 rows as bitmasks: b - a is in {0,1}^N exactly when mask(a) lies inside mask(b).

    That covers both step directions. A proper subset has fewer bits, so
    masks are grouped by popcount: a duplicate fails inside its group, and
    containment is only tested from each group into the larger ones.
    """
    groups: dict[int, set[int]] = {}
    for mask in masks:
        groups.setdefault(mask.bit_count(), set()).add(mask)
    if sum(map(len, groups.values())) != len(masks):
        return False
    counts = sorted(groups)
    return not any(a & b == a for i, p in enumerate(counts) for q in counts[i + 1:]
                   for a in groups[p] for b in groups[q])


# ---------------------------------------------------------------------------
# product lower bound


class ProductBound(NamedTuple):
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
# the construction family


class ConstructionSearchError(RuntimeError):
    """No verifying instance within the prime-window search budget."""


class ConstructionInstance(NamedTuple):
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
        """Membership in the support via the block decomposition."""
        if not 0 <= j < self.n:
            return False
        return j % self.block < self.Q and j // self.block in self.phi_r_support

    def iter_support(self) -> Iterator[int]:
        """Support elements in increasing order, never materialized."""
        for ell in self.phi_r_support:
            base = ell * self.block
            for x in range(self.Q):
                yield base + x

    def weight_polynomial(self) -> IntPolynomial:
        return cyclotomic(self.Q) * cyclotomic(self.r**self.s)

    def to_json_dict(self) -> dict:
        names = ("M", "epsilon", "primes", "r", "Q", "s", "n", "degree", "support_size", "block")
        obj = {name: str(getattr(self, name)) for name in names}
        obj["primes"] = [str(p) for p in self.primes]  # keeps its place in the key order
        return obj


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
    return _build_verified(M, epsilon)[0]


def _build_verified(M: int, epsilon) -> tuple[ConstructionInstance, ConstructionReport]:
    """build_construction's instance with the passing report that accepted it.

    The report is returned, never stored on the instance: a copy made with
    _replace would carry it to fields it never checked.
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
                return inst, report
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


class BulletCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


class ConstructionReport(NamedTuple):
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
    The description itself is checked too: (2) fails unless phi_r_support
    is supp Phi_r, block = r^(s-1) > Q and support_size = Q * |phi_r_support|,
    and (3) fails unless degree is the largest support element.

    Each power inequality lhs^(3b) >= X above, with lhs > 0, is decided as
    lhs >= R = max(_ceil_root(X, 3b), 1), the least lhs that passes. (3)
    and (4) share X = n^(3b-a): j passes (4) iff gcd(j, n) <= g_max =
    degree - ceil(R/24), so every j <= g_max passes (gcd(j, n) <= j) and
    only the elements above g_max are scanned. (2) sweeps the blocks of S
    against those of n - S (see _first_collision). A zero epsilon is flagged.
    """
    a, b = inst.epsilon.numerator, inst.epsilon.denominator
    if not 0 <= a <= 3 * b:
        raise ValueError(f"epsilon {inst.epsilon} outside [0, 3]: the power comparisons need 0 <= a <= 3b")
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

    phi_support = cyclotomic(inst.r).support()
    block = inst.r ** (inst.s - 1)
    described = (
        inst.phi_r_support == phi_support
        and inst.block == block > inst.Q
        and inst.support_size == inst.Q * len(phi_support)
    )
    collision = _first_collision(inst)
    sym_ok = inst.contains(1) and collision is None
    size_ok = inst.support_size >= max(_ceil_root(inst.n**a, 3 * b), 1)
    if collision is not None:
        detail = f"collision at {collision}"
    elif not described:
        detail = f"block {inst.block} and |S| = {inst.support_size} do not describe Q * supp Phi_{inst.r}"
    else:
        detail = f"|S| = {inst.support_size} vs n^({a}/{3*b})"
    bullets.append(BulletCheck("support-admissible", described and sym_ok and size_ok, detail))

    R = max(_ceil_root(inst.n ** (3 * b - a), 3 * b), 1)  # shared by (3) and (4)
    top = phi_support[-1] * block + inst.Q - 1
    if a <= b:
        deg_rel = inst.degree**b >= inst.n ** (b - a) * inst.support_size**b
    else:  # epsilon > 1 cannot arise from generation; keep the check total
        deg_rel = inst.degree**b * inst.n ** (a - b) >= inst.support_size**b
    bullets.append(BulletCheck(
        "degree-dominates", inst.degree == top and 8 * inst.degree >= R and deg_rel,
        f"degree {inst.degree} vs (1/8)n^({3*b-a}/{3*b}) and n^({b-a}/{b})*|S|" if inst.degree == top
        else f"degree {inst.degree} is not the largest support element {top}"))

    g_max = inst.degree - -(-R // 24)
    bad = next((j for lo, hi in _blocks(inst) for j in range(max(lo, g_max + 1, 1), hi + 1)
                if math.gcd(j, inst.n) > g_max), None)
    bullets.append(BulletCheck(
        "subgroup-index", bad is None,
        f"element {bad} has gcd {math.gcd(bad, inst.n)}" if bad is not None
        else f"max gcd slack ok over {inst.support_size - 1} elements"))

    return ConstructionReport(tuple(bullets), degenerate_epsilon=(a == 0))


def _ceil_root(x: int, k: int) -> int:
    """Least r >= 0 with r**k >= x, exactly, for k >= 1: 1 + the k-th root of m = x - 1.

    Integer Newton steps y -> ((k-1)*y + m // y^(k-1)) // k fall strictly
    while above that root and, from any y > 0, land at or above it (AM-GM),
    so they stop on it. They start at y = u * 2^t > m^(1/k), u the ceil root
    of x // 2^(kt) + 1 (half the root's bits, found the same way).
    """
    if x <= 1:
        return max(x, 0)
    m, t = x - 1, (x.bit_length() - 1) // (2 * k)
    y = _ceil_root((x >> k * t) + 1, k) << t if t else 4  # x < 2^(2k) has a root below 4
    while (z := ((k - 1) * y + m // y ** (k - 1)) // k) < y:
        y = z
    return y + 1


def _blocks(inst: ConstructionInstance) -> list[tuple[int, int]]:
    """The support as intervals [l*block, l*block + Q - 1], l in phi_r_support."""
    return [(ell * inst.block, ell * inst.block + inst.Q - 1) for ell in inst.phi_r_support]


def _first_collision(inst: ConstructionInstance) -> int | None:
    """Smallest j in S with 1 <= j <= n and n - j in S, or None.

    When phi_r_support increases and block >= Q (bullet (2) checks both),
    S and n - S are each sorted lists of disjoint intervals, so one merge
    sweep meets their common points in increasing order: O(|phi_r_support|).
    """
    n = inst.n
    ours = _blocks(inst)
    mirrored = [(n - hi, n - lo) for lo, hi in reversed(ours)]
    i = k = 0
    while i < len(ours) and k < len(mirrored):
        lo = max(ours[i][0], mirrored[k][0], 1)
        if lo <= min(ours[i][1], mirrored[k][1], n):
            return lo
        if ours[i][1] < mirrored[k][1]:
            i += 1
        else:
            k += 1
    return None

