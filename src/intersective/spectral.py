"""Spectral machinery: weighted Cayley eigenvalues, sign counts, tuple counting.

Numeric layer: ComplexBall, the closed disk with center (x + iy) / 2^p and
radius r / 2^p for Python ints x, y, r and p, so every ball is exact dyadic
data. The error model of each operation:

- ball_add and ball_scale_int are exact.
- ball_mul floors both center products back to 2^-p. With |c| = |x| + |y|,
  which bounds a center's modulus, any points of the two disks differ in
  product from the product of the centers by at most
  |c_a| r_b + |c_b| r_a + r_a r_b; that is rounded up to a multiple of 2^-p,
  and the floors move the center by less than sqrt(2) < 2 units of 2^-p,
  so the radius is ceil((|c_a| r_b + |c_b| r_a + r_a r_b) / 2^p) + 2.
- Operands at different p are aligned by exact left shifts to the larger p.
- ball_root_of_unity works at prec + _GUARD bits. pi comes from Machin's
  formula with a counted truncation bound, the angle is reduced to within
  pi/4 of a quarter turn (powers of i are exact), and cos and sin come from
  integer Taylor series whose floor errors and tail are counted. The result
  is floored to prec bits, which adds 2 units of 2^-prec to the radius.

Sign decisions escalate the precision, and exact ties are settled
symbolically: a product of values h(e_n(v_j)) lives in Z[t]/(t^n - 1), so
"real part equals 1" is equivalent to an integer polynomial being divisible
by the n-th cyclotomic polynomial. Ambiguity at the precision cap is counted
conservatively for the bound direction in force and reported, never dropped.

Tuple counts walk the value multisets depth first, carrying each prefix's
product as a ball at PRECISION_START: it starts at exactly 1, and each step
is one complex multiplication under ball_mul's radius rule, so every leaf
ball encloses its product. A leaf whose real part clears 1 either way is
decided there; every other leaf goes to the ball tier above, which breaks
exact ties and recomputes the rest at rising precision. Since
ball_mul's radius grows with the radius and size of the value multiplied,
the largest of them over all values bound the radius of every leaf of a
prefix, which gives each prefix one pair of thresholds on the unshifted
real center: a leaf past one of them is decided by two multiplications and
one comparison, and only a leaf between them computes its own radius.
Tuples with a coordinate v where h(e_n(v)) = 0 are counted at once, not
visited. As h has integer coefficients, h(e_n(-v)) is the conjugate of
h(e_n(v)), so a multiset and its negation have the same real part: the walk
decides one multiset of each such pair and counts it for both.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .abelian import (GroupSpec, character_value, cyclic_residues, element_order,
                      subgroup_generated)
from .cyclotomic import IntPolynomial, cyclotomic, is_admissible_support
from .numtheory import divisors, euler_phi

__all__ = [
    "ComplexBall",
    "WeightFunction",
    "weight_from_polynomial",
    "cayley_eigenvalue",
    "count_nonneg_tuples",
    "sign_count_tuples",
    "SignCount",
    "residue_dp_count",
    "residue_dp_profile",
    "spectral_upper_bound",
    "clique_bounds",
    "CliqueBound",
    "MultisetCapExceeded",
    "PRECISION_START",
    "PRECISION_CAP",
]

PRECISION_START = 64
PRECISION_CAP = 1024
_GUARD = 32  # extra bits a root of unity is computed with before rounding to its precision

MULTISET_CAP = 10**8


class MultisetCapExceeded(ValueError):
    """Tuple enumeration would exceed MULTISET_CAP multisets."""


class ComplexBall(NamedTuple):
    """Closed disk {z : |z - (x + i*y) / 2^p| <= r / 2^p} for integers x, y and r, p >= 0.

    re, im and rad read the center and radius as exact dyadic Fractions.
    """

    x: int
    y: int
    r: int
    p: int

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, 1 << self.p)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, 1 << self.p)

    @property
    def rad(self) -> Fraction:
        return Fraction(self.r, 1 << self.p)

    def real_interval(self) -> tuple[Fraction, Fraction]:
        return self.re - self.rad, self.re + self.rad

    def contains_real(self, x) -> bool:
        d = Fraction(x) * (1 << self.p) - self.x
        return d * d + self.y**2 <= self.r**2


def ball_exact_int(k: int) -> ComplexBall:
    return ComplexBall(k, 0, 0, 0)


def _atan_inv(x: int, bits: int) -> tuple[int, int]:
    """(A, e) with |A - atan(1/x) * 2^bits| <= e, for an integer x >= 2.

    Term k of the series sum (-1)^k / ((2k + 1) x^(2k+1)) is computed as
    floor(2^bits / (x^(2k+1) (2k + 1))) exactly, since nested floor divisions
    by positive integers compose; each is short by less than 1. The series
    stops at the first k with 2^bits < x^(2k+1), where the alternating,
    decreasing tail is below 1: e = (number of terms) + 1.
    """
    power = (1 << bits) // x
    total = k = 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= x * x
        k += 1
    return total, k + 1


@functools.lru_cache(maxsize=16)
def _pi(bits: int) -> tuple[int, int]:
    """(P, e) with |P - pi * 2^bits| <= e, from Machin's pi = 16 atan(1/5) - 4 atan(1/239)."""
    a5, e5 = _atan_inv(5, bits)
    a239, e239 = _atan_inv(239, bits)
    return 16 * a5 - 4 * a239, 16 * e5 + 4 * e239


def _cos_sin(t: int, bits: int) -> tuple[int, int, int]:
    """(c, s, e) with c and s within e of cos(x) * 2^bits and sin(x) * 2^bits,
    for x = t / 2^bits and |t| < 2^bits.

    Taylor term j, |x|^j / j! * 2^bits, is computed as
    floor(term_{j-1} * |t| / (j * 2^bits)); as |x| < 1 it falls short by
    less than 1 + (shortfall of term j - 1) / j, hence by less than 2. The
    series stops at the first zero term, number J >= 1, whose true value is
    then below 2, and so the tail from it, with ratios below 1/2, is below 4:
    e = 2J + 4.
    """
    a = abs(t)
    c = s = 0
    term, j = 1 << bits, 0
    while term:
        signed = -term if j & 2 else term  # signs + + - - repeat with period 4
        if j & 1:
            s += signed
        else:
            c += signed
        j += 1
        term = term * a // (j << bits)
    return c, s if t >= 0 else -s, 2 * j + 4


def ball_root_of_unity(num: int, den: int, prec: int) -> ComplexBall:
    """e(num/den) as a ball at 2^-prec.

    With o = round(4 num / den), e(num/den) = i^o * e(r / (4 den)) for
    r = 4 num - o * den, |r| <= |den| / 2, so the residual angle
    x = pi * r / (2 den) has |x| <= pi/4.
    """
    bits = prec + _GUARD
    o = (8 * num + den) // (2 * den)
    r = 4 * num - o * den
    pi, pi_err = _pi(bits)
    c, s, err = _cos_sin(pi * r // (2 * den), bits)
    # x * 2^bits is off by at most |r / (2 den)| <= 1/4 of pi's error, plus the floor,
    # and cos and sin are 1-Lipschitz
    err += pi_err // 4 + 2
    for _ in range(o % 4):
        c, s = -s, c
    # |(dc, ds)| <= 2 err before the floors, which add less than 2 units after
    return ComplexBall(c >> _GUARD, s >> _GUARD, -(-2 * err >> _GUARD) + 2, prec)


def _aligned(a: ComplexBall, b: ComplexBall) -> tuple[tuple[int, int, int], tuple[int, int, int], int]:
    """(x, y, r) of both balls at the larger of their two p, by exact left shifts."""
    p = max(a.p, b.p)
    sa, sb = p - a.p, p - b.p
    return (a.x << sa, a.y << sa, a.r << sa), (b.x << sb, b.y << sb, b.r << sb), p


def ball_add(a: ComplexBall, b: ComplexBall) -> ComplexBall:
    (ax, ay, ar), (bx, by, br), p = _aligned(a, b)
    return ComplexBall(ax + bx, ay + by, ar + br, p)


def ball_mul(a: ComplexBall, b: ComplexBall) -> ComplexBall:
    (ax, ay, ar), (bx, by, br), p = _aligned(a, b)
    err = (abs(ax) + abs(ay)) * br + (abs(bx) + abs(by)) * ar + ar * br
    return ComplexBall((ax * bx - ay * by) >> p, (ax * by + ay * bx) >> p,
                       -(-err >> p) + 2, p)


def ball_scale_int(a: ComplexBall, k: int) -> ComplexBall:
    return ComplexBall(a.x * k, a.y * k, a.r * abs(k), a.p)


def ball_pow(a: ComplexBall, k: int) -> ComplexBall:
    if k < 0:
        raise ValueError(f"ball powers must be >= 0, got {k}")
    out, base = ball_exact_int(1), a
    while k:
        if k & 1:
            out = ball_mul(out, base)
        k >>= 1
        if k:
            base = ball_mul(base, base)
    return out


class WeightFunction(NamedTuple):
    """Symmetric integer weight on Z_n, stored as sorted (residue, value) pairs."""

    n: int
    items: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.items)

    def support(self) -> tuple[int, ...]:
        """Nonzero residues; the connection set S = support \\ {0}."""
        return tuple(k for k, _ in self.items if k != 0)

    def is_symmetric(self) -> bool:
        d = self.as_dict()
        return all(d.get((-k) % self.n) == v for k, v in d.items())


def weight_from_polynomial(h: IntPolynomial, n: int) -> WeightFunction:
    """Symmetric extension of h's coefficients: f(k) = f(-k) = coeff_k, f(0) = 1.

    Requires h(0) = 1, support inside [0, n), and support admissible mod n
    (no nonzero k with both k and -k in the support).
    """
    supp = h.support()
    if h[0] != 1:
        raise ValueError(f"constant term must be 1, got {h[0]}")
    if any(k >= n for k in supp):
        raise ValueError(f"support {supp} does not fit inside [0, {n})")
    if not is_admissible_support(supp, n):
        raise ValueError(f"support {supp} collides with its negation mod {n}")
    mapping = {0: 1}
    for k in supp:
        if k != 0:
            mapping[k] = h[k]
            mapping[(-k) % n] = h[k]
    return WeightFunction(n, tuple(sorted(mapping.items())))


def cayley_eigenvalue(G: GroupSpec, f, chi: tuple[int, ...]) -> ComplexBall:
    """Eigenvalue of the f-weighted Cayley graph of G at character chi.

    The value is sum over nonzero support x of f(x) * chi(-x); for symmetric f
    it is real, so the imaginary part of the returned ball contains 0.
    f is either a WeightFunction (G must be the matching Z_n) or a mapping
    from element tuples to integer weights with symmetric support. The ball
    is computed at PRECISION_START bits.
    """
    if isinstance(f, WeightFunction):
        if G.orders != (f.n,):
            raise ValueError(f"weight on Z_{f.n} does not match group {G}")
        pairs = [((k,), v) for k, v in f.items if k != 0]
    else:
        pairs = [(G.element(x), int(v)) for x, v in dict(f).items()
                 if int(v) != 0 and G.element(x) != G.zero()]
    weights = dict(pairs)
    for x, v in weights.items():
        if weights.get(G.neg(x)) != v:
            raise ValueError(f"weight not symmetric at {x}: f(x)={v}, f(-x)={weights.get(G.neg(x))}")
    acc = ball_exact_int(0)
    for x, v in sorted(weights.items()):
        q = character_value(G, chi, G.neg(x))
        root_ball = ball_root_of_unity(q.numerator, q.denominator, PRECISION_START)
        acc = ball_add(acc, ball_scale_int(root_ball, v))
    return acc


# ---------------------------------------------------------------------------
# exact evaluation in Z[t]/(t^n - 1)


def _poly_mod_circle(h: IntPolynomial, n: int, v: int) -> tuple[int, ...]:
    """Coefficients of h(t^v) reduced mod t^n - 1; evaluates to h(e_n(v)) at e_n(1)."""
    out = [0] * n
    for k, c in enumerate(h.coeffs):
        if c:
            out[(k * v) % n] += c
    return tuple(out)


def _circle_mul(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    bnz = [(j, cb) for j, cb in enumerate(b) if cb]
    out = [0] * n
    for i, ca in enumerate(a):
        if ca:
            for j, cb in bnz:
                out[(i + j) % n] += ca * cb
    return tuple(out)


def _real_part_is_exactly_one(mults: dict[int, int], h: IntPolynomial, n: int) -> bool:
    """Exact test: Re(prod_v h(e_n(v))^{m_v}) == 1.

    With g = gcd(n, the residues of this multiset) and n' = n / g, every
    e_n(v) is e_n'(v / g), so the product is P(e_n'(1)) for an integer
    polynomial P mod t^n' - 1, built from the reductions of h(t^(v/g));
    twice its real part minus 2 is (P + reverse(P) - 2)(e_n'(1)), which
    vanishes iff Phi_n' divides that polynomial.
    """
    g = math.gcd(n, *mults)
    m = n // g
    P = tuple([1] + [0] * (m - 1))
    for v, k in mults.items():
        hv = _poly_mod_circle(h, m, v // g)
        for _ in range(k):
            P = _circle_mul(P, hv, m)
    R = [0] * m
    for k, c in enumerate(P):
        R[k] += c
        R[(-k) % m] += c
    R[0] -= 2
    return cyclotomic(m).divides(IntPolynomial.from_coeffs(R))


def _circle_factors(h: IntPolynomial, n: int) -> list[int]:
    """Divisors d of n with Phi_d | h; only d with phi(d) <= deg h can qualify."""
    return [d for d in divisors(n)
            if euler_phi(d) <= h.degree and cyclotomic(d).divides(h)]


def _root_residues(h: IntPolynomial, n: int) -> set[int]:
    """Residues v with h(e_n(v)) = 0 exactly: Phi_{n/gcd(n,v)} divides h.

    The residues with n/gcd(n, v) = d are (n/d) * u for the units u mod d.
    """
    return {n // d * u for d in _circle_factors(h, n) for u in range(d) if math.gcd(u, d) == 1}


@functools.lru_cache(maxsize=4096)
def _root_of_unity(num: int, den: int, prec: int) -> ComplexBall:
    """ball_root_of_unity for num/den in lowest terms, kept per process.

    ball_root_of_unity(k num, k den, prec) is the same ball: scaling num and
    den by k scales r by k and leaves the quarter turn o and the floored
    angle pi r / (2 den) as they are. So e(j/n) is computed once for all n.
    """
    return ball_root_of_unity(num, den, prec)


def _ball_values(h: IntPolynomial, n: int, prec: int) -> list[ComplexBall]:
    """h(e_n(v)) for v = 0..n-1 at the given precision.

    Roots and values are computed for j, v <= n/2 only. The rest are exact
    conjugates (x, -y, r, p): e_n(-j) is the conjugate of e_n(j), and since h
    has integer coefficients, h(e_n(-v)) is the conjugate of h(e_n(v)).
    Roots come from one table shared by every n (_root_of_unity).
    """
    half = n // 2 + 1
    roots = [_root_of_unity(j // (g := math.gcd(j, n)), n // g, prec) for j in range(half)]
    roots += [ComplexBall(b.x, -b.y, b.r, prec) for b in reversed(roots[1:n - half + 1])]
    terms = [(k, h[k]) for k in h.support()]
    out = []
    for v in range(half):
        x = y = r = 0
        for k, c in terms:
            b = roots[k * v % n]
            x += c * b.x
            y += c * b.y
            r += abs(c) * b.r
        out.append(ComplexBall(x, y, r, prec))
    return out + [ComplexBall(b.x, -b.y, b.r, prec) for b in reversed(out[1:n - half + 1])]


def _classify_multiset_ball(mults, ball_cache, h, n):
    """Ball tier for a multiset left open at PRECISION_START: settle an exact
    tie symbolically, else escalate the precision from twice that."""
    if _real_part_is_exactly_one(mults, h, n):
        return "equal"
    prec = 2 * PRECISION_START
    while prec <= PRECISION_CAP:
        if prec not in ball_cache:
            ball_cache[prec] = _ball_values(h, n, prec)
        vals = ball_cache[prec]
        prod = ball_exact_int(1)
        for v, m in mults.items():
            prod = ball_mul(prod, ball_pow(vals[v], m))
        one = 1 << prod.p
        if prod.x - prod.r > one:
            return "above"
        if prod.x + prod.r < one:
            return "below"
        prec *= 2
    return "ambiguous"


def _walk(live: list[int], N: int, ball_cache, h, n) -> dict[str, int]:
    """Tally of the classes of the multisets of N residues from live, each
    weighted by its number of orderings, from a depth-first walk over one
    multiset of each conjugate pair.

    live is closed under negation and lists its f self-conjugate residues
    (2v = 0 mod n) first, then the others ascending, so negation fixes the
    indices below f and maps index i >= f to S - i, S = len(live) - 1 + f.
    A multiset whose indices >= f, b_1 <= ... <= b_m, are lexicographically
    at most S - b_m, ..., S - b_1, its mirror's, is visited and counts twice,
    or once if it is its own mirror. As that needs b_1 + b_m <= S, the
    odometer never sets an index past S - b_1, nor a first b_1 past S // 2.

    idx holds the first N - 1 positions as nondecreasing indices into live.
    state[d] = (x, y, r, orderings, run) for the prefix of length d: its
    product ball at PRECISION_START, and the multiplicity of its last index.

    A leaf multiplies the prefix (x, y, r), c = |x| + |y|, by a value
    (vx, vy, vr), vc = |vx| + |vy|. Under ball_mul's rule its radius is
    ceil((c vr + vc r + r vr) / 2^p) + 2, which grows with vr and vc, so
    R = ceil((c VR + VC r + r VR) / 2^p) + 2, with VR and VC the largest vr
    and vc over live, bounds the radius of every leaf of the prefix. The
    leaf's real center is floor(Z / 2^p) for Z = x vx - y vy, so center -
    radius > 2^p holds when Z >= (2^p + R + 1) 2^p, and center + radius <
    2^p when Z < (2^p - R) 2^p: the two thresholds decide a leaf as its own
    radius would, from two multiplications. Only a leaf between them
    computes its own radius, and goes to the ball tier if that leaves it open.
    """
    p = PRECISION_START
    one = 1 << p
    vals = [(b.x, b.y, b.r, abs(b.x) + abs(b.y)) for b in (ball_cache[p][v] for v in live)]
    tally = dict.fromkeys(("above", "below", "equal", "ambiguous"), 0)
    k, pre = len(live), N - 1
    if not N:  # the empty product is exactly 1
        tally["equal"] += 1
    if pre < 0 or not k:
        return tally
    VR = max(v[2] for v in vals)
    VC = max(v[3] for v in vals)
    f = sum(2 * v % n == 0 for v in live)
    S = k - 1 + f
    idx = [0] * pre
    state = [(one, 0, 0, 1, 0)] + [None] * pre
    t = above = below = 0
    while True:
        for d in range(t, pre):  # redo the prefix products past the advanced position
            x, y, r, w, run = state[d]
            j = idx[d]
            run = run + 1 if d and idx[d - 1] == j else 1
            vx, vy, vr, vc = vals[j]
            state[d + 1] = ((x * vx - y * vy) >> p, (x * vy + y * vx) >> p,
                            -(-((abs(x) + abs(y)) * vr + vc * r + r * vr) >> p) + 2,
                            w * (d + 1) // run, run)
        x, y, r, w, run = state[pre]
        c = abs(x) + abs(y)
        R = -(-(c * VR + VC * r + r * VR) >> p) + 2
        hi, lo = (one + R + 1) << p, (one - R) << p
        first = idx[-1] if pre else 0
        wN = w * N
        i0 = bisect.bisect_left(idx, f)  # the position of b_1, if the prefix has one
        if i0 < pre:
            # the leaves run up to b_m = S - b_1; there the prefix's indices
            # past b_1 decide against their mirror: below counts 2, equal 1
            top, g, a, b = S - idx[i0], 1, i0 + 1, pre - 1
            while g == 1 and a <= b:  # the first pair from both ends off S decides
                g = 1 if idx[a] + idx[b] == S else 2 if idx[a] + idx[b] < S else 0
                a, b = a + 1, b - 1
            runs = ((first, top + 1, 2),) if g == 2 else ((first, top, 2), (top, top + g, 1))
        else:  # a fixed leaf keeps M its own mirror; a first b_1 stops at S // 2
            runs = ((first, f, 1), (max(first, f), S // 2 + 1, 2))
        for j0, j1, times in runs:
            wt, wm = times * (wN // (run + 1) if j0 == first else wN), times * wN
            for j in range(j0, j1):
                vx, vy, vr, vc = vals[j]
                z = x * vx - y * vy
                if z >= hi:
                    above += wt
                elif z < lo:
                    below += wt
                else:
                    z >>= p
                    rad = -(-(c * vr + vc * r + r * vr) >> p) + 2
                    if z - rad > one:
                        above += wt
                    elif z + rad < one:
                        below += wt
                    else:
                        leaf = Counter([live[i] for i in idx] + [live[j]])
                        tally[_classify_multiset_ball(leaf, ball_cache, h, n)] += wt
                wt = wm
        t = pre - 1
        while t >= 0 and idx[t] >= (S - idx[i0] if i0 < t else S // 2):
            t -= 1
        if t < 0:
            tally["above"] += above
            tally["below"] += below
            return tally
        idx[t:] = [idx[t] + 1] * (pre - t)


class _SignTallies(NamedTuple):
    n_nonneg: int
    n_nonpos: int
    n_zero: int
    n_ambiguous: int
    total: int


class SignCount(_SignTallies):
    """Eigenvalue sign tallies; zeros appear in both one-sided counts."""

    __slots__ = ()

    def __new__(cls, n_nonneg: int, n_nonpos: int, n_zero: int, n_ambiguous: int,
                total: int) -> "SignCount":
        if n_nonneg + n_nonpos - n_zero + n_ambiguous != total:
            raise ValueError("inconsistent sign bookkeeping")
        return super().__new__(cls, n_nonneg, n_nonpos, n_zero, n_ambiguous, total)


def count_nonneg_tuples(h: IntPolynomial, n: int, N: int) -> int:
    """Number of tuples v in Z_n^N with Re(prod_j h(e_n(v_j))) >= 1.

    Enumerates value multisets with multinomial weights instead of all n^N
    tuples, one of each pair M, -M: the residues that are not roots of h are
    closed under negation, which reverses them past 0 and n/2 when those come
    first. Values exactly on the threshold count (the condition is >=); values
    still ambiguous at the precision cap count too, keeping the result a valid
    upper-bound ingredient. The ambiguity warning runs on every call, also
    when sign_count_tuples answers from its cache; the closed-form check
    runs there, once per (h, n, N).
    """
    sc = sign_count_tuples(h, n, N)
    if sc.n_ambiguous:
        warnings.warn(f"{sc.n_ambiguous} tuples ambiguous at precision cap {PRECISION_CAP}; counted")
    return sc.n_nonneg + sc.n_ambiguous


@functools.lru_cache(maxsize=256)
def sign_count_tuples(h: IntPolynomial, n: int, N: int) -> SignCount:
    """SignCount of the product-weighted Cayley spectrum over all n^N characters.

    Eigenvalue -2 + 2*Re(P) is nonnegative iff Re(P) >= 1, zero iff Re(P) = 1.
    Raises MultisetCapExceeded past MULTISET_CAP value multisets. When h
    divides t^n - 1 the closed bound (n - deg h)^N is checked against the
    count n_nonneg + n_ambiguous, raising RuntimeError on violation. Cached
    per process, since a sweep of queries asks for the same few pair counts.
    """
    weight_from_polynomial(h, n)  # constant term 1, support inside [0, n), admissible
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    n_multisets = math.comb(N + n - 1, n - 1)
    if n_multisets > MULTISET_CAP:
        raise MultisetCapExceeded(
            f"{n_multisets} multisets exceed cap {MULTISET_CAP} for n={n}, N={N}")
    roots = _root_residues(h, n)
    live = sorted((v for v in range(n) if v not in roots), key=lambda v: 2 * v % n != 0)
    ball_cache = {PRECISION_START: _ball_values(h, n, PRECISION_START)}
    tally = _walk(live, N, ball_cache, h, n)
    equal, ambiguous = tally["equal"], tally["ambiguous"]
    nonneg = tally["above"] + equal
    # a tuple with a root coordinate has product 0 < 1
    nonpos = tally["below"] + equal + n**N - len(live) ** N
    # Re >= 1 forces a nonzero product, and a divisor of t^n - 1 has
    # exactly deg(h) roots among the n-th roots of unity.
    if _divides_circle(h, n) and nonneg + ambiguous > (n - h.degree) ** N:
        raise RuntimeError(f"count {nonneg + ambiguous} exceeds the nonzero-product total "
                           f"{(n - h.degree) ** N} for h = {h}, n = {n}, N = {N}")
    return SignCount(nonneg, nonpos, equal, ambiguous, n**N)


def _divides_circle(h: IntPolynomial, n: int) -> bool:
    """h | t^n - 1 over Z (unit factors allowed, so h = -g with g | t^n - 1 counts).

    The Phi_d of _circle_factors are distinct monic irreducibles dividing h,
    so their product divides h, and its degree is the sum of their phi(d).
    When that sum is deg h, h = lead(h) * prod Phi_d, and since
    t^n - 1 = prod_{d | n} Phi_d is squarefree with content 1, h divides it
    exactly when lead(h) = +-1. Conversely a divisor of t^n - 1 is +-1 times
    a product of distinct Phi_d with d | n, all of which _circle_factors finds.
    """
    if h.is_zero() or abs(h.coeffs[-1]) != 1:
        return False
    return sum(euler_phi(d) for d in _circle_factors(h, n)) == h.degree


# ---------------------------------------------------------------------------
# residue DP for the h = 1 - t pair bound


def _band_residues(n: int, N: int) -> range:
    # Re >= 1 forces cos(pi*S/n - pi*N/2) strictly positive, i.e.
    # S strictly inside (nN/2 - n/2, nN/2 + n/2) mod 2n: at most n sums,
    # so distinct residues once reduced mod 2n.
    lo2, hi2 = n * N - n, n * N + n
    s_min = lo2 // 2 + 1
    s_max = (hi2 - 1) // 2 if hi2 % 2 == 0 else hi2 // 2
    return range(s_min, s_max + 1)


def _band_count(counts: list[int], band: range) -> int:
    """Sum of counts over the residues of band mod len(counts), as at most two slices."""
    m = len(counts)
    lo = band.start % m
    wrapped = lo + len(band) - m  # residues past m - 1 continue at 0
    return sum(counts[lo:lo + len(band)]) + sum(counts[:max(wrapped, 0)])


def _residue_dp_states(n: int) -> Iterator[list[int]]:
    """Counts of the coordinate sums S mod 2n over v in {1..n-1}^N, for N = 1, 2, ...

    The N = 1 state is 1 at residues 1..n-1 and 0 elsewhere. A step is a
    cyclic sliding window: the new count at rho is the sum of the old counts
    at rho - n + 1 .. rho - 1, so moving rho by one adds one old count and
    drops another, O(2n) per N. Each state must sum to (n - 1)^N.
    """
    m = 2 * n
    counts = [0] + [1] * (n - 1) + [0] * n
    total = n - 1
    while True:
        if sum(counts) != total:
            raise RuntimeError(f"residue counts sum to {sum(counts)}, not (n-1)^N = {total}")
        yield counts
        prev, counts = counts, [0] * m
        acc = sum(prev[n + 1:])  # old counts at -(n - 1) .. -1, i.e. rho = 0
        for rho in range(m):
            counts[rho] = acc
            acc += prev[rho] - prev[rho - n + 1]  # negative index wraps, same as mod m
        total *= n - 1


@functools.lru_cache(maxsize=256)
def residue_dp_count(n: int, N: int) -> int:
    """Exact count of v in {1..n-1}^N whose coordinate sum lies in the open
    cosine-positive band mod 2n.

    This dominates the h = 1 - t tuple count: tuples with a zero coordinate
    contribute a zero product, and Re >= 1 forces the cosine factor of the
    polar form strictly positive. The band has n residues when N is even and
    n odd, n - 1 otherwise. Cached per process, since a sweep asks for the
    same few (n, N) at every element of every J.
    """
    return residue_dp_profile(n, N)[-1]


def residue_dp_profile(n: int, max_N: int) -> list[int]:
    """residue_dp_count(n, N) for N = 1..max_N from one incremental DP run."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if max_N < 1:
        raise ValueError(f"need N >= 1, got {max_N}")
    return [_band_count(counts, _band_residues(n, N))
            for N, counts in zip(range(1, max_N + 1), _residue_dp_states(n))]


# ---------------------------------------------------------------------------
# the counting upper bound


def spectral_upper_bound(G: GroupSpec, a, J: Iterable[tuple[int, ...]], h: IntPolynomial,
                         N: int) -> int:
    """Upper bound [G:H]^N * #{v : Re(prod h(e_n(v_j))) >= 1} for J inside H = <a>.

    a is an element of G; every element of J must lie in the cyclic subgroup
    it generates. When h divides t^n - 1 (n = |H|), the count is bounded by
    (n - deg h)^N without enumeration, giving (|G| - deg(h) * [G:H])^N.
    Support residues that are all self-inverse (2k = 0 mod n) are accepted
    through the divisor route only: the eigenvalue form is then -1 + prod,
    real, and the same root-count argument applies.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    a = G.element(a)
    H = subgroup_generated(G, [a])
    n, index = H.order, H.index
    if n < 2:
        raise ValueError("generator must be nonzero")
    J = [G.element(j) for j in J]
    residues = cyclic_residues(G, a, J)
    for j in J:
        if j not in residues:
            raise ValueError(f"element {j} outside the cyclic subgroup of order {n}")
    J_res = set(residues.values())
    if 0 not in J_res:
        raise ValueError("J must contain 0")
    supp = set(h.support())
    if h[0] != 1:
        raise ValueError(f"constant term of h must be 1, got {h[0]}")
    if not supp <= J_res:
        raise ValueError(f"support {sorted(supp)} not inside J residues {sorted(J_res)}")
    admissible = is_admissible_support(J_res, n)
    if not admissible and not all((2 * k) % n == 0 for k in J_res):
        raise ValueError(f"J residues {sorted(J_res)} collide with their negation mod {n}")
    if _divides_circle(h, n):
        return (index * (n - h.degree)) ** N
    if not admissible:
        raise ValueError("self-inverse support needs h dividing t^n - 1")
    return index**N * count_nonneg_tuples(h, n, N)


# ---------------------------------------------------------------------------
# clique bounds


class CliqueBound(NamedTuple):
    """One clique-coclique bound with its generating data."""

    kind: str  # "progression" or "symmetric"
    g: tuple[int, ...]
    m: int
    value: int


def clique_bounds(G: GroupSpec, J: Iterable[tuple[int, ...]], N: int) -> list[CliqueBound]:
    """Upper bounds from arithmetic-progression cliques inside the Cayley graph.

    The Cayley graph X on G^N is vertex-transitive, so alpha(X) * omega(X) <= |X|
    (the clique-coclique bound). For g in J, one walk over the multiples of g
    finds the largest m with g, ..., mg in J and m + 1 <= order(g); the
    staircase i*(g, ..., g) + (0, ..., 0, g, ..., g) with its top (mg, ..., mg)
    is then a clique of size mN + 1, giving |G|^N / (mN + 1). The prefix of
    that walk where -g, ..., -kg lie in J too gives m_sym = k, and the product
    clique {0, g, ..., m_sym g}^N gives (|G| / (m_sym + 1))^N. Values are
    floored to integers. The walks do not depend on N and are cached per process.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    Jset = frozenset(G.subset_with_zero(J))
    return [CliqueBound(kind, g, m, G.order**N // (m * N + 1 if kind == "progression"
                                                    else (m + 1) ** N))
            for kind, g, m in _clique_walks(G, Jset)]


@functools.lru_cache(maxsize=256)
def _clique_walks(G: GroupSpec, Jset: frozenset) -> tuple[tuple[str, tuple[int, ...], int], ...]:
    """(kind, g, m) of each bound of clique_bounds, in its order."""
    out = []
    for g in sorted(Jset):
        if g == G.zero():
            continue
        order = element_order(G, g)
        m = m_sym = 0
        x = G.zero()
        while m + 1 < order:
            x = G.add(x, g)
            if x not in Jset:
                break
            m += 1
            if m_sym == m - 1 and G.neg(x) in Jset:
                m_sym = m
        if m >= 1:
            out.append(("progression", g, m))
        if m_sym >= 1:
            out.append(("symmetric", g, m_sym))
    return tuple(out)
