"""Spectral counting bounds, ball arithmetic, the residue DP, and clique covers.

Brute-force cross-checks enumerate all n^N tuples with plain complex floats;
at these sizes a 1e-6 margin separates every value from the threshold except
the exact ties, which are asserted through the symbolic path instead.
"""

import builtins
import cmath
import functools
import itertools
import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from intersective import spectral
from intersective.abelian import GroupSpec
from intersective.cyclotomic import (IntPolynomial, cyclotomic, inverse_cyclotomic,
                                     is_admissible_support)
from intersective.oracle import build_cayley
from intersective.spectral import (ComplexBall, MultisetCapExceeded, SignCount,
                                   WeightFunction, ball_add, ball_exact_int,
                                   ball_mul, ball_pow, ball_root_of_unity, cayley_eigenvalue,
                                   clique_bounds, count_nonneg_tuples,
                                   residue_dp_count, residue_dp_profile,
                                   sign_count_tuples, spectral_upper_bound,
                                   weight_from_polynomial)

ONE_MINUS_T = IntPolynomial.from_coeffs([1, -1])


def brute_count(h, n, N):
    """Reference count over all n^N tuples in machine floats."""
    vals = [h.evaluate(cmath.exp(2j * cmath.pi * v / n)) for v in range(n)]
    count = 0
    for tup in itertools.product(range(n), repeat=N):
        prod = 1
        for v in tup:
            prod *= vals[v]
        if prod.real >= 1 - 1e-6:
            count += 1
    return count


# ---------------------------------------------------------------------------
# balls


def test_ball_arithmetic_contains_truth():
    a = ball_root_of_unity(1, 5, 64)
    b = ball_root_of_unity(2, 5, 64)
    prod = ball_mul(a, b)
    truth = cmath.exp(2j * cmath.pi * 3 / 5)
    assert abs(complex(float(prod.re), float(prod.im)) - truth) <= float(prod.rad) + 1e-15
    assert float(prod.rad) < 1e-12

    s = ball_add(a, ball_exact_int(2))
    assert abs(float(s.re) - (2 + math.cos(2 * math.pi / 5))) < 1e-12

    p = ball_pow(a, 5)
    assert p.contains_real(1)
    assert not p.contains_real(0)


def test_ball_exact_int_has_zero_radius():
    b = ball_exact_int(7)
    assert float(b.rad) == 0
    assert b.contains_real(7)
    lo, hi = b.real_interval()
    assert float(lo) == float(hi) == 7


# Integer balls against mpmath, used here as an independent reference only;
# it evaluates at 200 bits past the ball's precision, far below any radius.


def _mp_contains(ball, re, im):
    """mpf point (re, im) inside the ball, compared at the working precision."""
    scale = mp.mpf(2) ** ball.p
    return (ball.x - re * scale) ** 2 + (ball.y - im * scale) ** 2 <= mp.mpf(ball.r) ** 2


@pytest.mark.parametrize("bits", [8, 64, 96, 300, 1056, 2000])
def test_machin_pi_contains_pi(bits):
    pi, err = spectral._pi(bits)
    with mp.workprec(bits + 200):
        assert abs(pi - mp.pi * mp.mpf(2) ** bits) <= err


def test_cos_sin_within_counted_error():
    rng = random.Random(15)
    for bits in (4, 8, 64, 96, 300, 1056):
        one = 1 << bits
        edge = [0, 1, -1, one - 1, 1 - one, one * 785 // 1000, -one * 785 // 1000]
        for t in edge + [rng.randrange(1 - one, one) for _ in range(20)]:
            c, s, err = spectral._cos_sin(t, bits)
            with mp.workprec(bits + 200):
                x = mp.mpf(t) / one
                assert abs(c - mp.cos(x) * one) <= err, (bits, t)
                assert abs(s - mp.sin(x) * one) <= err, (bits, t)


@pytest.mark.parametrize("prec", [64, 65, 100, 128, 255, 256, 512, 777, 1024])
def test_root_of_unity_contains_exact_value(prec):
    rng = random.Random(prec)
    fractions = [(num, den) for den in (1, 2, 3, 4, 8) for num in range(-2 * den, 2 * den + 1)]
    for den in (5000, 4096, 10**9 + 7, 2**80 + 1):
        fractions += [(rng.randrange(-3 * den, 3 * den), den) for _ in range(5)]
    for num, den in fractions:
        b = ball_root_of_unity(num, den, prec)
        assert b.p == prec and b.r <= 3  # radius at most 3 units of 2^-prec
        with mp.workprec(prec + 200):
            theta = 2 * mp.pi * num / den
            assert _mp_contains(b, mp.cos(theta), mp.sin(theta)), (num, den, prec)


def _random_ball(rng):
    p = rng.choice([0, 1, 5, 64, 100])
    x, y = (rng.randrange(-(1 << p + 3), 1 << p + 3) for _ in range(2))
    r = rng.choice([0, rng.randrange(1 << max(p - 8, 1))])
    return ComplexBall(x, y, r, p)


def _point_in(ball, rng):
    """An exact point of the ball: center plus a rational multiple of a point
    (u, v) on the unit circle, u = (1 - t^2)/(1 + t^2), v = 2t/(1 + t^2)."""
    t = Fraction(rng.randrange(-50, 51), rng.randrange(1, 50))
    scale = Fraction(ball.r, 1 << ball.p) * rng.choice([1, 1, Fraction(rng.randrange(100), 100)])
    return (ball.re + scale * (1 - t * t) / (1 + t * t), ball.im + scale * 2 * t / (1 + t * t))


def _contains(ball, z):
    dx, dy = z[0] * (1 << ball.p) - ball.x, z[1] * (1 << ball.p) - ball.y
    return dx * dx + dy * dy <= ball.r**2


def _cmul(z, w):
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def test_ball_ops_contain_products_of_points():
    rng = random.Random(15)
    for _ in range(200):
        a, b = _random_ball(rng), _random_ball(rng)
        k = rng.randrange(7)
        for _ in range(3):
            za, zb = _point_in(a, rng), _point_in(b, rng)
            assert _contains(a, za) and _contains(b, zb)
            assert _contains(ball_add(a, b), (za[0] + zb[0], za[1] + zb[1])), (a, b)
            assert _contains(ball_mul(a, b), _cmul(za, zb)), (a, b)
            power = (Fraction(1), Fraction(0))
            for _ in range(k):
                power = _cmul(power, za)
            assert _contains(ball_pow(a, k), power), (a, k)


def _leaf_ball(vals, leaf):
    """The product ball of a leaf under ball_mul's radius rule, from exact 1 at
    PRECISION_START: the ball a walk leaf is classified by."""
    p = spectral.PRECISION_START
    return functools.reduce(ball_mul, (vals[v] for v in leaf), ComplexBall(1 << p, 0, 0, p))


def _own_ball_classes(live, N, vals):
    """{leaf: 'above', 'below' or None} for every multiset leaf of live, from the
    real part of its own product ball; None when that does not clear 1."""
    one = 1 << spectral.PRECISION_START
    classes = {}
    for leaf in itertools.combinations_with_replacement(live, N):
        ball = _leaf_ball(vals, leaf)
        classes[leaf] = "above" if ball.x - ball.r > one else "below" if ball.x + ball.r < one else None
    return classes


def _weighted_tally(classes, times=None):
    """Tally of {leaf: class}, each leaf weighted by its number of orderings,
    and by times[leaf] when times is given."""
    tally = dict.fromkeys(("above", "below", "equal", "ambiguous"), 0)
    for leaf, cls in classes.items():
        orderings = math.factorial(len(leaf))
        for m in Counter(leaf).values():
            orderings //= math.factorial(m)
        tally[cls] += orderings * (times[leaf] if times else 1)
    return tally


def _mirror_order(residues, n):
    """residues in the order the walk takes them: the self-conjugate ones
    (2v = 0 mod n) first, then the others ascending."""
    return sorted(residues, key=lambda v: (2 * v % n != 0, v))


def _canonical_leaves(live, N, n):
    """{leaf: 2 or 1} for the leaves of live the walk visits: those whose
    indices in live are at most those of the mirror leaf -leaf, 1 when the
    leaf is its own mirror, in the walk's order."""
    rank = {v: i for i, v in enumerate(live)}
    out = {}
    for leaf in itertools.combinations_with_replacement(live, N):
        mirror = tuple(sorted(((-v) % n for v in leaf), key=rank.__getitem__))
        if [rank[v] for v in leaf] <= [rank[v] for v in mirror]:
            out[leaf] = 1 if leaf == mirror else 2
    return out


def _conjugate_layout(head, n):
    """Values on Z_n laid out as _ball_values lays them out, from head[v] for
    v = 0..n//2: real at the self-conjugate v, and vals[n - v] = (x, -y, r)."""
    head = [b._replace(y=0) if 2 * v % n == 0 else b for v, b in enumerate(head)]
    return head + [b._replace(y=-b.y) for b in reversed(head[1:(n + 1) // 2])]


def _walk_to_ball_tier(live, N, vals, h, n, ball_tier):
    """The walk's tally, and the leaves it hands to the ball tier, answered by
    ball_tier(leaf); a leaf lists its residues in the order of live."""
    opened = []

    def record(mults, *rest):
        opened.append(tuple(mults.elements()))
        return ball_tier(opened[-1])

    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectral, "_classify_multiset_ball", record)
        tally = spectral._walk(live, N, {spectral.PRECISION_START: vals}, h, n)
    return tally, opened


def _assert_walk_is_per_leaf(live, N, vals):
    """The walk classifies every leaf it visits as the leaf's own product ball
    does, counts it for its mirror too unless it is its own, and hands the
    ball tier exactly the visited leaves that ball leaves open."""
    own = _own_ball_classes(live, N, vals)
    canonical = _canonical_leaves(live, N, len(vals))
    tally, opened = _walk_to_ball_tier(live, N, vals, ONE_MINUS_T, len(vals),
                                       lambda leaf: "ambiguous")
    assert opened == [leaf for leaf in canonical if own[leaf] is None], (vals, N)
    assert tally == _weighted_tally({leaf: own[leaf] or "ambiguous" for leaf in canonical},
                                    canonical), (vals, N)
    return own


def _closed_live(n, rng):
    """A random nonempty set of residues closed under negation, in the walk's order."""
    kept = [v for v in range(n // 2 + 1) if rng.random() < 0.8] or [rng.randrange(n // 2 + 1)]
    return _mirror_order({w % n for v in kept for w in (v, -v)}, n)


def test_walk_leaf_balls_contain_products_of_points():
    # each leaf's product ball (x +- r) / 2^p must hold Re of any product of
    # points of the value balls, and the walk must decide each leaf it visits
    # as that ball does; exact (r = 0) and tiny values make every floor count
    rng = random.Random(16)
    p = spectral.PRECISION_START
    for _ in range(20):
        head = []
        for _ in range(3):
            bits = p + rng.choice([-40, -4, 0, 4])
            x, y = (rng.randrange(-(1 << bits), 1 << bits) for _ in range(2))
            head.append(ComplexBall(x, y, rng.choice([0, 0, rng.randrange(1 << 8)]), p))
        vals = _conjugate_layout(head, 5)
        own = _assert_walk_is_per_leaf(list(range(5)), 3, vals)
        assert len(own) == math.comb(7, 3)
        for leaf in own:
            ball = _leaf_ball(vals, leaf)
            for _ in range(3):
                prod = (Fraction(1), Fraction(0))
                for v in leaf:
                    prod = _cmul(prod, _point_in(vals[v], rng))
                assert abs(prod[0] * (1 << p) - ball.x) <= ball.r, (vals, leaf)


def test_walk_thresholds_decide_leaves_near_one_as_their_own_balls():
    # values within a few units of 2^-p of 1, 2 and 1/2 put many products
    # within a few units of 1, where the per-prefix thresholds, the leaf's own
    # radius and their off-by-ones decide the class
    p = spectral.PRECISION_START
    one = 1 << p
    # N = 1 from exact 1: leaf radius vr + 2, so with the largest vr = 3 the
    # centers one +- 5 touch 1 (open) and one +- 6 clear it; on Z_9 the walk
    # visits residues 0..4, each counted for its mirror too but 0
    edge = _conjugate_layout([ComplexBall(one, 0, 0, p)]
                             + [ComplexBall(one + d, 0, 3, p) for d in (5, -5, 6, -6)], 9)
    own = _assert_walk_is_per_leaf(list(range(9)), 1, edge)
    assert [own[(v,)] for v in range(5)] == [None, None, None, "above", "below"]
    rng = random.Random(18)
    for _ in range(300):
        n = rng.randint(2, 11)
        head = [ComplexBall((rng.choice((one, one, 2 * one, one // 2)) + rng.randint(-12, 12)),
                            rng.randint(-3, 3), rng.choice((0, 1, 2, 3, 5)), p)
                for _ in range(n // 2 + 1)]
        vals = _conjugate_layout(head, n)
        _assert_walk_is_per_leaf(_closed_live(n, rng), rng.randint(1, 3), vals)


def test_ball_values_at_large_n_are_tight():
    n = 4096
    vals = spectral._ball_values(ONE_MINUS_T, n, 64)
    for v, b in enumerate(vals):
        w = 1 - cmath.exp(2j * cmath.pi * v / n)
        assert abs(complex(float(b.re), float(b.im)) - w) <= float(b.rad) + 1e-15, v
        assert b.rad < Fraction(1, 2**50), v


# ---------------------------------------------------------------------------
# weights and eigenvalues


def test_weight_from_polynomial():
    f = weight_from_polynomial(ONE_MINUS_T, 5)
    assert f.as_dict() == {0: 1, 1: -1, 4: -1}
    assert f.support() == (1, 4)
    assert f.is_symmetric()
    assert weight_from_polynomial(IntPolynomial.one(), 5).as_dict() == {0: 1}


def test_weight_from_polynomial_rejects():
    with pytest.raises(ValueError):
        weight_from_polynomial(IntPolynomial.from_coeffs([2, 1]), 5)     # h(0) != 1
    with pytest.raises(ValueError):
        weight_from_polynomial(IntPolynomial.from_coeffs([1, 1, 0, 0, 1]), 5)  # 1 = -4
    with pytest.raises(ValueError):
        weight_from_polynomial(IntPolynomial.from_coeffs([1, 0, 0, 0, 0, 1]), 5)  # out of range


def test_cayley_eigenvalue_trivial_character():
    G = GroupSpec((5,))
    f = weight_from_polynomial(ONE_MINUS_T, 5)
    lam = cayley_eigenvalue(G, f, (0,))
    assert lam.contains_real(-2)   # f(1) + f(4) = -2


def test_cayley_eigenvalue_cycle_graph():
    G = GroupSpec((5,))
    lam = cayley_eigenvalue(G, {(1,): 1, (4,): 1}, (1,))
    expected = 2 * math.cos(2 * math.pi / 5)
    lo, hi = lam.real_interval()
    assert float(lo) <= expected <= float(hi)
    assert float(hi) - float(lo) < 1e-12


def test_cayley_eigenvalue_rejects_asymmetric():
    G = GroupSpec((5,))
    with pytest.raises(ValueError):
        cayley_eigenvalue(G, {(1,): 1}, (0,))


def test_eigenvalues_match_dense_solver_z6():
    G = GroupSpec((6,))
    f = {(1,): -1, (5,): -1, (2,): 3, (4,): 3, (3,): 2}
    elements = list(G.elements())
    idx = {g: i for i, g in enumerate(elements)}
    M = np.zeros((6, 6))
    for u in elements:
        for v in elements:
            M[idx[u], idx[v]] = f.get(G.sub(u, v), 0)
    dense = sorted(np.linalg.eigvalsh(M))
    chars = sorted(float(cayley_eigenvalue(G, f, chi).re) for chi in G.elements())
    assert np.allclose(dense, chars, atol=1e-9)


# ---------------------------------------------------------------------------
# the tuple count


@pytest.mark.parametrize("n,N,expected", [
    (3, 1, 2), (3, 2, 4), (3, 3, 6),
    (5, 1, 2), (5, 2, 10),
    (7, 3, 116),
])
def test_count_nonneg_frozen(n, N, expected):
    assert count_nonneg_tuples(ONE_MINUS_T, n, N) == expected


def test_count_constant_weight():
    assert count_nonneg_tuples(IntPolynomial.one(), 5, 3) == 125


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_count_matches_brute_force(n, N):
    hs = [ONE_MINUS_T]
    if n > 4:
        hs.append(IntPolynomial.from_coeffs([1, 0, -1]))  # 1 - t^2, admissible for n >= 5
    for d in (d for d in range(2, n + 1) if n % d == 0):
        h = cyclotomic(d)
        if max(h.support()) * 2 < n:
            hs.append(h)
    for h in hs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any ambiguity at this scale is a bug
            assert count_nonneg_tuples(h, n, N) == brute_count(h, n, N), (str(h), n, N)


def test_count_exact_threshold_tie():
    # v = (1, 5) in Z_6 hits Re = 1 exactly: (1-e(1/6))(1-e(5/6)) = 1.
    # 19 of 36 tuples land at or above the threshold; floats cannot decide this.
    assert count_nonneg_tuples(ONE_MINUS_T, 6, 2) == 19


def test_exact_tie_reduces_only_tied_residues(monkeypatch):
    # the multisets the balls leave open, (1, 3), (1, 5) and (3, 5), are the
    # only ones reduced mod t^6 - 1; residue 0, a root of 1 - t, never is
    reduced = []
    reduce = spectral._poly_mod_circle
    monkeypatch.setattr(spectral, "_poly_mod_circle",
                        lambda h, n, v: reduced.append(v) or reduce(h, n, v))
    assert count_nonneg_tuples(ONE_MINUS_T, 6, 2) == 19
    assert set(reduced) == {1, 3, 5}


def test_exact_tie_works_in_the_smallest_cyclotomic_field(monkeypatch):
    # 1 - e(v/4000) has real part 1 at v = 1000 and 3000, where e_4000(v) is
    # e_4(1) and e_4(3): the tie is decided against Phi_4, not Phi_4000
    asked = []
    build = spectral.cyclotomic
    monkeypatch.setattr(spectral, "cyclotomic", lambda d: asked.append(d) or build(d))
    assert count_nonneg_tuples(ONE_MINUS_T, 4000, 1) == 2001
    assert 4 in asked and 4000 not in asked


def _dense_divides_circle(h, n):
    """Reference: exact division by a dense t^n - 1."""
    if h.degree > n:
        return False
    return h.divides(IntPolynomial.from_coeffs([-1] + [0] * (n - 1) + [1]))


def _dense_root_residues(h, n):
    """Reference: test Phi_{n/gcd(n,v)} | h once per divisor, then list its residues."""
    roots = set()
    for d in {n // math.gcd(n, v) for v in range(n)}:
        if cyclotomic(d).divides(h):
            roots.update(v for v in range(n) if n // math.gcd(n, v) == d)
    return roots


def _circle_weights(n, rng):
    """Phi_d, Psi_d, products of distinct Phi_d and their negations, squared
    factors, 2 * h and random h."""
    ds = [d for d in range(1, n + 1) if n % d == 0]
    hs = [cyclotomic(d) for d in ds] + [inverse_cyclotomic(d) for d in ds]
    for _ in range(3):
        picked = rng.sample(ds, rng.randint(1, len(ds)))
        h = IntPolynomial.one()
        for d in picked:
            h = h * cyclotomic(d)
        stray = h * cyclotomic(rng.randint(1, 2 * n))  # a non-divisor or a square
        hs += [h, -h, h * cyclotomic(picked[0]), stray, h.scale(2)]
    for _ in range(4):
        hs.append(IntPolynomial.from_coeffs([rng.randint(-2, 2) for _ in range(rng.randint(1, 8))]))
    return [h for h in hs if not h.is_zero()]


def test_circle_factors_match_dense_reference():
    rng = random.Random(14)
    for n in range(1, 61):
        for h in _circle_weights(n, rng):
            assert spectral._circle_factors(h, n) == [
                d for d in range(1, n + 1) if n % d == 0 and cyclotomic(d).divides(h)], (str(h), n)
            assert spectral._divides_circle(h, n) == _dense_divides_circle(h, n), (str(h), n)
            assert spectral._root_residues(h, n) == _dense_root_residues(h, n), (str(h), n)


def test_count_closed_form_inequality():
    for n in (3, 4, 5, 6, 7):
        for N in (1, 2, 3):
            assert count_nonneg_tuples(ONE_MINUS_T, n, N) <= (n - 1) ** N


def test_count_strictly_below_closed_form_exists():
    # divisor closed form is an upper bound, not an identity
    assert count_nonneg_tuples(ONE_MINUS_T, 3, 3) == 6 < (3 - 1) ** 3


def _brute_sign_count(h, n, N):
    """SignCount from every tuple of Z_n^N, each through the ball tier: no
    multinomial weights and no shortcut for the roots of h."""
    cache = {}
    classes = Counter(spectral._classify_multiset_ball(Counter(tup), cache, h, n)
                      for tup in itertools.product(range(n), repeat=N))
    equal = classes["equal"]
    return SignCount(classes["above"] + equal, classes["below"] + equal, equal,
                     classes["ambiguous"], n**N)


def _weight_candidates(n):
    """Admissible weights on Z_n: 1 - t, 1 - t^2, cyclotomic factors, -Psi_d."""
    hs = [ONE_MINUS_T]
    if n >= 5:
        hs.append(IntPolynomial.from_coeffs([1, 0, -1]))
    for d in range(2, n + 1):
        if n % d == 0:
            hs += [cyclotomic(d), inverse_cyclotomic(d).scale(-1)]
    return [h for h in hs if h[0] == 1 and is_admissible_support(h.support(), n)]


@st.composite
def _weighted_queries(draw):
    n = draw(st.integers(3, 30))
    hs = _weight_candidates(n)
    if draw(st.booleans()):
        # random coefficients below n/2 keep the support admissible
        tail = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=(n - 1) // 2))
        hs = [IntPolynomial.from_coeffs([1] + tail)]
    h = draw(st.sampled_from(hs))
    max_N = max(N for N in range(1, 7) if math.comb(N + n - 1, N) <= 300)
    return h, n, max_N - draw(st.integers(0, max_N - 1))  # shrinks towards the largest N


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_weighted_queries())
@example((ONE_MINUS_T, 6, 2))  # (1, 5) is the exact tie Re = 1
@example((IntPolynomial.from_coeffs([1, 0, -1]), 10, 3))
@example((cyclotomic(5), 15, 2))
@example((inverse_cyclotomic(15).scale(-1), 15, 2))
@example((cyclotomic(2) * cyclotomic(3), 12, 3))
@example((IntPolynomial.from_coeffs([1, 1, 0, -1]), 10, 3))  # 0 and 5 both live
@example((IntPolynomial.from_coeffs([1, 1, 0, 1]), 8, 4))  # 0 and 4 both live
def test_walk_agrees_with_ball_tier(query):
    # the walk visits one leaf of each conjugate pair of multisets of the
    # residues that are not roots of h, and its tally, each visited leaf
    # counted for its mirror too, is that of every leaf with the ball tier's
    # class; only the visited leaves its own ball leaves open reach the ball tier
    h, n, N = query
    start = spectral.PRECISION_START
    live = _mirror_order([v for v in range(n) if v not in spectral._root_residues(h, n)], n)
    vals = spectral._ball_values(h, n, start)
    cache = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        classes = {leaf: spectral._classify_multiset_ball(Counter(leaf), cache, h, n)
                   for leaf in itertools.combinations_with_replacement(live, N)}
        tally, opened = _walk_to_ball_tier(live, N, vals, h, n, classes.__getitem__)
    own = _own_ball_classes(live, N, vals)
    assert all(cls in (None, classes[leaf]) for leaf, cls in own.items()), (str(h), n, N)
    assert opened == [leaf for leaf in _canonical_leaves(live, N, n) if own[leaf] is None], (
        str(h), n, N)
    assert tally == _weighted_tally(classes), (str(h), n, N)


def test_walk_leaves_exact_tie_to_symbolic_path():
    vals = spectral._ball_values(ONE_MINUS_T, 6, spectral.PRECISION_START)
    ball_tier = spectral._classify_multiset_ball

    def walk(live):
        cache = {}
        return _walk_to_ball_tier(live, 2, vals, ONE_MINUS_T, 6,
                                  lambda leaf: ball_tier(Counter(leaf), cache, ONE_MINUS_T, 6))

    # (1 - e(1/6))(1 - e(-1/6)) = 1 is its own mirror; (1 - e(1/6))^2 = e(-1/3)
    # is decided without the ball tier and counted for (5, 5) too
    assert walk([1, 5]) == ({"above": 0, "below": 2, "equal": 2, "ambiguous": 0}, [(1, 5)])
    assert walk([3, 2, 4]) == ({"above": 9, "below": 0, "equal": 0, "ambiguous": 0}, [])


def _ball_tier_ball_first(mults, ball_cache, h, n):
    """The ball tier before it tried the exact tie first: every precision from
    PRECISION_START up, with the symbolic check after the first open ball."""
    prec = spectral.PRECISION_START
    exact_checked = False
    while prec <= spectral.PRECISION_CAP:
        if prec not in ball_cache:
            ball_cache[prec] = spectral._ball_values(h, n, prec)
        prod = spectral.ball_exact_int(1)
        for v, m in mults.items():
            prod = spectral.ball_mul(prod, spectral.ball_pow(ball_cache[prec][v], m))
        one = 1 << prod.p
        if prod.x - prod.r > one:
            return "above"
        if prod.x + prod.r < one:
            return "below"
        if not exact_checked and spectral._real_part_is_exactly_one(mults, h, n):
            return "equal"
        exact_checked = True
        prec *= 2
    return "ambiguous"


def _full_walk(live, N, ball_cache, h, n):
    """The walk before it paired conjugate multisets: every multiset of live,
    each decided on its own, open ones by the ball tier of that time. A
    reference for spectral._walk and spectral._classify_multiset_ball."""
    p = spectral.PRECISION_START
    one = 1 << p
    vals = [(b.x, b.y, b.r, abs(b.x) + abs(b.y)) for b in (ball_cache[p][v] for v in live)]
    tally = dict.fromkeys(("above", "below", "equal", "ambiguous"), 0)
    k, pre = len(live), N - 1
    if not N:  # the empty product is exactly 1
        tally[_ball_tier_ball_first(Counter(), ball_cache, h, n)] += 1
    if pre < 0 or not k:
        return tally
    VR = max(v[2] for v in vals)
    VC = max(v[3] for v in vals)
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
        wt = wN // (run + 1)
        for j in range(first, k):
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
                    tally[_ball_tier_ball_first(leaf, ball_cache, h, n)] += wt
            wt = wN
        t = pre - 1
        while t >= 0 and idx[t] == k - 1:
            t -= 1
        if t < 0:
            tally["above"] += above
            tally["below"] += below
            return tally
        idx[t:] = [idx[t] + 1] * (pre - t)


def _random_weight(n, rng, half_live):
    """A random admissible h on Z_n with h(1) != 0, so 0 is live, and with
    h(-1) != 0 too when half_live, so n/2 is live for even n."""
    while True:
        h = IntPolynomial.from_coeffs([1] + [rng.randint(-3, 3) for _ in range((n - 1) // 2)])
        if h.degree > 0 and h.evaluate(1) and not (half_live and h.evaluate(-1) == 0):
            return h


def test_walk_matches_full_walk():
    # the paired walk's tallies are those of the walk over every multiset,
    # whose ball tier checks ties only after the ball at PRECISION_START
    rng = random.Random(30)
    cases = [(ONE_MINUS_T, n, N) for n in range(3, 40) for N in range(5)]
    for n in range(3, 26):
        for half_live in (False, True):
            h = _random_weight(n, rng, half_live)
            cases += [(h, n, N) for N in range(6 if n <= 14 else 4)]
    for h, n, N in cases:
        live = _mirror_order([v for v in range(n) if v not in spectral._root_residues(h, n)], n)
        vals = spectral._ball_values(h, n, spectral.PRECISION_START)
        assert spectral._walk(live, N, {spectral.PRECISION_START: vals}, h, n) == _full_walk(
            live, N, {spectral.PRECISION_START: vals}, h, n), (str(h), n, N)


@pytest.mark.parametrize("h,n,N", [
    (ONE_MINUS_T, 6, 3),  # exact ties
    (cyclotomic(2) * cyclotomic(3), 12, 3),  # roots at 4, 6 and 8
    (cyclotomic(5), 15, 2),  # roots at 3, 6, 9 and 12
    (inverse_cyclotomic(15).scale(-1), 15, 2),
    (IntPolynomial.from_coeffs([1, 0, -1]), 10, 3),
], ids=["1-t", "phi2phi3", "phi5", "-psi15", "1-t^2"])
def test_count_matches_ball_tier_on_every_tuple(h, n, N):
    assert sign_count_tuples(h, n, N) == _brute_sign_count(h, n, N)


def test_count_with_values_past_float_range():
    huge = IntPolynomial.from_coeffs([1, 10**400])
    for n, N in ((5, 1), (5, 2), (7, 3)):
        assert sign_count_tuples(huge, n, N) == _brute_sign_count(huge, n, N)


def test_count_closed_form_violation_raises(monkeypatch):
    # the closed-form check is an explicit raise, not an assert that -O strips;
    # values that put every tuple above the threshold must trip it
    p = spectral.PRECISION_START
    monkeypatch.setattr(spectral, "_root_residues", lambda h, n: set())
    monkeypatch.setattr(spectral, "_ball_values", lambda h, n, prec: [ComplexBall(2 << p, 0, 0, p)] * n)
    with pytest.raises(RuntimeError, match="nonzero-product total"):
        count_nonneg_tuples(ONE_MINUS_T, 5, 2)


def test_closed_form_check_runs_once_per_count(monkeypatch):
    calls = []
    divides = spectral._divides_circle
    monkeypatch.setattr(spectral, "_divides_circle", lambda h, n: calls.append(n) or divides(h, n))
    for _ in range(3):
        count_nonneg_tuples(ONE_MINUS_T, 5, 2)
    assert calls == [5]


def test_multiset_cap(monkeypatch):
    monkeypatch.setattr(spectral, "MULTISET_CAP", 10)
    with pytest.raises(MultisetCapExceeded, match="multisets exceed cap 10 "):
        count_nonneg_tuples(ONE_MINUS_T, 7, 50)


def _inertia_bound(sc: SignCount) -> int:
    """Independence bound min{n_{<=0}, n_{>=0}}; ambiguity counted on both sides."""
    return min(sc.n_nonneg + sc.n_ambiguous, sc.n_nonpos + sc.n_ambiguous)


def test_sign_count_and_inertia():
    sc = sign_count_tuples(ONE_MINUS_T, 5, 1)
    assert sc.total == 5
    assert sc.n_nonneg + sc.n_nonpos - sc.n_zero + sc.n_ambiguous == sc.total
    assert _inertia_bound(sc) == min(sc.n_nonneg, sc.n_nonpos)
    # C_5 itself: alpha = 2 and the inertia bound is tight
    assert _inertia_bound(sc) == 2


def test_sign_count_invariant_violation_rejected():
    with pytest.raises(ValueError):
        SignCount(3, 3, 0, 0, 5)


# ---------------------------------------------------------------------------
# residue DP


@pytest.mark.parametrize("n,N,expected", [
    (3, 1, 2), (3, 2, 4), (3, 3, 6), (3, 4, 14),
    (5, 1, 4), (5, 2, 14),
    (7, 2, 30),
])
def test_residue_dp_frozen(n, N, expected):
    assert residue_dp_count(n, N) == expected


def test_residue_dp_by_enumeration():
    """The DP equals direct enumeration of the strict cosine condition."""
    for n in (3, 4, 5, 6):
        for N in (1, 2, 3, 4):
            direct = 0
            for tup in itertools.product(range(1, n), repeat=N):
                s = sum(tup)
                if math.cos(math.pi * s / n - math.pi * N / 2) > 1e-12:
                    direct += 1
            assert residue_dp_count(n, N) == direct, (n, N)


def test_residue_dp_dominates_tuple_count():
    for n in (3, 5, 7):
        for N in (1, 2, 3, 4):
            assert count_nonneg_tuples(ONE_MINUS_T, n, N) <= residue_dp_count(n, N)
            assert residue_dp_count(n, N) <= (n - 1) ** N


def test_residue_dp_state_invariants():
    states = spectral._residue_dp_states(7)
    for N in range(1, 6):
        counts = next(states)
        assert len(counts) == 14
        assert sum(counts) == 6**N
        # reflection symmetry of the sum distribution around nN
        assert all(counts[r] == counts[(7 * N - r) % 14] for r in range(14))


def test_residue_dp_state_sum_check_raises(monkeypatch):
    # the sum check is an explicit raise, not an assert that -O strips;
    # a miscounted window must trip it
    monkeypatch.setattr(spectral, "sum", lambda xs: builtins.sum(xs) + 1, raising=False)
    with pytest.raises(RuntimeError, match="residue counts sum"):
        residue_dp_count(5, 3)


def _reference_residue_dp(n, max_N):
    """States N = 1..max_N of the sum distribution mod 2n, by direct O(2n * n) convolution."""
    m = 2 * n
    counts = [1] + [0] * (m - 1)
    states = []
    for _ in range(max_N):
        prev = counts
        counts = [0] * m
        for rho in range(m):
            for v in range(1, n):
                counts[rho] += prev[(rho - v) % m]
        states.append(counts)
    return states


def test_residue_dp_states_match_reference():
    for n, max_N in [(n, 12) for n in range(3, 41)] + [(105, 60)]:
        states = spectral._residue_dp_states(n)
        for N, expected in enumerate(_reference_residue_dp(n, max_N), start=1):
            assert next(states) == expected, (n, N)


def test_residue_dp_profile_matches_pointwise():
    prof = residue_dp_profile(5, 8)
    assert prof == [residue_dp_count(5, N) for N in range(1, 9)]


def test_residue_dp_band_parity():
    # even N with odd n admits n residues, otherwise n - 1
    from intersective.spectral import _band_residues
    assert len(_band_residues(5, 2)) == 5
    assert len(_band_residues(5, 3)) == 4
    assert len(_band_residues(4, 2)) == 3
    assert len(_band_residues(4, 3)) == 3


def test_residue_dp_ratio_converges():
    # the even/odd limiting constants, at moderate N
    r200 = residue_dp_count(5, 200) / 4**200
    r199 = residue_dp_count(5, 199) / 4**199
    assert abs(r200 - 0.5) < 0.02
    assert abs(r199 - 0.4) < 0.02


def test_residue_dp_rejects():
    with pytest.raises(ValueError):
        residue_dp_count(2, 5)
    with pytest.raises(ValueError):
        residue_dp_count(5, 0)


# ---------------------------------------------------------------------------
# the assembled upper bound


def test_spectral_upper_bound_divisor_closed_form():
    G = GroupSpec((105,))
    J = [(k,) for k in cyclotomic(105).support()]
    for N in (1, 2, 3):
        assert spectral_upper_bound(G, (1,), J, cyclotomic(105), N) == 57**N


def test_spectral_upper_bound_pair_family():
    for n in (5, 7, 9):
        G = GroupSpec((n,))
        assert spectral_upper_bound(G, (1,), [(0,), (1,)], ONE_MINUS_T, 3) == (n - 1) ** 3


def test_spectral_upper_bound_subgroup_index():
    # F_4 with the pair through the order-2 subgroup: (4 - 1*2)^N
    G = GroupSpec((2, 2))
    J = [(0, 0), (1, 0)]
    assert spectral_upper_bound(G, (1, 0), J, ONE_MINUS_T, 3) == 2**3


def test_spectral_upper_bound_nondivisor_count():
    # h = 1 - t^2 in Z_5 does not divide t^5 - 1; falls back to the tuple count
    h = IntPolynomial.from_coeffs([1, 0, -1])
    G = GroupSpec((5,))
    v = spectral_upper_bound(G, (1,), [(0,), (2,)], h, 2)
    assert v == count_nonneg_tuples(h, 5, 2)


def test_spectral_upper_bound_rejections():
    G = GroupSpec((6,))
    with pytest.raises(ValueError):
        spectral_upper_bound(G, (1,), [(0,), (2,)], ONE_MINUS_T, 2)  # support not in J
    with pytest.raises(ValueError):
        # inadmissible residues without the self-inverse escape
        spectral_upper_bound(G, (1,), [(0,), (1,), (5,)], ONE_MINUS_T, 2)
    with pytest.raises(ValueError):
        # self-inverse regime requires a divisor weight; 1 + 2t is not one
        spectral_upper_bound(G, (3,), [(0,), (3,)], IntPolynomial.from_coeffs([1, 2]), 1)


def test_spectral_upper_bound_involution_divisor():
    # Z_6 through <3>: support {0,3} residues {0,1} in Z_2, h = 1+t | t^2-1
    G = GroupSpec((6,))
    h = IntPolynomial.from_coeffs([1, 1])
    assert spectral_upper_bound(G, (3,), [(0,), (3,)], h, 2) == (3 * (2 - 1)) ** 2


# ---------------------------------------------------------------------------
# clique bounds


def verify_clique(X, C) -> bool:
    """True iff the given vertices are distinct and pairwise adjacent in X, by X.adjacent."""
    vs = [tuple(X.group.element(x) for x in v) for v in C]
    if len(set(vs)) != len(vs):
        return False
    return all(X.adjacent(u, v) for u, v in itertools.combinations(vs, 2))


def test_verify_clique():
    X = build_cayley(GroupSpec((7,)), [(0,), (1,)], 1)
    assert verify_clique(X, [[(0,)], [(1,)]])
    assert not verify_clique(X, [[(0,)], [(2,)]])
    assert not verify_clique(X, [[(0,)], [(0,)]])  # duplicates never form a clique
    assert verify_clique(X, [])


def _clique(G, b, N):
    """The clique behind the bound b, built from its kind, g and m: the staircase
    i*(g, ..., g) + (0, ..., 0, g, ..., g) with k trailing g's, 0 <= i < m and
    0 <= k < N, plus (mg, ..., mg) for a progression; {0, g, ..., mg}^N for a
    symmetric bound."""
    def mult(k):
        return G.element(tuple(k * c for c in b.g))
    if b.kind == "symmetric":
        return list(itertools.product([mult(k) for k in range(b.m + 1)], repeat=N))
    return [tuple(mult(i + (j >= N - k)) for j in range(N))
            for i in range(b.m) for k in range(N)] + [(mult(b.m),) * N]


def _assert_clique_behind(G, J, N, b, X=None):
    """b's clique is a clique of the Cayley graph of (G, J, N), of the size b's value divides by."""
    C = _clique(G, b, N)
    assert verify_clique(X or build_cayley(G, J, N), C), (G.orders, J, N, b)
    assert len(C) == (b.m * N + 1 if b.kind == "progression" else (b.m + 1) ** N), (J, N, b)
    assert b.value == G.order**N // len(C)


def test_clique_bounds_progression():
    G = GroupSpec((7,))
    J = [(0,), (1,), (2,)]
    bounds = {(b.kind, b.g, b.m): b for b in clique_bounds(G, J, 3)}
    b = bounds[("progression", (1,), 2)]
    assert b.value == 7**3 // 7 == 49
    _assert_clique_behind(G, J, 3, b)


def test_clique_bounds_involution_half_group():
    G = GroupSpec((2, 2))
    J = [(0, 0), (1, 0)]
    bounds = clique_bounds(G, J, 3)
    sym = [b for b in bounds if b.kind == "symmetric"]
    assert sym and sym[0].value == (4 // 2) ** 3 == 8
    _assert_clique_behind(G, J, 3, sym[0])


def test_clique_bounds_symmetric_pair():
    # 1 and 6 = -1 both in J: symmetric window m=1 gives (7/2)^N floored
    G = GroupSpec((7,))
    J = [(0,), (1,), (6,)]
    bounds = clique_bounds(G, J, 2)
    sym = [b for b in bounds if b.kind == "symmetric" and b.g == (1,)]
    assert sym[0].value == 7**2 // 4 == 12
    _assert_clique_behind(G, J, 2, sym[0])


def test_clique_bounds_empty_for_trivial_J():
    assert clique_bounds(GroupSpec((7,)), [(0,)], 2) == []


def test_clique_witnesses_all_verify():
    # every bound's clique, rebuilt from (kind, g, m, N), is checked in the graph
    for orders, J in [((7,), [(0,), (1,), (2,), (3,)]),
                      ((6,), [(0,), (1,), (2,)]),
                      ((2, 4), [(0, 0), (0, 1), (1, 0)]),
                      # -1 and -3 in J but not -2: at g = 1 the symmetric window
                      # is m = 1, and {0, 1, 2, 3}^2 is no clique
                      ((11,), [(0,), (1,), (2,), (3,), (10,), (8,)])]:
        G = GroupSpec(orders)
        for N in (1, 2):
            X = build_cayley(G, J, N)
            for b in clique_bounds(G, J, N):
                _assert_clique_behind(G, J, N, b, X)
