"""Slab counts, product powering, and the prime-window construction family."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from intersective import constructions
from intersective.abelian import GroupSpec
from intersective.constructions import (ConstructionSearchError, build_construction,
                                        product_lower_bound, slab_is_valid, slab_members,
                                        slab_size, slab_sizes_upto, verify_construction)


# ---------------------------------------------------------------------------
# slab


@pytest.mark.parametrize("n,N,expected", [
    (3, 2, 2), (4, 3, 7), (5, 1, 1), (5, 2, 4), (5, 3, 12), (5, 4, 44),
    (9, 4, 344),
])
def test_slab_size_frozen(n, N, expected):
    assert slab_size(n, N) == expected


def test_slab_size_binary_is_central_binomial():
    # n = 3 slabs are 0/1 tuples with sum N//2
    for N in range(1, 12):
        assert slab_size(3, N) == math.comb(N, N // 2)


def _convolution_count(n, N):
    """Coefficient of x^T in (1 + x + ... + x^(n-2))^N, one factor at a time."""
    counts = [1]
    for _ in range(N):
        counts = [sum(counts[max(0, s - n + 2):s + 1]) for s in range(len(counts) + n - 2)]
    return counts[(n - 2) * N // 2]


def test_slab_size_matches_brute_force():
    for n in range(3, 12):
        for N in range(1, 6):
            if (n - 1) ** N <= 20_000:
                T = (n - 2) * N // 2
                brute = sum(1 for t in itertools.product(range(n - 1), repeat=N) if sum(t) == T)
                assert slab_size(n, N) == brute, (n, N)
    for n in (3, 4, 17, 40):
        for N in range(1, 13):
            assert slab_size(n, N) == _convolution_count(n, N), (n, N)


def test_slab_size_at_large_n():
    # one tuple (T,) at N = 1; at N = 2 the pairs (k, n - 2 - k), 0 <= k <= n - 2
    n = 1 << 22
    assert slab_size(n, 1) == 1
    assert slab_size(n, 2) == n - 1


def test_slab_sizes_upto_matches_pointwise():
    assert slab_sizes_upto(5, 4) == [slab_size(5, N) for N in (1, 2, 3, 4)]
    assert slab_sizes_upto(8, 6) == [slab_size(8, N) for N in range(1, 7)]


def test_slab_members_structure():
    rows = slab_members(5, 3)
    assert len(rows) == slab_size(5, 3)
    target = (5 - 2) * 3 // 2
    assert all(type(r) is tuple and len(r) == 3 and sum(r) == target for r in rows)
    assert min(map(min, rows)) >= 0 and max(map(max, rows)) <= 3
    assert rows == sorted(rows)  # lexicographic order


def test_slab_members_match_itertools_filter():
    """Rows equal the sum filter over all (n-1)^N tuples wherever that has <= 10^4 tuples."""
    checked = 0
    for N in range(1, 14):
        n = 3
        while (n - 1) ** N <= 10**4:
            T = (n - 2) * N // 2
            if N == 1:
                ref = [(T,)]  # the filter keeps exactly the one tuple (T,)
            else:
                ref = [t for t in itertools.product(range(n - 1), repeat=N) if sum(t) == T]
            assert slab_members(n, N) == ref, (n, N)
            checked += 1
            n += 1
    assert checked == 10144


def test_slab_is_valid_sweep():
    for n in (3, 4, 5, 6, 7):
        for N in (1, 2, 3, 4):
            assert slab_is_valid(n, N), (n, N)


def _codes(rows, base):
    """The code sum r_i * base^(N-1-i) of each row r of length N."""
    return [functools.reduce(lambda code, x: code * base + x, r, 0) for r in rows]


def _rows_avoid_steps(rows):
    """No two rows (duplicates included) differ by a {0,1}- or {0,-1}-vector, pair by pair."""
    for a, b in itertools.combinations(rows, 2):
        d = [y - x for x, y in zip(a, b)]
        if set(d) <= {0, 1} or set(d) <= {0, -1}:
            return False
    return True


def test_slab_codes_are_member_codes():
    for n, N in ((3, 6), (4, 5), (6, 3), (9, 4), (12, 2)):
        top = min(n - 2, (n - 2) * N // 2)
        base = 2 if top <= 1 else top + 2
        codes = constructions._slab_codes(n, N, base)
        assert sorted(codes) == sorted(_codes(slab_members(n, N), base)), (n, N)


def test_slab_members_not_valid_when_tampered():
    # a slab plus one member shifted by a {0,1}- or {0,-1}-step fails on every path
    rows = slab_members(6, 3)
    assert slab_is_valid(6, 3)
    codes = _codes(rows, 6)
    assert constructions._translate_avoids(codes, 6, 3) and _rows_avoid_steps(rows)
    assert (2, 2, 2) in rows
    for planted in ((1, 0, 1), (0, -1, -1)):
        bad_rows = rows + [tuple(2 + x for x in planted)]
        bad = _codes(bad_rows, 6)
        assert not constructions._translate_avoids(bad, 6, 3), planted
        assert not _rows_avoid_steps(bad_rows), planted
    # n = 3: 0/1 rows take the bitmask path; plant a member plus an up-step
    # and a member minus a down-step, each behind the whole slab
    binary = slab_members(3, 6)
    assert constructions._subset_avoids(_codes(binary, 2)) and _rows_avoid_steps(binary)
    member = binary[-1]
    assert member == (1, 1, 1, 0, 0, 0)
    for step in ((0, 0, 0, 1, 0, 1), (-1, 0, -1, 0, 0, 0), (0,) * 6):
        bad = binary + [tuple(x + e for x, e in zip(member, step))]
        assert not constructions._subset_avoids(_codes(bad, 2)), step
        assert not _rows_avoid_steps(bad), step


def test_translate_and_pairwise_paths_agree():
    # the bitset paths against the pair-by-pair reference _rows_avoid_steps
    rng = random.Random(7)
    outcomes = set()
    binary_outcomes = set()
    for _ in range(300):
        N = rng.randint(1, 4)
        rows = [tuple(rng.randrange(5) for _ in range(N)) for _ in range(rng.randint(2, 6))]
        base = max(map(max, rows)) + 2
        pairwise = _rows_avoid_steps(rows)
        assert constructions._translate_avoids(_codes(rows, base), base, N) == pairwise, rows
        outcomes.add(pairwise)
        binary = [tuple(rng.randrange(2) for _ in range(N + 2)) for _ in range(rng.randint(2, 11))]
        pairwise = _rows_avoid_steps(binary)
        assert constructions._subset_avoids(_codes(binary, 2)) == pairwise, binary
        binary_outcomes.add(pairwise)
    assert outcomes == binary_outcomes == {True, False}


def test_slab_rejects(monkeypatch):
    with pytest.raises(ValueError):
        slab_size(2, 3)
    with pytest.raises(ValueError):
        slab_size(5, 0)
    for enumerate_slab in (slab_members, slab_is_valid):
        with pytest.raises(ValueError):
            enumerate_slab(2, 3)
        with monkeypatch.context() as m:
            m.setattr(constructions, "SLAB_ENUM_CAP", 100)
            with pytest.raises(ValueError, match="exceed enumeration cap 100"):
                enumerate_slab(9, 9)
    # entries are Python ints: the N = 1 member (n-2)//2 has no width limit
    assert slab_members(70_000, 1) == [(34_999,)]
    assert slab_is_valid(70_000, 1)


# ---------------------------------------------------------------------------
# product powering


def test_product_lower_bound_powers_base():
    pb = product_lower_bound(GroupSpec((5,)), [(0,), (1,)], 3)
    assert (pb.value, pb.base_value, pb.base_optimal) == (8, 2, True)


def test_product_lower_bound_rejects():
    with pytest.raises(ValueError):
        product_lower_bound(GroupSpec((5,)), [(0,), (1,)], 0)


# ---------------------------------------------------------------------------
# the construction family


def test_build_construction_smallest_instance():
    inst = build_construction(2, Fraction(3, 5))
    assert inst.primes == (5, 7)
    assert inst.r == 35 and inst.Q == 37 and inst.s == 4
    assert inst.n == 37 * 35**4 == 55523125
    assert inst.block == 35**3
    assert inst.degree == 36 + 24 * 35**3 == 1029036
    assert inst.support_size == 629


def test_build_construction_is_deterministic():
    assert build_construction(2, Fraction(3, 5)) == build_construction(2, Fraction(3, 5))


def test_epsilon_controls_exponent():
    # smaller epsilon forces a taller power: s is the largest with eps <= 3/(s+1)
    i2 = build_construction(2, Fraction(1, 2))
    assert i2.s == 5
    assert i2.n == 37 * 35**5 == 1943309375
    assert i2.degree == 36015036
    assert build_construction(2, Fraction(3, 4)).s == 3


def test_verify_construction_passes():
    inst = build_construction(2, Fraction(3, 5))
    report = verify_construction(inst)
    assert report.passed and not report.degenerate_epsilon
    assert [b.name for b in report.bullets] == [
        "prime-divisors", "support-admissible", "degree-dominates", "subgroup-index"]
    assert report.first_failure() == "all bullets passed"


def test_verify_construction_catches_tampering():
    inst = build_construction(2, Fraction(3, 5))
    broken = inst._replace(degree=5)
    report = verify_construction(broken)
    assert not report.passed
    assert "degree-dominates" in report.first_failure()
    composite_q = inst._replace(Q=35 * 35)
    assert not verify_construction(composite_q).bullets[0].passed


def _reference_bullets(inst, slack_ok=None):
    """Bullets 2 and 4 from a walk over every support element.

    The element-by-element check the block-wise verifier must agree with:
    the first nonzero j with n - j in S, then the first nonzero j whose
    gcd(j, n) fails the slack test, compared once per distinct gcd.
    """
    a, b = inst.epsilon.numerator, inst.epsilon.denominator
    target = inst.n ** (3 * b - a)

    def exact_ok(slack):
        return slack > 0 and (24 * slack) ** (3 * b) >= target

    slack_ok = slack_ok or exact_ok
    collision = next((j for j in inst.iter_support() if j != 0 and inst.contains(inst.n - j)), None)
    size_ok = inst.support_size ** (3 * b) >= inst.n**a
    support = (inst.contains(1) and collision is None and size_ok,
               f"collision at {collision}" if collision is not None
               else f"|S| = {inst.support_size} vs n^({a}/{3*b})")
    ok_by_gcd, bad = {}, None
    for j in inst.iter_support():
        if j == 0:
            continue
        g = math.gcd(j, inst.n)
        if g not in ok_by_gcd:
            ok_by_gcd[g] = slack_ok(inst.degree - g)
        if not ok_by_gcd[g]:
            bad = j
            break
    index = (bad is None, f"element {bad} has gcd {math.gcd(bad, inst.n)}" if bad is not None
             else f"max gcd slack ok over {inst.support_size - 1} elements")
    return support, index


@functools.cache
def _built(M, eps):
    return build_construction(M, Fraction(eps))


def _tampered(inst, how):
    if how == "as-built":
        return inst
    if how.startswith("n@"):  # n - j lands in block 3 for j in the middle of block k
        L, k = inst.phi_r_support, int(how[2:])
        return inst._replace(n=L[k] * inst.block + inst.Q // 2 + L[3] * inst.block + 1)
    d = inst.degree
    return inst._replace(degree={"d/3": d // 3, "d/50": d // 50,
                                 "d-d/40": d - d // 40, "d-5": d - 5}[how])


@pytest.mark.parametrize("how", ["as-built", "d/3", "d/50", "d-d/40", "d-5", "n@0", "n@1", "n@7"])
@pytest.mark.parametrize("M,eps", [(2, "3/4"), (2, "3/5"), (2, "1/2"), (2, "5/64"), (2, "1/64"), (3, "3/5")])
def test_blockwise_bullets_match_element_walk(M, eps, how):
    inst = _tampered(_built(M, eps), how)
    support, index = _reference_bullets(inst)
    report = verify_construction(inst)
    assert (report.bullets[1].passed, report.bullets[1].detail) == support
    assert (report.bullets[3].passed, report.bullets[3].detail) == index
    if how.startswith("n@"):
        assert support[1].startswith("collision at")


def _least_slack(inst):
    """Least slack with (24 * slack)^(3b) >= n^(3b-a), by bisection on exact powers."""
    a, b = inst.epsilon.numerator, inst.epsilon.denominator
    target = inst.n ** (3 * b - a)
    lo, hi = 1, inst.n
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if (24 * mid) ** (3 * b) >= target else (mid + 1, hi)
    return lo


@pytest.mark.parametrize("off", [-1, 0])
@pytest.mark.parametrize("M,eps", [(2, "3/4"), (2, "3/5"), (3, "3/5")])
def test_subgroup_index_threshold_is_exact(M, eps, off):
    # the largest gcd in S gets exactly the least passing slack, or one less
    inst = _built(M, eps)
    top_gcd = max(math.gcd(j, inst.n) for j in inst.iter_support() if j)
    edge = inst._replace(degree=top_gcd + _least_slack(inst) + off)
    _, index = _reference_bullets(edge)
    assert index[0] == (off == 0)
    bullet = verify_construction(edge).bullets[3]
    assert (bullet.passed, bullet.detail) == index


def _planted_subgroup_index(monkeypatch, inst, bound):
    """Bullet 4 and the walk's answer when every slack below degree - bound fails.

    The root of bullet 4's target is planted as 24 * (degree - bound), so
    the verifier's g_max is bound.
    """
    a, b = inst.epsilon.numerator, inst.epsilon.denominator
    full = inst.n ** (3 * b - a)
    original = constructions._ceil_root

    def planted(x, k):
        return 24 * (inst.degree - bound) if (x, k) == (full, 3 * b) else original(x, k)

    _, expected = _reference_bullets(inst, lambda slack: slack >= inst.degree - bound)
    with monkeypatch.context() as m:
        m.setattr(constructions, "_ceil_root", planted)
        bullet = verify_construction(inst).bullets[3]
    return (bullet.passed, bullet.detail), expected


def test_subgroup_index_bullet_reports_first_failing_element(monkeypatch):
    # plant a monotone failure, so exactly the gcds above bound fail: the
    # bullet must name the element the walk finds first
    inst = _built(2, "3/4")
    # the elements up to 1000 pass unscanned: 1225 is the first gcd over 1000
    bullet, expected = _planted_subgroup_index(monkeypatch, inst, 1000)
    assert bullet == expected == (False, "element 1225 has gcd 1225")
    bullet, expected = _planted_subgroup_index(monkeypatch, inst, 27000)
    assert bullet == expected and bullet[0]


def test_verify_construction_never_walks_the_support(monkeypatch):
    inst = build_construction(3, Fraction(3, 5))

    def walk(self):
        raise AssertionError("support walked element by element")

    monkeypatch.setattr(constructions.ConstructionInstance, "iter_support", walk)
    assert verify_construction(inst).passed


@pytest.mark.parametrize("field,value", [
    ("degree", lambda i: 3 * i.degree), ("degree", lambda i: i.degree + 10**6),
    ("block", lambda i: 35), ("block", lambda i: i.block + 1),
    ("support_size", lambda i: i.support_size + 1),
    ("phi_r_support", lambda i: i.phi_r_support[:-1]),
])
def test_verify_construction_checks_the_description(field, value):
    # an inflated degree passes every inequality, and would give a smaller
    # (n - degree)^N that nothing has proved
    inst = build_construction(2, Fraction(3, 5))
    broken = inst._replace(**{field: value(inst)})
    report = verify_construction(broken)
    assert not report.passed


@pytest.mark.parametrize("eps", ["3/5", "3/4"])  # odd and even 3b: (-x)^(3b) > 0 for the latter
@pytest.mark.parametrize("field,value,failed", [
    ("degree", lambda i: 0, ["degree-dominates", "subgroup-index"]),
    ("degree", lambda i: -3, ["degree-dominates", "subgroup-index"]),
    ("degree", lambda i: -i.degree, ["degree-dominates", "subgroup-index"]),
    ("support_size", lambda i: 0, ["support-admissible"]),
    ("support_size", lambda i: -i.support_size, ["support-admissible"]),
])
def test_nonpositive_sizes_fail_a_bullet(eps, field, value, failed):
    inst = _built(2, eps)
    report = verify_construction(inst._replace(**{field: value(inst)}))
    assert [b.name for b in report.bullets if not b.passed] == failed


def test_ceil_root_small_values():
    for k in range(1, 9):
        assert constructions._ceil_root(0, k) == 0 and constructions._ceil_root(1, k) == 1
        for x in range(1, 300):
            r = constructions._ceil_root(x, k)
            assert r**k >= x > (r - 1) ** k, (x, k)
    assert constructions._ceil_root(10**500 + 7, 1) == 10**500 + 7


def test_ceil_root_random():
    rng = random.Random(5)
    for _ in range(300):
        x, k = rng.getrandbits(rng.randint(1, 3000)), rng.randint(1, 200)
        r = constructions._ceil_root(x, k)
        assert r**k >= x > (r - 1) ** k or x == r == 0, (x, k)


@pytest.mark.parametrize("k", [2, 3, 15, 64, 191, 192])
def test_ceil_root_at_perfect_powers(k):
    r = random.Random(k).getrandbits(1000 + k) | 1 << (999 + k)
    assert constructions._ceil_root(r**k, k) == r
    assert constructions._ceil_root(r**k - 1, k) == r
    assert constructions._ceil_root(r**k + 1, k) == r + 1


def test_degenerate_epsilon_flagged():
    inst = build_construction(2, Fraction(3, 5))
    degen = inst._replace(epsilon=Fraction(0, 1))
    report = verify_construction(degen)
    assert report.degenerate_epsilon
    with pytest.raises(ValueError, match="outside"):
        verify_construction(inst._replace(epsilon=Fraction(4)))


def test_support_block_decomposition():
    inst = build_construction(2, Fraction(3, 5))
    elems = list(inst.iter_support())
    assert len(elems) == inst.support_size
    assert elems[0] == 0 and elems[-1] == inst.degree
    assert all(inst.contains(j) for j in elems[:50])
    assert not inst.contains(inst.degree + 1)
    assert not inst.contains(-1)
    assert not inst.contains(inst.n)
    # unique (x, l) decomposition: all elements distinct and increasing
    assert all(a < b for a, b in zip(elems, elems[1:]))


def test_contains_matches_support_in_gaps_and_missing_blocks():
    """contains agrees with iter_support on the first three blocks, which hold
    the gaps x >= Q and a block index outside phi_r_support, and on the last
    block up to n."""
    inst = build_construction(2, Fraction(3, 5))
    support = set(inst.iter_support())
    assert set(range(3)) - set(inst.phi_r_support)  # a block with no support in range
    for j in itertools.chain(range(-1, 3 * inst.block), range(inst.n - inst.block, inst.n + 1)):
        assert inst.contains(j) == (j in support), j


def test_support_matches_weight_polynomial():
    inst = build_construction(2, Fraction(3, 5))
    h = inst.weight_polynomial()
    assert h.degree == inst.degree
    assert h.support() == tuple(inst.iter_support())
    assert h[0] == 1


def test_build_construction_rejects():
    with pytest.raises(ValueError):
        build_construction(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        build_construction(2, Fraction(0, 1))
    with pytest.raises(ValueError):
        build_construction(2, Fraction(4, 5))  # above 3/4: s would drop below 3
    with pytest.raises(ValueError):
        build_construction(2, Fraction(1, 97))  # denominator cap


def test_admissible_s_guard_survives_optimization(monkeypatch):
    monkeypatch.setattr(constructions, "_admissible_s", lambda epsilon: 2)
    with pytest.raises(RuntimeError, match="s = 2"):
        build_construction(2, Fraction(3, 5))


def test_block_guard_survives_optimization():
    # build_construction refuses s < 3 before assembling, so the block guard
    # is reached by handing _assemble s = 2 directly: r^(s-1) = 35 < Q = 37
    with pytest.raises(RuntimeError, match="does not exceed Q"):
        constructions._assemble(2, Fraction(3, 5), (5, 7), 2)


def test_window_slide_budget_surfaces_failures(monkeypatch):
    monkeypatch.setattr(constructions, "_WINDOW_SLIDE_CAP", 1)
    with pytest.raises(ConstructionSearchError):
        build_construction(2, Fraction(3, 5))
