"""Slab counts, product powering, and the prime-window construction family."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from intersective import constructions
from intersective.abelian import GroupSpec
from intersective.constructions import (ConstructionSearchError, build_construction,
                                        construction_upper_bound, product_lower_bound,
                                        slab_is_valid, slab_members, slab_size,
                                        slab_sizes_upto, verify_construction)


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
    arr = slab_members(5, 3)
    assert arr.shape == (slab_size(5, 3), 3)
    target = (5 - 2) * 3 // 2
    assert (arr.sum(axis=1) == target).all()
    assert arr.min() >= 0 and arr.max() <= 3
    # lexicographic order
    rows = [tuple(r) for r in arr.tolist()]
    assert rows == sorted(rows)


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
            arr = slab_members(n, N)
            assert arr.dtype == np.int16 and arr.shape == (len(ref), N), (n, N)
            assert arr.tolist() == [list(t) for t in ref], (n, N)
            checked += 1
            n += 1
    assert checked == 10144


def test_slab_is_valid_sweep():
    for n in (3, 4, 5, 6, 7):
        for N in (1, 2, 3, 4):
            assert slab_is_valid(n, N), (n, N)


def test_slab_members_not_valid_when_tampered():
    # a slab plus one member shifted by a {0,1}- or {0,-1}-step fails on both paths
    arr = slab_members(6, 3)
    assert slab_is_valid(6, 3)
    assert constructions._translate_avoids(arr, 6) and constructions._pairwise_avoids(arr)
    assert (arr == 2).all(axis=1).any()
    for planted in ((1, 0, 1), (0, -1, -1)):
        shifted = np.array([2, 2, 2], dtype=np.int16) + np.array(planted, dtype=np.int16)
        bad = np.vstack([arr, shifted])
        assert 2**3 - 1 < len(bad)  # the cost rule picks the translate path
        assert not constructions._rows_avoid_steps(bad), planted
        assert not constructions._translate_avoids(bad, 6), planted
        assert not constructions._pairwise_avoids(bad), planted
    # n = 3: 0/1 rows take the bitmask path; plant a member plus an up-step
    # and a member minus a down-step, each behind the whole slab
    binary = slab_members(3, 6)
    assert constructions._subset_avoids(binary) and constructions._pairwise_avoids(binary)
    member = binary[-1]
    assert member.tolist() == [1, 1, 1, 0, 0, 0]
    for planted in (member + [0, 0, 0, 1, 0, 1], member - [1, 0, 1, 0, 0, 0], member):
        bad = np.vstack([binary, planted.astype(np.int16)])
        assert not constructions._rows_avoid_steps(bad), planted
        assert not constructions._subset_avoids(bad), planted
        assert not constructions._pairwise_avoids(bad), planted


def test_translate_and_pairwise_paths_agree():
    rng = np.random.default_rng(7)
    outcomes = set()
    binary_outcomes = set()
    for _ in range(300):
        N = int(rng.integers(1, 5))
        arr = rng.integers(0, 5, size=(int(rng.integers(2, 7)), N)).astype(np.int16)
        pairwise = constructions._pairwise_avoids(arr)
        assert constructions._translate_avoids(arr, int(arr.max()) + 2) == pairwise, arr
        outcomes.add(pairwise)
        binary = rng.integers(0, 2, size=(int(rng.integers(2, 12)), N + 2)).astype(np.int16)
        pairwise = constructions._pairwise_avoids(binary)
        assert constructions._subset_avoids(binary) == pairwise, binary
        assert constructions._rows_avoid_steps(binary) == pairwise, binary
        binary_outcomes.add(pairwise)
    assert outcomes == binary_outcomes == {True, False}


def test_slab_rejects(monkeypatch):
    with pytest.raises(ValueError):
        slab_size(2, 3)
    with pytest.raises(ValueError):
        slab_size(5, 0)
    with monkeypatch.context() as m:
        m.setattr(constructions, "SLAB_ENUM_CAP", 100)
        with pytest.raises(ValueError, match="exceed enumeration cap 100"):
            slab_members(9, 9)
    # entries are int16: the N = 1 member (n-2)//2 must fit
    assert slab_members(40_000, 1).tolist() == [[19_999]]
    with pytest.raises(ValueError, match="int16"):
        slab_members(70_000, 1)


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
    broken = dataclasses.replace(inst, degree=5)
    report = verify_construction(broken)
    assert not report.passed
    assert "degree-dominates" in report.first_failure()
    composite_q = dataclasses.replace(inst, Q=35 * 35)
    assert not verify_construction(composite_q).bullets[0].passed


def test_subgroup_index_bullet_reports_first_failing_element(monkeypatch):
    # plant a failure on one gcd value: the bullet must name the first support
    # element with that gcd, after passing ones, and compare once per gcd
    inst = build_construction(2, Fraction(3, 4))
    nonzero = [j for j in inst.iter_support() if j != 0]
    gcds = list(dict.fromkeys(math.gcd(j, inst.n) for j in nonzero))
    planted = gcds[2]
    first = next(j for j in nonzero if math.gcd(j, inst.n) == planted)
    assert nonzero.index(first) > 2
    original = constructions._power_compare
    slack_calls = []

    def planted_compare(lhs, base, num, den):
        if lhs % 24 == 0 and (inst.degree - lhs // 24) in gcds:
            slack_calls.append(lhs)
            if lhs == 24 * (inst.degree - planted):
                return -1
        return original(lhs, base, num, den)

    monkeypatch.setattr(constructions, "_power_compare", planted_compare)
    bullet = verify_construction(inst).bullets[3]
    assert not bullet.passed
    assert bullet.detail == f"element {first} has gcd {planted}"
    assert len(slack_calls) == len(set(slack_calls)) == 3


def test_degenerate_epsilon_flagged():
    inst = build_construction(2, Fraction(3, 5))
    degen = dataclasses.replace(inst, epsilon=Fraction(0, 1))
    report = verify_construction(degen)
    assert report.degenerate_epsilon


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


def test_support_matches_weight_polynomial():
    inst = build_construction(2, Fraction(3, 5))
    h = inst.weight_polynomial()
    assert h.degree == inst.degree
    assert h.support() == tuple(inst.iter_support())
    assert h[0] == 1


def test_construction_upper_bound():
    inst = build_construction(2, Fraction(3, 5))
    assert construction_upper_bound(inst, 1) == inst.n - inst.degree == 54494089
    assert construction_upper_bound(inst, 2) == 54494089**2
    broken = dataclasses.replace(inst, degree=5)
    with pytest.raises(ValueError):
        construction_upper_bound(broken, 1)
    with pytest.raises(ValueError):
        construction_upper_bound(inst, 0)


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
