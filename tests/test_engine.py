"""Bound orchestration: candidate methods, consistency policing, serialization."""

import hashlib
import importlib
import itertools
import json
import random
import re

import pytest

from conftest import PER_PROCESS_CACHES
from intersective import engine, oracle, spectral
from intersective.abelian import GroupSpec, cyclic_residues, element_order, parse_group
from intersective.cyclotomic import (IntPolynomial, _PackedDigits, best_divisor_polynomial,
                                     cyclotomic, require_admissible)
from intersective.engine import (BoundEntry, InconsistencyError, best_bounds, report_from_json,
                                 report_to_json, weight_candidates)
from intersective.numtheory import divisors, euler_phi
from intersective.oracle import AvoidanceResult
from intersective.spectral import count_nonneg_tuples, residue_dp_count, sign_count_tuples

# the package exports the function cyclotomic under the module's name
cyclotomic_module = importlib.import_module("intersective.cyclotomic")


# ---------------------------------------------------------------------------
# individual candidates


def test_generic_upper_bound():
    # (|G| - |J| + 1)^N, with J counted once per distinct element
    J = [(k,) for k in cyclotomic(105).support()]
    r = best_bounds(GroupSpec((105,)), J, 2, oracle_timeout=0)
    assert r.method_value("generic") == (105 - 33 + 1) ** 2 == 5329
    r = best_bounds(GroupSpec((5,)), [(0,), (1,), (6,), (0,)], 3, oracle_timeout=None)
    assert r.J == ((0,), (1,)) and r.method_value("generic") == 4**3


def test_generic_upper_bound_rejects():
    for orders, J in (((2, 2), [(0, 0), (1, 0)]), ((2,), [(0,), (1,)])):
        r = best_bounds(GroupSpec(orders), J, 1, oracle_timeout=None)
        assert r.method_value("generic") is None
        assert [n for n in r.notes if n.startswith("generic:")] == [
            f"generic: generic bound needs a cyclic group of order >= 3, got {r.group}"]
    with pytest.raises(ValueError, match="^J must contain 0$"):
        best_bounds(GroupSpec((5,)), [(1,)], 1)
    with pytest.raises(ValueError, match="need N >= 1, got 0"):
        best_bounds(GroupSpec((5,)), [(0,)], 0)


def test_divisor_search_recovers_planted_factor():
    J = set(cyclotomic(105).support())
    h = best_divisor_polynomial(105, J)
    assert h == cyclotomic(105)


def test_divisor_search_degree_is_maximal_under_ties():
    # support of Phi_17 * Phi_27 covers 0..34 entirely, so several divisor
    # subsets reach degree 34; whichever wins, the degree cannot drop
    J = set((cyclotomic(17) * cyclotomic(27)).support())
    h = best_divisor_polynomial(459, J)
    assert h.degree == 34
    assert set(h.support()) <= J


def test_divisor_search_none_when_nothing_fits():
    assert best_divisor_polynomial(5, {0, 1}) is None
    assert best_divisor_polynomial(7, {0}) is None
    # Phi_2500 = Phi_10(t^250) has degree 1000 and no coefficient below t^250
    # but 1: it passes the test of its low coefficients, not the full one
    assert best_divisor_polynomial(2500, {0, 1000}) is None


def test_divisor_search_rejects(monkeypatch):
    with pytest.raises(ValueError):
        best_divisor_polynomial(9, {1, 2})  # missing 0
    with pytest.raises(ValueError):
        best_divisor_polynomial(9, {0, 1, 8})  # 1 and -1 collide
    monkeypatch.setattr(cyclotomic_module, "DIVISOR_SUBSET_CAP", 5)
    with pytest.raises(ValueError, match="divisor-subset search exceeded cap 5"):
        best_divisor_polynomial(105, set(cyclotomic(105).support()))


def test_divisor_search_repeats_answer_and_cap_error(monkeypatch):
    J = set(cyclotomic(105).support())
    first = best_divisor_polynomial(105, J)
    assert best_divisor_polynomial(105, J) == first == cyclotomic(105)
    monkeypatch.setattr(cyclotomic_module, "DIVISOR_SUBSET_CAP", 5)
    for _ in range(2):
        with pytest.raises(ValueError, match="divisor-subset search exceeded cap 5"):
            best_divisor_polynomial(105, J)


def _old_divisor_search(n, J, products):
    """The dense depth-first search the packed one replaced: (h or None, subsets visited).

    products keeps (prod Phi_d, its support) per subset across calls, as the
    old search kept its products per process.
    """
    cap = cyclotomic_module.DIVISOR_SUBSET_CAP
    Jset = {j % n for j in J}
    require_admissible(Jset, n)
    max_j = max(Jset)
    if max_j == 0:
        return None, 0
    divs = [d for d in divisors(n) if d > 1 and euler_phi(d) <= max_j]
    best, visited = None, 0

    def product(subset):
        if subset not in products:
            poly = product(subset[:-1])[0] * cyclotomic(subset[-1]) if subset else IntPolynomial.one()
            products[subset] = (poly, frozenset(poly.support()))
        return products[subset]

    def rec(i, subset, deg):
        nonlocal best, visited
        visited += 1
        if visited > cap:
            raise ValueError(f"divisor-subset search exceeded cap {cap}")
        if deg > 0 and (best is None or deg > best.degree):
            poly, support = product(subset)
            if support <= Jset:
                best = poly
        for k in range(i, len(divs)):
            nd = deg + euler_phi(divs[k])
            if nd <= max_j:
                rec(k + 1, subset + (divs[k],), nd)

    rec(0, (), 0)
    return best, visited


def _assert_same_as_old(cases):
    """The packed search returns the old search's polynomial, or raises its ValueError;
    where the old search passed its visit cap, the pruned one may stay under it."""
    products = {}
    for n, J in cases:
        try:
            want = _old_divisor_search(n, J, products)[0]
        except ValueError as e:
            if "divisor-subset search exceeded cap" in str(e):
                continue
            with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                best_divisor_polynomial(n, J)
            continue
        assert best_divisor_polynomial(n, J) == want, (n, sorted(J))


def _admissible_sets(n):
    """Every admissible J in Z_n: 0 plus at most one of j, n - j for each j < n/2."""
    choices = [((), (j,), (n - j,)) for j in range(1, (n + 1) // 2)]
    return [{0, *itertools.chain(*pick)} for pick in itertools.product(*choices)]


def test_divisor_search_matches_old_on_every_small_group():
    cases = [(n, J) for n in range(1, 13) for J in _admissible_sets(n)]
    assert len(cases) == 728
    _assert_same_as_old(cases)


def _random_set_cases(count):
    """count random admissible (n, J) with n <= 200 and at most 12 divisors:
    the five n with more (120, 144, 168, 180, 192) make the old search's
    dense products too slow for this suite."""
    rng = random.Random(2000)
    orders = [n for n in range(3, 201) if len(divisors(n)) <= 12]
    cases = []
    for _ in range(count):
        n = rng.choice(orders)
        J = {0}
        for j in range(1, (n + 1) // 2):
            J |= set(rng.choice(((), (j,), (n - j,))))
        cases.append((n, J))
    return cases


def test_divisor_search_matches_old_on_random_sets():
    _assert_same_as_old(_random_set_cases(2000))


def _z105_residue_cases():
    """The (order, residues) of every search of the Z_105 query on J = supp Phi_105."""
    G = parse_group("105")
    J = [(k,) for k in cyclotomic(105).support()]
    return [(element_order(G, a), set(cyclic_residues(G, a, J).values()))
            for a in J if a != G.zero()]


def test_divisor_search_matches_old_on_z105_residues():
    cases = _z105_residue_cases()
    assert len(cases) == 32
    _assert_same_as_old(cases)


def _planted_cases():
    """(small, odd, the planted (n, h)): products of Phi_d to recover from their supports."""
    def product(*ds):
        h = IntPolynomial.one()
        for d in ds:
            h = h * cyclotomic(d)
        return h

    small = product(2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
    odd = product(3, 5, 7, 9, 15, 21, 35, 45, 63, 105)
    return small, odd, [
        (105, product(3, 5, 7, 15)),
        (105, product(3, 5, 7, 15, 3, 5, 7, 15)),  # squared support: more subsets fit
        (126, product(2, 9, 14)),
        (126, product(2, 9, 14, 2, 9, 14)),
        (2520, small),
        (945, odd * odd),
    ]


def test_divisor_search_matches_old_on_planted_products():
    small, odd, planted = _planted_cases()
    assert max(map(abs, small.coeffs)) == 165
    assert max(map(abs, (odd * odd).coeffs)) == 753
    _assert_same_as_old([(n, set(h.support())) for n, h in planted])


@pytest.mark.parametrize("cap", [cyclotomic_module.DIVISOR_SUBSET_CAP, 40])
def test_divisor_search_on_warm_tables_answers_as_on_fresh_ones(monkeypatch, cap):
    # the per-(factors, low width) tables and their memos of low products
    # carry over from one search to the next; run on fresh caches, then twice
    # more without clearing them, forward and in reverse, every search must
    # return the same polynomial or raise the same cap error
    monkeypatch.setattr(cyclotomic_module, "DIVISOR_SUBSET_CAP", cap)
    cases = ([(n, J) for n in range(1, 13) for J in _admissible_sets(n)] + _z105_residue_cases()
             + _random_set_cases(300) + [(n, set(h.support())) for n, h in _planted_cases()[2]])

    def answer(n, J):
        try:
            return best_divisor_polynomial(n, J)
        except ValueError as e:
            return str(e)

    fresh = []
    for n, J in cases:
        for c in PER_PROCESS_CACHES:
            c.cache_clear()
        fresh.append(answer(n, J))
    if cap == 40:
        assert fresh.count(f"divisor-subset search exceeded cap {cap}") == 105
    assert [answer(n, J) for n, J in cases] == fresh
    assert [answer(n, J) for n, J in reversed(cases)] == fresh[::-1]


def test_packed_support_test_at_the_digit_edge():
    rng = random.Random(8)
    # up to 8 bytes decode through memoryview.cast, 3, 5, 6 and 7 sign-extended
    # to 4 or 8 bytes first; 9 bytes decode digit by digit
    for nbytes in range(1, 10):
        edge = (1 << 8 * nbytes - 1) - 1  # the largest |c| a digit holds
        digits = _PackedDigits(nbytes, 40)
        for _ in range(200):
            coeffs = [rng.choice((0, 0, 1, -1, edge, -edge, rng.randint(-edge, edge)))
                      for _ in range(rng.randrange(1, 41))]
            X = digits.pack(coeffs)
            assert digits.unpack(X) == coeffs + [0] * (40 - len(coeffs))
            assert digits.unpack(X & digits.every) == digits.unpack(X)  # X mod 2^(8 * nbytes * 40)
            support = IntPolynomial.from_coeffs(coeffs).support()
            assert digits.nonzero(X) == digits.mask(support)


def test_divisor_search_cap_is_the_subset_count(monkeypatch):
    # the old search visited 60 subsets; 9 of them could not raise the best
    # degree and are pruned
    J = set(cyclotomic(105).support())
    assert _old_divisor_search(105, J, {})[1] == 60
    monkeypatch.setattr(cyclotomic_module, "DIVISOR_SUBSET_CAP", 51)
    assert best_divisor_polynomial(105, J) == cyclotomic(105)
    monkeypatch.setattr(cyclotomic_module, "DIVISOR_SUBSET_CAP", 50)
    with pytest.raises(ValueError, match="divisor-subset search exceeded cap 50$"):
        best_divisor_polynomial(105, J)
    _assert_same_as_old([(9, {0, 1, 8})])  # an inadmissible J


def test_divisor_search_prunes_degrees_it_cannot_reach(monkeypatch):
    # all 24 divisors d > 1 of 10^4 fit under max J = 6667, so the unpruned
    # search passes 2^20 subsets; only degree 6667 could beat 1 + t, and the
    # search enters a subset only when some subset below it can reach it
    J = {0, 1, 6667}
    monkeypatch.setattr(cyclotomic_module, "DIVISOR_SUBSET_CAP", 10586)
    assert best_divisor_polynomial(10000, J) == IntPolynomial.from_coeffs([1, 1])
    monkeypatch.setattr(cyclotomic_module, "DIVISOR_SUBSET_CAP", 10585)
    with pytest.raises(ValueError, match="divisor-subset search exceeded cap 10585$"):
        best_divisor_polynomial(10000, J)


def test_pair_upper_bound():
    r = best_bounds(GroupSpec((3,)), [(0,), (1,)], 2, oracle_timeout=None)
    assert r.method_value("pair-dp") == residue_dp_count(3, 2) == 4
    # <(0,1)> has order 4 and index 2 in Z_2 x Z_4
    r = best_bounds(GroupSpec((2, 4)), [(0, 0), (0, 1)], 1, oracle_timeout=None)
    assert r.method_value("pair-dp") == 2 * residue_dp_count(4, 1) == 6


def test_pair_upper_bound_rejects_involution():
    # an involution equals its own negation: the symmetric clique covers it, no pair DP runs
    r = best_bounds(GroupSpec((2, 4)), [(0, 0), (1, 0)], 1, oracle_timeout=None)
    assert r.method_value("pair-dp") is None and r.method_value("clique-symmetric") == 4
    assert not any(n.startswith("spectral:") for n in r.notes)


# ---------------------------------------------------------------------------
# the assembled report


@pytest.fixture(scope="module")
def z105_report():
    G = parse_group("105")
    J = [(k,) for k in cyclotomic(105).support()]
    return best_bounds(G, J, 2, oracle_timeout=2.0)


def test_z105_method_values(z105_report):
    r = z105_report
    assert r.method_value("generic") == 5329
    assert r.method_value("spectral-divisor") == 57**2 == 3249
    assert r.method_value("pair-dp") == 4900
    assert r.method_value("spectral-invcyclo") == 4900
    # the support contains the run 8..48, so a progression clique with m = 6
    # covers the whole group: floor(105^2 / 13) beats every spectral count
    assert r.method_value("clique-progression") == 105**2 // 13 == 848
    assert r.best_upper == 848


def test_z105_lower_and_notes(z105_report):
    r = z105_report
    assert r.exact is None
    assert r.method_value("product") == 36   # exact N=1 value is 6
    assert r.best_lower == 36
    assert any("oracle" in note and "cap" in note for note in r.notes)


def test_report_bytes_are_pinned(z105_report):
    # the Z_105 report and the README's bounds query, serialised with sorted keys
    G = parse_group("7")
    readme = best_bounds(G, [(0,), (1,)], 2)
    digests = [hashlib.sha256(json.dumps(report_to_json(r), sort_keys=True).encode()).hexdigest()
               for r in (z105_report, readme)]
    assert digests == ["96607cdd2173159bbaf09da2838e7324272539abd1c0bec16ae31d56f7a59fe1",
                       "db4fa47c940dde7dba9db45c27f8d1a48e9f770ddfc44e053c56a964b06abb1c"]


def test_pair_count_once_per_distinct_order(z105_report):
    G = parse_group("105")
    J = [(k,) for k in cyclotomic(105).support()]
    r = best_bounds(G, J, 2, oracle_timeout=2.0)
    orders = {element_order(G, j) for j in r.J if j != G.zero()}
    assert len(orders) == 7
    # 32 elements, one count per order
    assert sign_count_tuples.cache_info().misses == len(orders)
    assert report_to_json(r) == report_to_json(z105_report)
    # one count per element, without sharing, gives the same best value
    h = IntPolynomial.from_coeffs([1, -1])
    per_element = [(105 // n) ** 2 * count_nonneg_tuples(h, n, 2)
                   for n in (element_order(G, a) for a in r.J if a != G.zero())]
    assert r.method_value("pair-count") == min(per_element) == 4350
    assert [e.params_dict() for e in r.upper if e.method == "pair-count"] == [{"a": "5"}]


def test_per_g_j_work_once_on_the_z7_sweep(monkeypatch):
    """Over Z_7's sweep queries at N = 1 and N = 2, the canonical labels run once
    per (G, sorted J) and the pair DP once per (n, N)."""
    labelled, profiled = [], []
    labels, profile = oracle._canonical_labels, spectral.residue_dp_profile
    monkeypatch.setattr(oracle, "_canonical_labels",
                        lambda G, J: labelled.append((G, tuple(sorted(J)))) or labels(G, J))
    monkeypatch.setattr(spectral, "residue_dp_profile",
                        lambda n, N: profiled.append((n, N)) or profile(n, N))
    G = GroupSpec((7,))
    nonzero = [(k,) for k in range(1, 7)]
    Js = [[(0,)] + list(S) for k in range(1, 7) for S in itertools.combinations(nonzero, k)]
    for N in (1, 2):
        for J in Js:  # N = 2 lists J backwards, the same set
            assert best_bounds(G, J if N == 1 else J[::-1], N, oracle_timeout=None).exact is not None
    assert sorted(labelled) == sorted(set(labelled)) and len(labelled) == len(Js) == 63
    assert sorted(profiled) == [(7, 1), (7, 2)]


def test_timed_out_query_then_closed_query_closes():
    """No per-process cache keeps what a timed-out search saw: the closed query after
    it reports what it reports on fresh caches. {0, 3} is relabelled to {0, 1}."""
    G, J = GroupSpec((7,)), [(0,), (3,)]
    fresh = report_to_json(best_bounds(G, J, 2, oracle_timeout=None))
    for cache in PER_PROCESS_CACHES:
        cache.cache_clear()
    partial = best_bounds(G, J, 2, oracle_timeout=0.0)
    assert partial.exact is None and partial.method_value("oracle-partial") is not None
    closed = best_bounds(G, J, 2, oracle_timeout=None)
    assert closed.exact == 14 and report_to_json(closed) == fresh


def test_weight_candidates_are_cached_immutable_tuples(monkeypatch):
    first = weight_candidates(7, frozenset({0, 1, 3}))
    second = weight_candidates(7, frozenset({0, 1, 3}))
    assert second is first and weight_candidates.cache_info().hits == 1
    assert isinstance(first[0], tuple) and first[1] is None
    assert [m for m, _ in first[0]] == ["spectral-invcyclo", "pair-count"]
    monkeypatch.setattr(cyclotomic_module, "DIVISOR_SUBSET_CAP", 1)
    cands, failure = weight_candidates(15, frozenset({0, 1, 2, 4}))
    assert failure == "divisor-subset search exceeded cap 1"
    assert [m for m, _ in cands] == ["pair-count"]


def test_second_query_reuses_pair_counts():
    G = parse_group("105")
    J = [(k,) for k in cyclotomic(105).support()]
    first = best_bounds(G, J, 2, oracle_timeout=2.0)
    assert sign_count_tuples.cache_info().misses == 7
    second = best_bounds(G, J, 2, oracle_timeout=2.0)
    assert sign_count_tuples.cache_info().misses == 7  # every (order, N) came from the cache
    assert report_to_json(second) == report_to_json(first)


def test_cached_ambiguous_count_warns_on_every_query(monkeypatch):
    walk = spectral._walk

    def ambiguous(*args):
        # every multiset the walk would count as above the threshold is left
        # undecided instead, so the count is unchanged but warns
        tally = walk(*args)
        return {**tally, "above": 0, "ambiguous": tally["ambiguous"] + tally["above"]}

    expected = count_nonneg_tuples(IntPolynomial.from_coeffs([1, -1]), 5, 2)
    sign_count_tuples.cache_clear()
    monkeypatch.setattr(spectral, "_walk", ambiguous)
    for _ in range(2):
        with pytest.warns(UserWarning, match="ambiguous at precision cap"):
            r = best_bounds(GroupSpec((5,)), [(0,), (1,)], 2)
        assert r.method_value("pair-count") == expected
    info = sign_count_tuples.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # counted once, warned twice


def test_invcyclo_needs_its_degree_in_the_residues(monkeypatch):
    # Psi_n is monic of degree n - phi(n) = 500000 here, so {0, 1} cannot hold it
    def dense(n):
        raise AssertionError(f"Psi_{n} built")

    monkeypatch.setattr(engine, "inverse_cyclotomic", dense)
    cands, failure = engine.weight_candidates(10**6, frozenset({0, 1}))
    assert [m for m, _ in cands] == ["spectral-divisor", "pair-count"] and failure is None


def test_spectral_family_survives_an_order_past_the_dense_limit():
    # Psi_4194304 has degree 2^21, over the dense limit, but {0, 1} could never hold it
    r = best_bounds(GroupSpec((4194304,)), [(0,), (1,)], 1)
    assert r.method_value("pair-dp") == r.method_value("spectral-divisor") == 4194303
    assert not any(note.startswith("spectral:") for note in r.notes)
    assert r.best_upper == 2097152


def test_family_value_error_becomes_note(monkeypatch):
    def boom(n, residues):
        raise ValueError("boom")

    monkeypatch.setattr(engine, "weight_candidates", boom)
    r = best_bounds(GroupSpec((7,)), [(0,), (1,)], 2)
    assert "spectral: boom" in r.notes
    assert r.method_value("pair-dp") is None
    for method in ("generic", "clique-progression", "oracle"):
        assert r.method_value(method) is not None, method
    assert r.exact == r.method_value("oracle")


def test_family_runtime_error_propagates(monkeypatch):
    def boom(n, residues):
        raise RuntimeError("boom")

    monkeypatch.setattr(engine, "weight_candidates", boom)
    with pytest.raises(RuntimeError, match="boom"):
        best_bounds(GroupSpec((7,)), [(0,), (1,)], 2)


def test_pair_count_over_cap_leaves_one_note_per_order(monkeypatch):
    monkeypatch.setattr(engine, "ENGINE_MULTISET_CAP", 20)
    # 1 and 2 both have order 7, and both see the residues {0, 1} of 1 - t
    r = best_bounds(GroupSpec((7,)), [(0,), (1,), (2,)], 2)
    assert r.method_value("pair-count") is None
    assert [n for n in r.notes if n.startswith("pair-count")] == [
        "pair-count at order 7: 28 multisets exceed cap 20"]
    assert sign_count_tuples.cache_info().misses == 0


def test_f4_exact_through_reduction():
    r = best_bounds(GroupSpec((2, 2)), [(0, 0), (1, 0)], 3)
    assert r.exact == 8
    assert r.method_value("clique-symmetric") == 8
    assert r.method_value("clique-progression") == 16
    assert r.method_value("product") == 8
    assert r.best_upper == r.best_lower == 8
    assert any(note.startswith("generic:") for note in r.notes)
    assert r.certificate is None  # reduction index 2: block witness not lifted here


def test_z5_pair_full_stack():
    r = best_bounds(GroupSpec((5,)), [(0,), (1,)], 1)
    assert r.exact == 2
    assert r.method_value("generic") == 4
    assert r.method_value("pair-dp") == 4
    assert r.method_value("pair-count") == 2
    assert r.method_value("slab") == 1
    assert r.certificate == (((0,),), ((2,),))
    assert r.best_upper == 2 and r.best_lower == 2


def test_oracle_timeout_becomes_partial_lower():
    r = best_bounds(GroupSpec((7,)), [(0,), (1,)], 2, oracle_timeout=0.0)
    assert r.exact is None
    assert r.method_value("oracle-partial") >= 1
    assert any("timed out" in note for note in r.notes)


def test_report_rejects_bad_query():
    with pytest.raises(ValueError):
        best_bounds(GroupSpec((5,)), [(1,)], 1)
    with pytest.raises(ValueError):
        best_bounds(GroupSpec((5,)), [(0,)], 0)


def test_inconsistency_raises_with_report(monkeypatch):
    def inflated(G, J, N, *, timeout=None):
        return AvoidanceResult(999, 5, 1, 999, True, None)

    monkeypatch.setattr("intersective.engine.exact_avoidance", inflated)
    with pytest.raises(InconsistencyError) as exc:
        best_bounds(GroupSpec((5,)), [(0,), (1,)], 1)
    report = exc.value.report
    assert report.best_lower == 999
    assert report.best_upper < 999


# ---------------------------------------------------------------------------
# serialization


def test_report_json_roundtrip_with_certificate():
    r = best_bounds(GroupSpec((5,)), [(0,), (1,)], 1)
    data = report_to_json(r)
    assert data["exact"] == "2"
    assert data["best_upper"] == "2"
    assert data["certificate"] == [["0"], ["2"]]
    assert report_from_json(data) == r


def test_report_json_roundtrip_noncyclic():
    r = best_bounds(GroupSpec((2, 2)), [(0, 0), (1, 0)], 2)
    data = report_to_json(r)
    assert data["query"]["group"] == "2x2"
    assert report_from_json(data) == r


def test_report_json_values_are_strings():
    # arbitrary-size integers survive any JSON consumer as strings
    r = best_bounds(GroupSpec((5,)), [(0,), (1,)], 1)
    data = report_to_json(r)
    for side in ("upper", "lower"):
        for e in data[side]:
            assert isinstance(e["value"], str)


def test_bound_entry_params_dict():
    e = BoundEntry(4, "pair-dp", (("a", "1"),))
    assert e.params_dict() == {"a": "1"}
