"""Exact avoidance oracle: graph construction, search, reduction, witnesses.

Anchor values here were cross-checked against independent runs on the
unreduced graph over all of G^N before being frozen.
"""

import functools
import hashlib
import itertools
import math
import random
import sys

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import adjacent
from intersective import oracle
from intersective.abelian import GroupSpec, element_order, subgroup_generated
from intersective.cyclotomic import cyclotomic
from intersective.oracle import (AvoidanceResult, OracleInfeasible, _build_on_base,
                                 _subgroup_base, build_cayley, coset_representatives,
                                 exact_avoidance, lift_block_witness, max_independent_set)

SMALL_GROUPS = [(m,) for m in range(2, 10)] + [(2, 2), (2, 4), (3, 3), (2, 2, 2)]


# ---------------------------------------------------------------------------
# graph construction


def test_build_cayley_pentagon():
    G = GroupSpec((5,))
    X = build_cayley(G, [(0,), (1,)], 1)
    assert X.n_vertices == 5
    assert {r.bit_count() for r in X.rows} == {2}
    assert adjacent(X, [(0,)], [(1,)])
    assert adjacent(X, [(0,)], [(4,)])
    assert not adjacent(X, [(0,)], [(2,)])
    assert not adjacent(X, [(3,)], [(3,)])


def test_build_cayley_product_degrees():
    # connection set {0,1}^2 u {0,4}^2 minus zero has 6 vectors, vertex-transitive
    X = build_cayley(GroupSpec((5,)), [(0,), (1,)], 2)
    assert X.n_vertices == 25
    assert {r.bit_count() for r in X.rows} == {6}


def test_build_cayley_rejects(monkeypatch):
    G = GroupSpec((5,))
    with pytest.raises(ValueError):
        build_cayley(G, [(0,), (1,)], 0)
    with pytest.raises(ValueError):
        build_cayley(G, [(1,)], 1)  # 0 must be in J
    monkeypatch.setattr(oracle, "DENSE_CAP", 100)
    with pytest.raises(OracleInfeasible, match="343 vertices exceed cap 100"):
        build_cayley(GroupSpec((7,)), [(0,), (1,)], 3)


def _reference_rows(G, J, N, base):
    """The per-pair builder: one tuple sum and dict lookup per (vector, vertex)."""
    vertices = list(itertools.product(base, repeat=N))
    index = {v: i for i, v in enumerate(vertices)}
    conn = set()
    for c in itertools.product(J, repeat=N):
        if any(x != G.zero() for x in c):
            conn.add(c)
            conn.add(tuple(G.neg(x) for x in c))
    rows = [0] * len(vertices)
    for c in conn:
        for i, v in enumerate(vertices):
            rows[i] |= 1 << index[tuple(G.add(a, b) for a, b in zip(v, c))]
    return tuple(rows)


def _builder_grid():
    """(G, J, N, base) for G^N and the subgroup bases of exact_avoidance, <= 81 vertices.

    N = 3 only with one nonzero element of J, since the reference builder
    costs minutes on the rest.
    """
    for orders in SMALL_GROUPS:
        G = GroupSpec(orders)
        nonzero = [e for e in G.elements() if any(e)]
        for k in (1, 2):
            for S in itertools.combinations(nonzero, k):
                J = (G.zero(),) + S
                sub = _subgroup_base(subgroup_generated(G, S))
                for N in (1, 2, 3):
                    for base in (tuple(G.elements()), sub):
                        if len(base) ** N <= 81 and not (N == 3 and k == 2):
                            yield G, J, N, base


def test_builder_matches_reference():
    """Rows equal the per-pair builder on G^N and on the subgroup bases of exact_avoidance."""
    checked = 0
    for G, J, N, base in _builder_grid():
        X = _build_on_base(G, J, N, base, 4096)
        assert X.vertices == tuple(itertools.product(base, repeat=N))
        assert X.rows == _reference_rows(G, J, N, base), (G.orders, J, N, base)
        checked += 1
    assert checked > 900


def _random_subset(n: int, step: int) -> list[tuple[int]]:
    """0 and 9 to 19 random nonzero multiples of step (fewer if <step> is smaller),
    seeded by step, so that J spans <step> or a subgroup of it."""
    rng = random.Random(step)
    picked = rng.sample(range(step, n, step), min(rng.randint(9, 19), n // step - 1))
    return [(0,)] + [(x,) for x in picked]


@pytest.mark.parametrize("orders,J,N", [
    ((6,), [(0,), (2,)], 3),
    ((2, 4), [(0, 0), (0, 2)], 2),
    ((9,), [(0,), (3,), (6,)], 3),
    ((2, 2), [(0, 0), (1, 0), (0, 1)], 4),
    ((8,), [(0,), (1,)], 4),  # 4096 vertices, MIS_CAP
    ((4, 64), [(0, 0), (2, 0), (0, 2)], 1),  # rank-2 bases of 256 and 64 elements
    ((105,), [(k,) for k in cyclotomic(105).support()], 1),  # rotated masks of 105 bits
    ((12,), [(0,), (9,), (6,)], 2),  # Z_12 and the rotations on <3> = {0, 3, 6, 9}
    *(((60,), _random_subset(60, step), 1) for step in (1, 2, 3, 4, 5, 6)),
])
def test_builder_matches_reference_on_larger_graphs(orders, J, N):
    G = GroupSpec(orders)
    for base in dict.fromkeys((tuple(G.elements()), _subgroup_base(subgroup_generated(G, J)))):
        assert _build_on_base(G, tuple(J), N, base, 4096).rows == _reference_rows(G, J, N, base)


def test_build_rejects_base_not_closed_under_shifts():
    # {0, 2, 4} is <2> in Z_6, but J = {0, 1} shifts 0 to 1, which lies outside
    G = GroupSpec((6,))
    with pytest.raises(ValueError, match=r"not closed under shifts by J and -J: \(0,\) \+ \(1,\)$"):
        _build_on_base(G, ((0,), (1,)), 2, ((0,), (2,), (4,)), 4096)
    # {0, 1} in Z_3 with J = {0, 1}: both 1 + 1 and 0 - 1 land on 2
    with pytest.raises(ValueError, match=r"\(0,\) \+ \(2,\)$"):
        _build_on_base(GroupSpec((3,)), ((0,), (1,)), 1, ((0,), (1,)), 4096)
    # the first failing element wins, then its first failing shift: 0 - 1
    # leaves {0, 1, 2, 4} in Z_8 before 2 + 1 does
    with pytest.raises(ValueError, match=r"\(0,\) \+ \(7,\)$"):
        _build_on_base(GroupSpec((8,)), ((0,), (1,)), 1, ((0,), (1,), (2,), (4,)), 4096)


def test_build_without_zero_in_J_has_no_self_loops():
    # J = {1} in Z_5 at N = 2: v is adjacent to v + (1,1) and v - (1,1) only
    G = GroupSpec((5,))
    X = _build_on_base(G, ((1,),), 2, tuple(G.elements()), 4096)
    for v, row in enumerate(X.rows):
        assert not row >> v & 1
        assert row.bit_count() == 2
        u = X.vertices[v]
        assert {X.vertices[w] for w in range(25) if row >> w & 1} == {
            tuple(G.add(x, (1,)) for x in u), tuple(G.add(x, (4,)) for x in u)}


def test_build_cayley_sparse_above_dense_cap():
    # 5^7 = 78125 vertices: every graph has dense rows, so the builder refuses
    with pytest.raises(OracleInfeasible, match="78125 vertices exceed cap 65536"):
        build_cayley(GroupSpec((5,)), [(0,), (1,)], 7)


# ---------------------------------------------------------------------------
# exact search


def _reference_mis(X):
    """The per-vertex colouring search: one colour appended per vertex, then a
    branch per vertex from the back of that order. No budget, so it returns
    (value, witness, nodes, True)."""
    n = X.n_vertices
    full = (1 << n) - 1
    comp = [full & ~X.rows[i] & ~(1 << i) for i in range(n)]
    best, best_bits = 0, 0
    allowed = full
    for v in sorted(range(n), key=lambda i: bin(comp[i]).count("1"), reverse=True):
        if allowed >> v & 1:
            best, best_bits = best + 1, best_bits | 1 << v
            allowed &= comp[v]
    nodes = 0

    def color_order(P):
        order, bounds, color, rem = [], [], 0, P
        while rem:
            color += 1
            Q = rem
            while Q:
                b = Q & -Q
                v = b.bit_length() - 1
                Q &= ~comp[v] & ~b
                rem &= ~b
                order.append(v)
                bounds.append(color)
        return order, bounds

    def expand(r_size, r_bits, P):
        nonlocal best, best_bits, nodes
        nodes += 1
        if r_size > best:
            best, best_bits = r_size, r_bits
        order, bounds = color_order(P)
        for i in range(len(order) - 1, -1, -1):
            if r_size + bounds[i] <= best:
                return
            b = 1 << order[i]
            expand(r_size + 1, r_bits | b, P & comp[order[i]])
            if r_size == 0:
                return
            P &= ~b

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n + 64))
    try:
        expand(0, 0, full)
    finally:
        sys.setrecursionlimit(old_limit)
    return best, tuple(X.vertices[i] for i in range(n) if best_bits >> i & 1), nodes, True


@functools.cache
def _reference_grid():
    """Each distinct graph of _builder_grid as (G, J, N, X, _reference_mis(X))."""
    out = {}
    for G, J, N, base in _builder_grid():
        key = (str(G), J, N, tuple(base))
        if key not in out:  # a subgroup base equal to G gives the same graph twice
            X = _build_on_base(G, J, N, base, 4096)
            out[key] = (G, J, N, X, _reference_mis(X))
    return tuple(out.values())


def test_search_matches_reference_kernel(monkeypatch):
    """Colour classes as bitsets walk the same tree as the per-vertex colouring,
    once the kernel incumbent and the depth-1 orbits are made trivial."""
    monkeypatch.setattr(oracle, "_kernel_incumbent", lambda X: (0, 0))
    monkeypatch.setattr(oracle, "_orbit_masks", lambda X, v0: [1 << v for v in range(X.n_vertices)])
    for G, J, N, X, reference in _reference_grid():
        r = max_independent_set(X)
        assert (r.value, r.witness, r.nodes, r.optimal) == reference, (G.orders, J, N)
    assert len(_reference_grid()) > 600


def test_search_with_incumbent_and_orbits_matches_reference():
    """With the kernel incumbent and orbit pruning the value stays exact and
    the witness independent; the tree is smaller, so nodes are not compared."""
    for G, J, N, X, (value, _, _, optimal) in _reference_grid():
        r = max_independent_set(X)
        assert (r.value, r.optimal) == (value, optimal), (G.orders, J, N)
        members = [X.vertices.index(v) for v in r.witness]
        assert len(set(members)) == r.value
        assert not any(X.rows[i] >> j & 1 for i in members for j in members), (G.orders, J, N)


def _members(bits):
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def test_kernel_incumbent_is_subgroup_missing_S():
    """Each kernel incumbent is a subgroup of base^N with no connection vector in it."""
    found = 0
    for G, J, N, X, _ in _reference_grid():
        size, bits = oracle._kernel_incumbent(X)
        if G.rank > 1:
            assert (size, bits) == (0, 0)
        if size == 0:
            continue
        found += 1
        K = {X.vertices[i] for i in _members(bits)}
        assert len(K) == size and X.vertices[0] in K  # vertex 0 is the zero vector
        for u in K:
            for v in K:
                assert tuple(G.sub(a, b) for a, b in zip(u, v)) in K
        assert not any(adjacent(X, X.vertices[0], u) for u in K)
    assert found > 200


def test_kernel_incumbent_reaches_alpha_on_ladder_instances():
    # {sum x = 0 mod 4} in Z_8^3 and {sum x = 0 mod 5} in Z_5^4 are maximum
    for orders, N, alpha in (((8,), 3, 128), ((5,), 4, 125)):
        X = build_cayley(GroupSpec(orders), [(0,), (1,)], N)
        assert oracle._kernel_incumbent(X)[0] == alpha


def _orbit_generators(X, v0):
    """x -> v0 + g(x - v0) for g a swap of adjacent coordinates or negation, as index maps."""
    G = X.group
    at = X.vertices[v0]
    index = {v: i for i, v in enumerate(X.vertices)}

    def conj(g):
        def f(x):
            d = g(tuple(G.sub(a, b) for a, b in zip(x, at)))
            return index[tuple(G.add(a, b) for a, b in zip(at, d))]
        return [f(x) for x in X.vertices]

    gens = [conj(lambda d: tuple(G.neg(e) for e in d))]
    for i in range(X.N - 1):
        gens.append(conj(lambda d, i=i: d[:i] + (d[i + 1], d[i]) + d[i + 2:]))
    return gens


def test_orbit_masks_partition_and_are_invariant():
    """Orbits partition the vertices; each generator map fixes v0, sends every
    orbit onto itself and preserves adjacency; and each mask is one orbit,
    never a union of several, which would prune cliques not yet searched."""
    checked = 0
    for G, J, N, X, _ in _reference_grid():
        n = X.n_vertices
        for v0 in sorted({0, n // 3, n - 1}):
            orbits = oracle._orbit_masks(X, v0)
            distinct = set(orbits)
            assert sum(o.bit_count() for o in distinct) == n
            assert functools.reduce(int.__or__, distinct) == (1 << n) - 1
            gens = _orbit_generators(X, v0)
            for f in gens:
                assert f[v0] == v0
                for v in range(n):
                    assert orbits[f[v]] == orbits[v]
                    assert sum(1 << f[u] for u in _members(X.rows[v])) == X.rows[f[v]]
            for v in range(n):
                orbit, frontier = {v}, [v]
                while frontier:
                    u = frontier.pop()
                    for w in (f[u] for f in gens):
                        if w not in orbit:
                            orbit.add(w)
                            frontier.append(w)
                assert orbits[v] == sum(1 << u for u in orbit)
            checked += 1
    assert checked > 1500


# SHA-256 of repr(witness), which is what `oracle --certificate` prints, so a
# slip in how the seed, the kernel or the orbits are labelled shows even at
# an unchanged node count
WITNESS_SHA256 = {
    ((5,), 4): "4ea360fbaeeaf9491026558d2f1b89d88f048fabd04d8faa80246ea728336728",
    ((6,), 3): "49db187b0ad3ab2e4aa43e944b0c021e5bd2d442f12e3a617a1d29e011b10a49",
    ((8,), 3): "a11c471b775e3c5aa31f7023737a516aab660db882097702f48b771a7081c2d1",
}


@pytest.mark.parametrize("orders,J,N,value,nodes", [
    ((5,), [(0,), (1,)], 4, 125, 121),  # 1,414 nodes before the kernel incumbent and orbits
    ((6,), [(0,), (1,), (2,)], 3, 19, 2369),  # 7,271 before
    ((8,), [(0,), (1,)], 3, 128, 130),  # 2,660 before
])
def test_search_node_counts_pinned(orders, J, N, value, nodes):
    r = exact_avoidance(GroupSpec(orders), J, N)
    assert r.optimal and r.value == value
    assert r.mis.nodes == nodes
    assert hashlib.sha256(repr(r.mis.witness).encode()).hexdigest() == WITNESS_SHA256[orders, N]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 4096])
def test_mirror_round_trips(n):
    rng = random.Random(n)
    bitsets = [0, 1, 1 << n - 1, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]
    mirrored = oracle._mirror(bitsets, n)
    assert mirrored == [int(format(x, f"0{n}b")[::-1], 2) for x in bitsets]
    assert oracle._mirror(mirrored, n) == bitsets


def test_mirrored_rows_are_the_reversed_base_graph():
    """Vertex k of base[::-1]^N is vertex n - 1 - k of base^N, so the graph
    built on the reversed base has the mirrored rows in reverse order."""
    for G, J, N, X, _ in _reference_grid():
        base = [X.vertices[k][-1] for k in range(oracle._base_size(X))]
        Y = _build_on_base(G, J, N, base[::-1], 4096)
        assert oracle._mirror(reversed(X.rows), X.n_vertices) == list(Y.rows), (G.orders, J, N)


def test_every_built_graph_is_regular():
    """_greedy_seed takes vertices in label order with no degree sort: every
    graph the builders make is a Cayley graph, so all rows have one popcount.
    Checked on the soundness-sweep groups (Z_2..Z_7, Z_2^2), every J, N <= 3,
    on G^N and on the subgroup bases exact_avoidance searches."""
    graphs = 0
    for orders in [(m,) for m in range(2, 8)] + [(2, 2)]:
        G = GroupSpec(orders)
        nonzero = [e for e in G.elements() if any(e)]
        for k in range(len(nonzero) + 1):
            for S in itertools.combinations(nonzero, k):
                J = (G.zero(),) + S
                Jc, _, Hc = oracle._labels(G, J) if S else (J, None, subgroup_generated(G, S))
                for N in (1, 2, 3):
                    for X in (build_cayley(G, J, N),
                              _build_on_base(G, J, N, _subgroup_base(subgroup_generated(G, S)), 4096),
                              _build_on_base(G, Jc, N, _subgroup_base(Hc), 4096)):
                        assert len({row.bit_count() for row in X.rows}) == 1, (orders, J, N)
                        graphs += 1
    assert graphs == 1206


@pytest.mark.parametrize("size,bits", [(3, 0b00111), (3, 0b00101)])
def test_witness_self_check_raises(monkeypatch, size, bits):
    # a planted incumbent above alpha = 2 prunes the whole search and comes
    # back as the answer: {0, 1, 2} has edges, {0, 2} has the wrong size.
    # The seed is on mirrored labels, so the planted bits are mirrored.
    monkeypatch.setattr(oracle, "_greedy_seed",
                        lambda mrows, n: (size, oracle._mirror((bits,), n)[0]))
    X = build_cayley(GroupSpec((5,)), [(0,), (1,)], 1)
    with pytest.raises(RuntimeError, match="not one"):
        max_independent_set(X)


def test_independence_number_pentagon():
    r = max_independent_set(build_cayley(GroupSpec((5,)), [(0,), (1,)], 1))
    assert r.optimal and r.value == 2


def test_search_is_deterministic():
    X = build_cayley(GroupSpec((7,)), [(0,), (1,), (2,)], 2)
    r1 = max_independent_set(X)
    r2 = max_independent_set(X)
    assert r1.value == r2.value == 7
    assert r1.witness == r2.witness
    assert r1.optimal and r2.optimal


def test_witness_is_independent():
    X = build_cayley(GroupSpec((6,)), [(0,), (1,)], 2)
    r = max_independent_set(X)
    assert len(r.witness) == r.value
    for u, v in itertools.combinations(r.witness, 2):
        assert not adjacent(X, u, v)


@st.composite
def small_cayley(draw):
    G = GroupSpec(draw(st.sampled_from(SMALL_GROUPS)))
    nonzero = [e for e in G.elements() if any(e)]
    S = draw(st.lists(st.sampled_from(nonzero), min_size=1, max_size=3, unique=True))
    N = draw(st.integers(1, max(n for n in (1, 2, 3, 4) if G.order**n <= 81)))
    return build_cayley(G, [G.zero()] + S, N)


def _networkx_alpha(X):
    """Independence number as a sum over components of maximum cliques of complements."""
    g = nx.Graph()
    g.add_nodes_from(range(X.n_vertices))
    g.add_edges_from((i, j) for i in range(X.n_vertices) for j in range(i) if X.rows[i] >> j & 1)
    return sum(nx.max_weight_clique(nx.complement(g.subgraph(c)), weight=None)[1]
               for c in nx.connected_components(g))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_cayley())
@example(build_cayley(GroupSpec((7,)), [(0,), (1,), (2,)], 2))
@example(build_cayley(GroupSpec((6,)), [(0,), (1,), (2,)], 2))
@example(build_cayley(GroupSpec((2, 4)), [(0, 0), (0, 1)], 2))
def test_independence_number_matches_networkx(X):
    r = max_independent_set(X)
    assert r.optimal
    assert r.value == _networkx_alpha(X) == len(r.witness)
    assert not any(adjacent(X, u, v) for u, v in itertools.combinations(r.witness, 2))


def test_z5_pair_at_n4_closes_in_fewer_nodes():
    # one top-level branch suffices on a vertex-transitive graph; the full
    # search took 8,994 nodes
    r = exact_avoidance(GroupSpec((5,)), [(0,), (1,)], 4)
    assert r.optimal and r.value == 125
    assert r.mis.nodes < 8994


@pytest.mark.parametrize("orders,J,N,value", [
    ((3,), [(0,), (1,)], 1, 1),
    ((5,), [(0,), (1,)], 1, 2),
    ((5,), [(0,), (1,)], 2, 7),
    ((7,), [(0,), (1,), (2,)], 1, 2),
    ((7,), [(0,), (1,), (2,)], 2, 7),
    ((7,), [(0,), (1,)], 2, 14),
    ((6,), [(0,), (1,)], 1, 3),
    ((6,), [(0,), (3,)], 2, 9),
    ((2, 2), [(0, 0), (1, 0)], 1, 2),
    ((2, 2), [(0, 0), (1, 0)], 2, 4),
    ((2, 2), [(0, 0), (1, 0)], 3, 8),
])
def test_exact_avoidance_anchors(orders, J, N, value):
    r = exact_avoidance(GroupSpec(orders), J, N)
    assert r.optimal
    assert r.value == value


def test_exact_avoidance_subgroup_reduction():
    # <2> in Z_6 has index 2; the 3x3 block graph contributes alpha = 3 at N = 2
    r = exact_avoidance(GroupSpec((6,)), [(0,), (2,)], 2)
    assert (r.value, r.subgroup_order, r.index, r.block_alpha) == (12, 3, 2, 3)


def test_exact_avoidance_trivial_J():
    r = exact_avoidance(GroupSpec((6,)), [(0,)], 2)
    assert r.value == 36
    assert r.optimal and r.mis is None


def test_reduction_matches_unreduced_graph():
    """The coset reduction agrees with a direct search on all of G^N."""
    cases = [((6,), [(0,), (2,)]), ((6,), [(0,), (3,)]),
             ((2, 4), [(0, 0), (0, 2)]), ((2, 4), [(0, 0), (1, 0)])]
    for orders, J in cases:
        G = GroupSpec(orders)
        for N in (1, 2):
            reduced = exact_avoidance(G, J, N).value
            direct = max_independent_set(build_cayley(G, J, N))
            assert direct.optimal and reduced == direct.value, (orders, J, N)


def test_monotone_in_J():
    """Adding forbidden differences can only shrink the extremal value."""
    values = {}
    for n in (5, 6, 7):
        G = GroupSpec((n,))
        singles = [x for x in range(1, n)]
        for N in (1, 2):
            for x in singles:
                values[(n, (x,), N)] = exact_avoidance(G, [(0,), (x,)], N).value
            for x, y in itertools.combinations(singles, 2):
                v = exact_avoidance(G, [(0,), (x,), (y,)], N).value
                assert v <= values[(n, (x,), N)], (n, x, y, N)
                assert v <= values[(n, (y,), N)], (n, x, y, N)


def test_exact_avoidance_rejects(monkeypatch):
    G = GroupSpec((5,))
    with pytest.raises(ValueError):
        exact_avoidance(G, [(0,), (1,)], 0)
    monkeypatch.setattr(oracle, "MIS_CAP", 1000)
    with pytest.raises(OracleInfeasible, match="1331 vertices exceed cap 1000"):
        exact_avoidance(GroupSpec((11,)), [(0,), (1,)], 3)


def test_exact_avoidance_checks_cap_before_building_subgroup(monkeypatch):
    def refuse(*args):
        raise AssertionError("subgroup elements built or J relabelled before the cap check")

    monkeypatch.setattr(oracle, "_subgroup_base", refuse)
    # relabelling runs over 2^21 units here, so it must wait for the cap too
    monkeypatch.setattr(oracle, "_canonical_labels", refuse)
    with pytest.raises(OracleInfeasible, match="4194304 vertices exceed cap 4096"):
        exact_avoidance(GroupSpec((1 << 22,)), [(0,), (1,)], 1)


# ---------------------------------------------------------------------------
# canonical labels and the closed-result memo


def test_canonical_labels_leave_ladder_instances_alone():
    for orders, J in (((5,), [(0,), (1,)]), ((6,), [(0,), (1,), (2,)]), ((8,), [(0,), (1,)]),
                      ((2, 2), [(0, 0), (1, 0), (0, 1)]), ((9,), [(0,), (1,), (3,)]),
                      ((7,), [(0,), (1,), (2,)])):
        G = GroupSpec(orders)
        assert oracle._canonical_labels(G, tuple(J)) == (tuple(sorted(J)), None)


def test_canonical_labels_are_class_invariants():
    """Unit multiples and factor swaps of J share one label, and phi^-1 maps it back onto J."""
    checked = 0
    for orders in [(m,) for m in range(3, 10)] + [(2, 2), (3, 3), (2, 4)]:
        G = GroupSpec(orders)
        nonzero = [e for e in G.elements() if any(e)]
        perms = oracle._factor_permutations(orders, 100)
        units = [u for u in range(1, G.order) if math.gcd(u, G.order) == 1]
        for S in itertools.combinations(nonzero, 2):
            J = (G.zero(),) + S
            label, _ = oracle._canonical_labels(G, J)
            for u in units:
                for perm in perms:
                    K = tuple(G.element(tuple(u * j[k] for k in perm)) for j in J)
                    K_label, inverse = oracle._canonical_labels(G, K)
                    assert K_label == label, (orders, J, K)
                    if inverse is not None:
                        back = sorted(oracle._relabel(G, inverse, x) for x in K_label)
                        assert back == sorted(K)
                    checked += 1
    assert checked > 500


def _per_element_canonical_labels(G, J):
    """_canonical_labels as a loop of _relabel over the elements of J, one map at a time."""
    e = math.lcm(*(element_order(G, j) for j in J))
    units = [u for u in range(1, e) if math.gcd(u, e) == 1]
    best, best_auto = tuple(sorted(J)), None
    for perm in oracle._factor_permutations(G.orders, oracle.MIS_CAP // len(units)):
        for u in units:
            image = tuple(sorted(oracle._relabel(G, (u, perm), j) for j in J))
            if image < best:
                best, best_auto = image, (u, perm)
    if best_auto is None:
        return best, None
    u, perm = best_auto
    inverse = [0] * len(perm)
    for i, src in enumerate(perm):
        inverse[src] = i
    return best, (pow(u, -1, e), tuple(inverse))


def _canonical_label_grid():
    """(G, J) of the criterion 11 sweep but J = {0}, Z_105 with supp Phi_105, and
    the Z_3^2 triples and Z_2 x Z_4 x Z_2 and Z_4 x Z_2 x Z_4 pairs, whose winners swap factors."""
    cases = []
    for G in [GroupSpec((m,)) for m in range(2, 8)] + [GroupSpec((2, 2))]:
        # criterion 11 but J = {0}, which exact_avoidance answers without labels
        nonzero = [g for g in G.elements() if any(g)]
        cases += [(G, (G.zero(),) + S) for k in range(1, len(nonzero) + 1)
                  for S in itertools.combinations(nonzero, k)]
    cases.append((GroupSpec((105,)), tuple((k,) for k in cyclotomic(105).support())))
    for orders, size in (((3, 3), 3), ((2, 4, 2), 2), ((4, 2, 4), 2)):  # factor swaps
        G = GroupSpec(orders)
        nonzero = [g for g in G.elements() if any(g)]
        cases += [(G, (G.zero(),) + S) for S in itertools.combinations(nonzero, size)]
    return cases


def test_canonical_labels_match_the_per_element_loop():
    relabelled = 0
    for G, J in _canonical_label_grid():
        want = _per_element_canonical_labels(G, J)
        assert oracle._canonical_labels(G, J) == want, (G, J)
        relabelled += want[1] is not None and want[1][1] != tuple(range(len(G.orders)))
    assert relabelled > 0  # some winners swap factors


def test_relabelled_search_matches_direct_search():
    """Values through the canonical labels equal a search on J's own labels, and
    each mapped-back witness is independent in J's own block graph."""
    for orders in [(m,) for m in range(3, 10)] + [(2, 2), (3, 3), (2, 4)]:
        G = GroupSpec(orders)
        nonzero = [e for e in G.elements() if any(e)]
        for k in (1, 2):
            for S in itertools.combinations(nonzero, k):
                J = (G.zero(),) + S
                H = subgroup_generated(G, J)
                for N in (1, 2):
                    if H.order**N > 81:
                        continue
                    r = exact_avoidance(G, J, N)
                    direct = oracle._block_search(G, H, J, N, None)
                    assert r.optimal and r.value == direct.value, (orders, J, N)
                    X = _build_on_base(G, J, N, _subgroup_base(H), 4096)
                    members = [X.vertices.index(v) for v in r.mis.witness]
                    assert len(set(members)) == r.block_alpha
                    assert not any(X.rows[i] >> j & 1 for i in members for j in members)


def test_relabelled_pair_closes_like_the_canonical_one():
    # {0, 2} = 3 * {0, 1} in Z_5: open after 60 s on its own labels, 121 nodes on {0, 1}'s
    r = exact_avoidance(GroupSpec((5,)), [(0,), (2,)], 4)
    assert (r.value, r.optimal, r.mis.nodes) == (125, True, 121)


def test_relabelled_triple_matches_its_class():
    # 8 * {0, 1, 7} = {0, 8, 1} in Z_11
    G = GroupSpec((11,))
    r = exact_avoidance(G, [(0,), (1,), (8,)], 2)
    assert r.optimal and r.value == exact_avoidance(G, [(0,), (1,), (7,)], 2).value == 22


def test_tampered_inverse_raises(monkeypatch):
    real = oracle._canonical_labels

    def identity_inverse(G, J):
        return real(G, J)[0], (1, (0,))

    monkeypatch.setattr(oracle, "_canonical_labels", identity_inverse)
    with pytest.raises(RuntimeError, match="not an independent set"):
        exact_avoidance(GroupSpec((5,)), [(0,), (2,)], 2)


def _reference_check_avoider(G, H, J, N, witness, size):
    """The translate-hash check: True iff witness is size distinct vertices of H^N
    and no a + s, a in the witness and s in S = +-(J^N \\ 0), lies in the witness."""
    W = set(witness)
    coords = {x for a in W for x in a}
    minus_J = [G.neg(j) for j in J]
    plus = {(x, y): G.add(x, y) for x in coords for y in set(J).union(minus_J)}
    S = set(itertools.product(J, repeat=N)).union(itertools.product(minus_J, repeat=N))
    S.discard((G.zero(),) * N)
    return not (len(W) != size or not all(H.contains(x) for x in coords)
                or any(tuple(map(plus.__getitem__, zip(a, s))) in W for a in W for s in S))


def _accepts(G, H, J, N, witness, size):
    try:
        oracle._check_avoider(G, H, J, N, witness, size)
    except RuntimeError:
        return False
    return True


def test_witness_check_matches_the_translate_hash_check():
    """Every relabelled witness of the label grid, and each with a swapped vertex, a
    duplicate and a coordinate outside H planted, is accepted or refused by both."""
    rng = random.Random(26)
    witnesses = faults = refused = 0
    for G, J in _canonical_label_grid():
        H = subgroup_generated(G, [j for j in J if any(j)])
        outside = [g for g in G.elements() if not H.contains(g)]
        for N in (1, 2):
            if H.order**N > 81 or oracle._canonical_labels(G, J)[1] is None:
                continue
            r = exact_avoidance(G, J, N)
            W, size = list(r.mis.witness), r.block_alpha
            assert _accepts(G, H, J, N, W, size) and _reference_check_avoider(G, H, J, N, W, size)
            witnesses += 1
            k = rng.randrange(size)
            others = [v for v in itertools.product(H.sorted_members(), repeat=N) if v not in W]
            planted = [W[:k] + [W[k - 1]] + W[k + 1:]] if size > 1 else []  # a duplicate
            if others:  # a swapped vertex, independent or not
                planted.append(W[:k] + [rng.choice(others)] + W[k + 1:])
            if outside:
                i = rng.randrange(N)
                v = W[k][:i] + (rng.choice(outside),) + W[k][i + 1:]
                planted.append(W[:k] + [v] + W[k + 1:])
            for bad in planted:
                want = _reference_check_avoider(G, H, J, N, bad, size)
                assert _accepts(G, H, J, N, bad, size) == want, (G, J, N, bad)
                faults += 1
                refused += not want
    # 868 witnesses and 2,319 faults; the 69 accepted are swaps that stayed independent
    assert witnesses > 800 and refused > 2000 and faults > refused


def test_memo_answers_closed_queries_once(monkeypatch):
    G = GroupSpec((7,))
    first = exact_avoidance(G, [(0,), (1,)], 2)
    calls = []
    monkeypatch.setattr(oracle, "max_independent_set", lambda X, timeout=None: calls.append(X))
    # the same query in another order, a unit multiple, and a budget of zero
    assert exact_avoidance(G, [(1,), (0,)], 2, timeout=0.0) is first
    assert exact_avoidance(G, [(0,), (3,)], 2, timeout=0.0).value == first.value
    assert calls == []


def test_memo_keeps_no_timed_out_result():
    G = GroupSpec((7,))
    for J in ([(0,), (1,)], [(0,), (3,)]):  # canonical, then relabelled
        r = exact_avoidance(G, J, 2, timeout=0.0)
        assert not r.optimal
        assert len(oracle._closed_results._results) == 0
    assert exact_avoidance(G, [(0,), (3,)], 2).optimal
    assert len(oracle._closed_results._results) == 2  # the caller's key and {0, 1}'s


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(oracle._closed_results, "maxsize", 3)
    G = GroupSpec((5,))
    for N in (1, 2, 3, 1, 4):  # N = 1 is used again before N = 2 is dropped
        exact_avoidance(G, [(0,), (1,)], N)
    assert [key[2] for key in oracle._closed_results._results] == [3, 1, 4]


# ---------------------------------------------------------------------------
# timeouts


def test_timeout_returns_lower_bound():
    X = build_cayley(GroupSpec((7,)), [(0,), (1,)], 2)
    r = max_independent_set(X, timeout=0.0)
    assert not r.optimal
    assert r.value >= 1
    for u, v in itertools.combinations(r.witness, 2):
        assert not adjacent(X, u, v)


def test_exact_avoidance_timeout_is_lower_bound():
    r = exact_avoidance(GroupSpec((7,)), [(0,), (1,)], 2, timeout=0.0)
    assert not r.optimal
    assert 1 <= r.value <= 14


# ---------------------------------------------------------------------------
# witnesses


def test_coset_representatives():
    G = GroupSpec((6,))
    H = subgroup_generated(G, [(2,)])
    assert coset_representatives(G, H) == ((0,), (1,))
    G2 = GroupSpec((2, 2))
    H2 = subgroup_generated(G2, [(1, 0)])
    assert coset_representatives(G2, H2) == ((0, 0), (0, 1))


def test_lift_block_witness_through_reduction():
    G = GroupSpec((6,))
    J = [(0,), (2,)]
    r = exact_avoidance(G, J, 2)
    lifted = lift_block_witness(G, J, 2, r)
    assert lifted is not None and len(lifted) == r.value == 12
    assert len(set(lifted)) == 12
    X = build_cayley(G, J, 2)
    for u, v in itertools.combinations(lifted, 2):
        assert not adjacent(X, u, v)


def test_lift_block_witness_index_one():
    G = GroupSpec((5,))
    r = exact_avoidance(G, [(0,), (1,)], 1)
    assert lift_block_witness(G, [(0,), (1,)], 1, r) == r.mis.witness


def test_lift_block_witness_trivial_J():
    G = GroupSpec((3,))
    r = exact_avoidance(G, [(0,)], 1)
    lifted = lift_block_witness(G, [(0,)], 1, r)
    assert lifted is not None and len(lifted) == 3


def test_lift_block_witness_respects_cap(monkeypatch):
    G = GroupSpec((6,))
    r = exact_avoidance(G, [(0,), (2,)], 2)
    monkeypatch.setattr(oracle, "MIS_CAP", 3)
    assert lift_block_witness(G, [(0,), (2,)], 2, r) is None
