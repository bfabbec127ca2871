"""Exact independence numbers of difference-avoidance Cayley graphs.

The quantity of interest is the largest A inside G^N whose difference set
meets J^N only at 0. That is exactly the independence number of the Cayley
graph on G^N whose connection set is (J^N u (-J)^N) \\ {0}, and it factors
through the subgroup generated by J: restricting to H = <J> and multiplying
by [G:H]^N gives the full value, since distinct H^N-cosets are unconstrained.

The search is a branch-and-bound maximum clique on the complement with greedy
colouring bounds, branching in decreasing colour as in Tomita and Seki's MCQ,
with bitsets as plain Python ints and a monotonic-clock budget. Colouring
works a class at a time on bitsets, as in BBMC (San Segundo, Rodriguez-Losada
and Jimenez, Comput. Oper. Res. 2011): a colour class of the complement is a
clique of X, so taking a vertex v into the class keeps the candidates in
X.rows[v], one `&` per vertex. This needs rows without a diagonal bit, which
every Cayley graph has (a nonzero connection vector never fixes a vertex).
The search runs on mirrored labels, vertex v at bit n - 1 - v, where the
lowest remaining vertex is the top bit and needs no negation to find; the
tree and the witness are those of the original labels.
With R the clique built so far, a class whose colour k satisfies
|R| + k <= best at colouring time is not recorded: best only grows, so each
of its vertices would be pruned when its turn came. Timeouts surface the
best set found so far, flagged non-optimal, so callers can still use it as a
certified lower bound.

Every graph here is a Cayley graph on base^N for a vertex base closed under
J and -J (the builder raises otherwise), so it is vertex-transitive, and so
is its complement. Some maximum clique of the complement therefore passes
through any given vertex, and the search ends once its first top-level
branch returns: that branch already reached the clique number, and the
remaining branches could only prove the bound again. This is orbital
branching (Ostrowski, Linderoth, Rossi and Smriglio, Math. Program. 2011)
at the root. It goes on one level down: the maps x -> v0 + g(x - v0), with
v0 the root's branch vertex and g generated by coordinate permutations and
negation, fix v0 and preserve the connection set S, so they are
automorphisms. When a child of the depth-1 node returns, its whole orbit
leaves the candidate set, since every clique through another member of that
orbit maps onto one already searched.

The incumbent starts from a greedy clique and, on a cyclic vertex base
H = Z_m, from the largest character kernel {x : sum c_i x_i = 0 mod m} of
H^N that misses S. Such a subgroup is independent, and on Z_8 {0,1} N=3 and
Z_5 {0,1} N=4 it is already maximum, so the search only has to prove it.
Both the kernels and the orbits are computed only when the search gets to
use them: the kernels when the root would branch past the greedy set, the
orbits when the depth-1 node moves on to a second child.

The value depends only on J up to automorphisms of <J>, but the search cost
depends on the labels: searched on its own labels, Z_5 {0, 2} at N = 4 is
still open after a minute, while {0, 1} = 3 * {0, 2} closes in 121 nodes.
So exact_avoidance searches on the smallest sorted image of J under unit
multiples and swaps of equal-order factors, maps the witness back and checks
it against J, and keeps closed results per process, so each class and each
caller's (G, J, N) is paid once; the labels of each (G, J) are kept too, for
every N. The check needs ordered pairs against J^N only, since b - a lies in
(-J)^N exactly when a - b lies in J^N: one AND of per-coordinate bitsets per member.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
import time
from collections import OrderedDict
from typing import Iterable, NamedTuple

from .abelian import GroupSpec, SubgroupInfo, element_order, subgroup_generated

__all__ = [
    "CayleyGraph",
    "build_cayley",
    "MISResult",
    "max_independent_set",
    "OracleInfeasible",
    "AvoidanceResult",
    "exact_avoidance",
    "coset_representatives",
    "lift_block_witness",
    "DENSE_CAP",
    "MIS_CAP",
]

DENSE_CAP = 1 << 16  # the most vertices build_cayley builds rows for
MIS_CAP = 4096  # most vertices exact_avoidance searches, and largest lifted witness


class OracleInfeasible(ValueError):
    """Instance exceeds a vertex cap."""


class CayleyGraph(NamedTuple):
    """Difference-avoidance graph on base^N for a vertex base closed under J-shifts.

    Adjacency: u ~ v iff u - v lies coordinatewise all in J or all in -J, and
    u != v. rows holds dense bitset adjacency.
    """

    group: GroupSpec
    J: tuple[tuple[int, ...], ...]
    N: int
    vertices: tuple[tuple[tuple[int, ...], ...], ...]
    rows: tuple[int, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def _check_cap(n_vertices: int, cap: int) -> None:
    if n_vertices > cap:
        raise OracleInfeasible(f"{n_vertices} vertices exceed cap {cap}")


def _build_on_base(G: GroupSpec, J, N: int, base, vertex_cap: int) -> CayleyGraph:
    """Cayley graph on base^N; raises ValueError unless base is closed under +-J.

    Closure makes base^N a group on which the connection set acts by
    translation, so the graph is vertex-transitive, which the search uses.
    plus[d] and minus[d] are the bitsets of d + J and d - J over base
    indices. On a rank-1 base laid out as k * step, J inside <step>, they
    are the rotations of J's and -J's masks by d; other bases look up every
    sum, and the first element of base that leaves it names the error.
    """
    base = tuple(base)
    m = len(base)
    _check_cap(m ** N, vertex_cap)
    negJ = tuple(G.neg(j) for j in J)
    step = G.order // m
    if G.rank == 1 and base == tuple(zip(range(0, G.order, step))) and all(
            j % step == 0 for (j,) in J):
        full = (1 << m) - 1
        plus, minus = ([(mask << d | mask >> m - d) & full for d in range(m)]
                       for mask in (sum({1 << j // step for (j,) in S}) for S in (J, negJ)))
    else:
        index = {e: i for i, e in enumerate(base)}
        columns = list(zip(*base))
        moved = {}  # moved[s][i]: index of base[i] + s, None outside base; J u -J in order
        for s in dict.fromkeys(J + negJ):
            shifted = [[(x + c) % n for x in col] for col, c, n in zip(columns, s, G.orders)]
            moved[s] = list(map(index.get, zip(*shifted)))
        if any(None in w for w in moved.values()):
            i = min(w.index(None) for w in moved.values() if None in w)
            s = next(s for s, w in moved.items() if w[i] is None)
            raise ValueError(f"vertex base is not closed under shifts by J and -J: {base[i]} + {s}")
        plus, minus = ([sum(1 << k for k in ks) for ks in zip(*[moved[s] for s in dict.fromkeys(S)])]
                       for S in (J, negJ))
    vertices = tuple(itertools.product(base, repeat=N))
    return CayleyGraph(G, tuple(J), N, vertices, _bitset_rows(plus, minus, N))


def _shifted(bits: int, offsets: list[int], w: int) -> int:
    """Union of bits << a * w over a in offsets."""
    out = 0
    for a in offsets:
        out |= bits << a * w
    return out


def _bitset_rows(plus: list[int], minus: list[int], N: int) -> tuple[int, ...]:
    """Bitset rows of base^N from the masks plus[d] of d + J and minus[d] of d - J.

    Codes are mixed-radix base indices, last coordinate fastest as in
    itertools.product, so coordinate i has weight m^(N-1-i). The codes of
    v + J^N are the sums of one a * m^(N-1-i) per coordinate i, a in
    plus[v_i], so its bitset grows depth first over the coordinates: the
    prefix bitset of v_0..v_(i-1) is shifted by a * m^(N-1-i) for each a in
    plus[v_i], and prefixes are shared by every vertex that extends them.
    On the last coordinate the shifted union is the product prefix *
    plus[v_(N-1)] (Kronecker substitution): the prefix's bits are multiples
    of m apart and the mask is below 2^m, so no two shifted copies overlap
    and the sum carries nowhere. row(v) is the union of v + J^N and v - J^N
    without v itself.
    """
    m = len(plus)
    offsets = [[[a for a in range(m) if mask >> a & 1] for mask in pair]
               for pair in zip(plus, minus)] if N > 1 else []
    prefixes = [(1, 1)]
    for i in range(N - 1):
        w = m ** (N - 1 - i)
        prefixes = [(_shifted(up, pu, w), _shifted(down, pd, w))
                    for up, down in prefixes for pu, pd in offsets]
    rows = (up * pu | down * pd for up, down in prefixes for pu, pd in zip(plus, minus))
    return tuple(row & ~(1 << v) for v, row in enumerate(rows))


def build_cayley(G: GroupSpec, J: Iterable, N: int) -> CayleyGraph:
    """Cayley graph on all of G^N with connection set (J^N u (-J)^N) \\ {0}.

    Raises OracleInfeasible above DENSE_CAP vertices.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    Jt = G.subset_with_zero(J)
    base = tuple(G.elements())
    return _build_on_base(G, Jt, N, base, DENSE_CAP)


class MISResult(NamedTuple):
    """Outcome of an independence search; optimal=False means lower bound only."""

    value: int
    witness: tuple
    optimal: bool
    nodes: int
    elapsed: float


# byte b with its eight bits in reverse order
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _mirror(bitsets: Iterable[int], n: int) -> list[int]:
    """Each bitset of n bits with bit v moved to bit n - 1 - v, in the same order.
    Written big-endian with each byte's bits reversed and read little-endian,
    it is mirrored over whole bytes, then unpadded; the table is built once."""
    width = (n + 7) // 8
    return [int.from_bytes(x.to_bytes(width, "big").translate(_REVERSED), "little") >> 8 * width - n
            for x in bitsets]


def _greedy_seed(mrows: list[int], n: int) -> tuple[int, int]:
    """Quick clique in the complement (= independent set), lowest vertex of X
    first; on mirrored labels as in _color_classes. Every row of a Cayley
    graph has the same degree, so no degree order is needed."""
    chosen = 0
    allowed = (1 << n) - 1
    for v in range(n, 0, -1):
        b = 1 << v - 1
        if allowed & b:
            chosen |= b
            allowed = (allowed ^ b) & ~mrows[v]
    return chosen.bit_count(), chosen


def _color_classes(P: int, mrows: list[int], bit: list[int], kmin: int) -> list[tuple[int, int]]:
    """Greedy colour classes of P in the complement, as (colour, class bitset).

    On mirrored labels, mrows[v] the row of the vertex at bit[v] = 1 << v - 1:
    each class takes the top remaining bit, then the top one adjacent in X to
    all taken so far, and so on. Only classes with colour >= kmin are built
    and returned, in increasing colour.
    """
    classes: list[tuple[int, int]] = []
    color = 0
    rem = P
    while rem:
        color += 1
        Q = before = rem
        while Q:
            v = Q.bit_length()
            Q &= mrows[v]
            rem ^= bit[v]
        if color >= kmin:
            classes.append((color, before ^ rem))
    return classes


def _base_size(X: CayleyGraph) -> int:
    """m with X on base^N and |base| = m."""
    return round(X.n_vertices ** (1 / X.N))


def _kernel_incumbent(X: CayleyGraph) -> tuple[int, int]:
    """Largest character kernel of base^N that misses S, as (size, bitset).

    On a cyclic base, where base index k is the element k * step of H = Z_m,
    each c in Z_m^N (every vertex's digit vector) gives the subgroup
    {x : sum c_i x_i = 0 mod m} of n * gcd(c, m) / m vertices. One that
    contains no connection vector is independent, since two of its members
    differ by a member. The largest such kernel wins, the first c in vertex
    order on ties. Returns (0, 0) on other bases or when every kernel meets S.

    Permuting or negating c keeps its size and whether it misses S, which
    is invariant under both, and the first c of each such orbit in vertex
    order is its sorted digits or those of -c, whichever is smaller. So
    only those representatives are tried, largest gcd first, then by code.
    """
    G, N, n = X.group, X.N, X.n_vertices
    m = _base_size(X)
    step = G.order // m
    if G.rank != 1 or any(X.vertices[k][-1] != (k * step,) for k in range(m)):
        return 0, 0
    J = [j // step for (j,) in X.J]
    reps = [c for c in itertools.combinations_with_replacement(range(m), N)
            if c <= tuple(sorted(-x % m for x in c))]
    reps.sort(key=lambda c: -math.gcd(m, *c))
    c = next((c for c in reps if _kernel_misses(c, J, m)), None)
    if c is None:
        return 0, 0
    residues = [0]  # sum c_i x_i mod m for each vertex x, in code order
    for ci in c:
        residues = [(r + ci * d) % m for r in residues for d in range(m)]
    members = "".join("1" if r == 0 else "0" for r in reversed(residues))
    return n // m * math.gcd(m, *c), int(members, 2)


def _kernel_misses(c: tuple[int, ...], J: list[int], m: int) -> bool:
    """True iff sum c_i s_i != 0 mod m for every nonzero s in J^N, N = len(c).

    s and -s give opposite sums, so this covers (-J)^N too. hit is the set
    of sums over the nonzero prefixes of s, as a bitset over Z_m; a prefix
    is nonzero when an earlier coordinate is, or when this one is.
    """
    full = (1 << m) - 1
    hit = 0
    for ci in c:
        new = 0
        for j in J:
            t = ci * j % m
            new |= (hit << t | hit >> (m - t)) & full
            if j:
                new |= 1 << t
        hit = new
    return not hit & 1


def _orbit_masks(X: CayleyGraph, v0: int) -> list[int]:
    """Bitset of each vertex's orbit under the maps x -> v0 + g(x - v0).

    g runs over the group generated by coordinate permutations and x -> -x.
    When S is invariant under both, as on every graph _build_on_base makes,
    each map is an automorphism of X fixing v0. x and y share an orbit iff
    the digits of d = x - v0 and of y - v0 agree as multisets up to sign,
    so the orbit label is the smaller of sum B^(d_i) and sum B^(-d_i), with
    B = N + 1 so that digit counts never carry. Labels are summed one
    coordinate at a time over the vertices in code order.
    """
    G, N = X.group, X.N
    m = _base_size(X)
    base = [X.vertices[k][-1] for k in range(m)]
    index = {e: k for k, e in enumerate(base)}
    B = N + 1
    up, down = [0], [0]
    for a in X.vertices[v0]:
        d = [G.sub(e, a) for e in base]
        terms = [B ** index[x] for x in d]
        up = [p + t for p in up for t in terms]
        terms = [B ** index[G.neg(x)] for x in d]
        down = [p + t for p in down for t in terms]
    masks: dict[int, int] = {}
    labels = list(map(min, up, down))
    for v, label in enumerate(labels):
        masks[label] = masks.get(label, 0) | 1 << v
    return [masks[label] for label in labels]


def max_independent_set(X: CayleyGraph, *, timeout: float | None = None) -> MISResult:
    """Exact maximum independent set of X by branch and bound.

    Runs a Tomita-style maximum-clique search on the complement graph with
    greedy colouring upper bounds, coloured a class at a time on bitsets
    (see the module docstring). Each node branches on its classes from the
    highest colour down, and inside a class from the highest vertex down,
    and stops at the first vertex v with |R| + colour(v) <= best. Classes
    that this test would stop at anyway, those with colour below
    best - |R| + 1 when the node is coloured, are never recorded.
    The incumbent is the larger of a greedy set and, on a cyclic vertex
    base, the largest character kernel that misses S (greedy on a tie). At
    the depth-1 node each returned child takes its whole orbit under
    coordinate permutations and negation about the root vertex out of the
    candidates (see the module docstring). Rows, kernel and distinct orbit
    masks go to mirrored labels once, and the witness comes back at the end.
    Deterministic: same value and witness for the same graph and budget. On
    timeout the best set found so far comes back with optimal=False. The
    witness, greedy, kernel or searched, is checked to be independent in X
    and of size value before it is returned, and a failure raises
    RuntimeError.

    Preconditions, all met by every graph from build_cayley and
    exact_avoidance: X.rows has no diagonal bit; X is vertex-transitive,
    so the search stops after the first top-level branch, on the vertex the
    colouring order picks, because a maximum independent set through that
    vertex exists; and the vertex base is a group and S is invariant under
    coordinate permutations and negation, so the orbit maps are
    automorphisms. On a graph that breaks them the value could come out too
    small. Raises ValueError unless timeout is None or >= 0.
    """
    if not (timeout is None or timeout >= 0):  # NaN compares false, so it is refused too
        raise ValueError(f"timeout must be None or >= 0, got {timeout}")
    n = X.n_vertices
    start = time.monotonic()
    deadline = None if timeout is None else start + timeout
    mrows = _mirror((0, *reversed(X.rows)), n)  # mrows[v]: row of the vertex at bit v - 1
    bit = [0, *(1 << k for k in range(n))]
    best, best_bits = _greedy_seed(mrows, n)
    nodes = 0
    aborted = False
    orbits = None

    def expand(r_size: int, r_bits: int, P: int) -> None:
        nonlocal best, best_bits, nodes, aborted, orbits
        nodes += 1
        if aborted or (deadline is not None and time.monotonic() > deadline):
            aborted = True
            return
        if r_size > best:
            best, best_bits = r_size, r_bits
        classes = _color_classes(P, mrows, bit, best - r_size + 1)
        if r_size == 0 and classes:  # the root would branch past the greedy incumbent
            size, bits = _kernel_incumbent(X)
            if size > best:
                best, best_bits = size, _mirror((bits,), n)[0]
        searched = None  # at depth 1, the last child whose orbit is still in P, in X's labels
        for color, cls in reversed(classes):
            while cls := cls & P:
                if aborted or r_size + color <= best:
                    return
                if searched is not None:
                    if orbits is None:
                        masks = _orbit_masks(X, n - r_bits.bit_length())
                        distinct = set(masks)
                        mirrored = dict(zip(distinct, _mirror(distinct, n)))
                        orbits = [mirrored[m] for m in masks]
                    P &= ~orbits[searched]
                    searched = None
                    continue
                b = cls & -cls  # the highest vertex of X in the class
                v = b.bit_length()
                expand(r_size + 1, r_bits | b, (P ^ b) & ~mrows[v])
                if r_size == 0:
                    return  # vertex-transitive: the first branch already reached omega
                P ^= b
                if r_size == 1:
                    searched = n - v

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n + 64))
    try:
        expand(0, 0, (1 << n) - 1)
    finally:
        sys.setrecursionlimit(old_limit)
    best_bits = _mirror((best_bits,), n)[0]
    members = [i for i in range(n) if best_bits >> i & 1]
    if len(members) != best or any(X.rows[i] & best_bits for i in members):
        raise RuntimeError(f"search returned {len(members)} vertices as an independent set "
                           f"of size {best}, but they are not one")
    witness = tuple(X.vertices[i] for i in members)
    return MISResult(best, witness, not aborted, nodes, time.monotonic() - start)


class AvoidanceResult(NamedTuple):
    """Exact extremal value via the subgroup reduction value = block_alpha * index^N."""

    value: int
    subgroup_order: int
    index: int
    block_alpha: int
    optimal: bool
    mis: MISResult | None


def _subgroup_base(H: SubgroupInfo) -> tuple:
    return tuple(H.sorted_members())


class _Recent:
    """Values by key, least recently used dropped first past maxsize."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._results: OrderedDict = OrderedDict()

    def get(self, key):
        res = self._results.get(key)
        if res is not None:
            self._results.move_to_end(key)
        return res

    def put(self, key, res) -> None:
        self._results[key] = res
        if len(self._results) > self.maxsize:
            self._results.popitem(last=False)

    def cache_clear(self) -> None:
        self._results.clear()


_closed_results = _Recent(256)  # closed AvoidanceResults by (orders, sorted J, N)


def _factor_permutations(orders: tuple[int, ...], cap: int) -> list[tuple[int, ...]]:
    """Coordinate permutations that only exchange factors of equal order, identity first.

    Image coordinate i is source coordinate perm[i]. Only the identity comes
    back when there would be more than cap of them.
    """
    classes: dict[int, list[int]] = {}
    for i, n in enumerate(orders):
        classes.setdefault(n, []).append(i)
    if math.prod(math.factorial(len(c)) for c in classes.values()) > cap:
        return [tuple(range(len(orders)))]
    perms = []
    for choice in itertools.product(*(itertools.permutations(c) for c in classes.values())):
        perm = [0] * len(orders)
        for positions, images in zip(classes.values(), choice):
            for i, src in zip(positions, images):
                perm[i] = src
        perms.append(tuple(perm))
    return perms


def _relabel(G: GroupSpec, auto: tuple[int, tuple[int, ...]], x: tuple) -> tuple[int, ...]:
    """u * pi(x) for auto = (u, perm), pi moving source coordinate perm[i] to i."""
    u, perm = auto
    return tuple(u * x[k] % n for k, n in zip(perm, G.orders))


def _canonical_labels(G: GroupSpec, J: tuple) -> tuple[tuple, tuple | None]:
    """(sorted phi(J), phi^-1) for the first phi with the smallest sorted image of J.

    phi runs over x -> u * pi(x), u a unit modulo the exponent e of H = <J> and pi
    a permutation of equal-order factors of G. Applied coordinatewise, each
    maps the graph of J on H^N onto the graph of phi(J) on phi(H)^N, since
    u is invertible on H and pi on G. The identity comes first, so phi^-1 is
    None when J is already smallest. At most MIS_CAP maps are tried: H^N fits the
    cap, so the units do, and the permutations are dropped past it.
    """
    e = math.lcm(*(element_order(G, j) for j in J))
    units = [u for u in range(1, e) if math.gcd(u, e) == 1]
    best, best_auto = tuple(sorted(J)), None
    columns = list(zip(*J))
    for perm in _factor_permutations(G.orders, MIS_CAP // len(units)):
        moved = [(columns[k], n) for k, n in zip(perm, G.orders)]
        for u in units:  # relabel J a column at a time, as _relabel does an element
            image = tuple(sorted(zip(*[[u * x % n for x in col] for col, n in moved])))
            if image < best:
                best, best_auto = image, (u, perm)
    if best_auto is None:
        return best, None
    u, perm = best_auto
    inverse = [0] * len(perm)
    for i, src in enumerate(perm):
        inverse[src] = i
    return best, (pow(u, -1, e), tuple(inverse))


@functools.lru_cache(maxsize=256)
def _labels(G: GroupSpec, J: tuple) -> tuple[tuple, tuple | None, SubgroupInfo]:
    """(canonical J, phi^-1, the subgroup canonical J generates) for a sorted J."""
    Jc, inverse = _canonical_labels(G, J)
    return Jc, inverse, subgroup_generated(G, [j for j in Jc if any(j)])


def _check_avoider(G: GroupSpec, H: SubgroupInfo, J: tuple, N: int, witness: tuple,
                   size: int) -> None:
    """Raise RuntimeError unless witness is size distinct vertices of H^N and independent.

    a - b lies in (-J)^N exactly when b - a lies in J^N, so S = +-J^N \\ 0 is
    covered by ordered pairs against J^N alone. near[i][x] is the bitset of the
    members whose coordinate i lies in x + J, and the AND of near[i][a_i] over
    the coordinates, the members b with b - a in J^N, must be a alone.
    """
    W = set(witness)
    at: list[dict] = [{} for _ in range(N)]  # at[i][x]: members with coordinate i equal to x
    for k, a in enumerate(W):
        for col, x in zip(at, a):
            col[x] = col.get(x, 0) | 1 << k
    near = [{x: functools.reduce(operator.or_, [col.get(G.add(x, j), 0) for j in J]) for x in col}
            for col in at]
    if (len(W) != size or not all(H.contains(x) for col in at for x in col)
            or any(functools.reduce(operator.and_, map(dict.__getitem__, near, a)) != 1 << k
                   for k, a in enumerate(W))):
        raise RuntimeError(f"relabelled witness of {len(witness)} vertices is not an "
                           f"independent set of size {size} for J = {J}")


def _block_search(G: GroupSpec, H: SubgroupInfo, J: tuple, N: int,
                  timeout: float | None) -> AvoidanceResult:
    X = _build_on_base(G, J, N, _subgroup_base(H), MIS_CAP)
    mis = max_independent_set(X, timeout=timeout)
    return AvoidanceResult(mis.value * H.index**N, H.order, H.index, mis.value, mis.optimal, mis)


def exact_avoidance(G: GroupSpec, J: Iterable, N: int, *,
                    timeout: float | None = None) -> AvoidanceResult:
    """Largest |A|, A in G^N, with (A - A) meeting J^N only at 0 -- exactly.

    Reduces to the subgroup H generated by J (cosets of H^N are unconstrained),
    runs the exact search on H^N, and multiplies by [G:H]^N. The search runs
    on the canonical labels of J (see _canonical_labels); a relabelled
    witness is mapped back and checked against J, raising RuntimeError if it
    fails. Closed results are kept per process for the last 256
    (G, sorted J, N), and for their canonical labels, so a kept one answers
    even with timeout=0; mis then describes the search that closed it. When
    the search times out the returned value is still a valid lower bound,
    optimal=False, and no result is kept. The canonical labels of the last
    256 (G, sorted J) are kept whatever the budget, after the vertex cap is
    checked.
    Raises OracleInfeasible past MIS_CAP vertices in H^N, ValueError on a timeout < 0 or NaN.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if not (timeout is None or timeout >= 0):
        raise ValueError(f"timeout must be None or >= 0, got {timeout}")
    Jt = G.subset_with_zero(J)
    gens = [j for j in Jt if j != G.zero()]
    if not gens:
        # J = {0}: every difference condition is vacuous
        return AvoidanceResult(G.order**N, 1, G.order, 1, True, None)
    key = (G.orders, tuple(sorted(Jt)), N)
    if (res := _closed_results.get(key)) is not None:
        return res
    H = subgroup_generated(G, gens)
    _check_cap(H.order**N, MIS_CAP)  # before H's elements are built or J is relabelled
    Jc, inverse, Hc = _labels(G, key[1])
    canon_key = (G.orders, Jc, N)
    if (res := _closed_results.get(canon_key)) is None:
        res = _block_search(G, Hc, Jc, N, timeout)
        if res.optimal:
            _closed_results.put(canon_key, res)
    if inverse is not None:
        witness = tuple(sorted(tuple(_relabel(G, inverse, x) for x in v) for v in res.mis.witness))
        _check_avoider(G, H, Jt, N, witness, res.block_alpha)
        res = res._replace(mis=res.mis._replace(witness=witness))
        if res.optimal:
            _closed_results.put(key, res)
    return res


def coset_representatives(G: GroupSpec, H: SubgroupInfo) -> tuple:
    """One representative per coset of H, in the group's element order."""
    reps: list[tuple[int, ...]] = []
    for e in G.elements():
        if not any(H.contains(G.sub(e, r)) for r in reps):
            reps.append(e)
            if len(reps) == H.index:
                break
    return tuple(reps)


def lift_block_witness(G: GroupSpec, J: Iterable, N: int, res: AvoidanceResult) -> tuple | None:
    """Expand a block avoider on <J>^N to one of full size res.value.

    The union of coset translates stays avoiding because J generates the
    subgroup: any cross-coset difference leaves <J>^N and cannot land in J^N.
    Returns None when there is no block witness or the lift exceeds MIS_CAP.
    """
    if res.value > MIS_CAP:
        return None
    if res.mis is None:
        if res.optimal and res.subgroup_order == 1:
            # J = {0}: no constraint, all of G^N qualifies
            return tuple(itertools.product(G.elements(), repeat=N))
        return None
    if res.index == 1:
        return res.mis.witness
    Jt = G.subset_with_zero(J)
    H = subgroup_generated(G, [j for j in Jt if j != G.zero()])
    if H.index != res.index:
        raise ValueError(f"subgroup index {H.index} does not match result index {res.index}")
    reps = coset_representatives(G, H)
    out = []
    for shift in itertools.product(reps, repeat=N):
        for w in res.mis.witness:
            out.append(tuple(G.add(a, b) for a, b in zip(w, shift)))
    return tuple(out)
