"""Finite abelian groups as products of cyclic factors: elements, characters, subgroups.

Elements of a group with factor orders (n_1, ..., n_k) are int tuples of length k,
coordinate i reduced mod n_i. Characters are indexed the same way; the character
with index c sends g to e(sum_i c_i g_i / n_i), an exact root of unity.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "GroupSpec",
    "SubgroupInfo",
    "element_order",
    "cyclic_residues",
    "subgroup_generated",
    "character_value",
    "parse_group",
    "parse_element",
    "parse_element_set",
    "format_element",
]

ENUMERATION_CAP = 1 << 20


class _GroupOrders(NamedTuple):
    orders: tuple[int, ...]


class GroupSpec(_GroupOrders):
    """A finite abelian group given as Z_{n_1} x ... x Z_{n_k}, each n_i >= 2."""

    __slots__ = ()

    def __new__(cls, orders: tuple[int, ...]) -> "GroupSpec":
        if not orders:
            raise ValueError("group needs at least one cyclic factor")
        for n in orders:
            if not isinstance(n, int) or n < 2:
                raise ValueError(f"cyclic factor orders must be integers >= 2, got {n!r}")
        return super().__new__(cls, orders)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    def is_cyclic(self) -> bool:
        return math.lcm(*self.orders) == self.order

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def element(self, coords) -> tuple[int, ...]:
        """Coerce and reduce coordinates mod the factor orders; bare int works for rank 1."""
        tup = (coords,) if isinstance(coords, int) else tuple(coords)
        if len(tup) != len(self.orders):
            raise ValueError(f"element {tup} has {len(tup)} coordinates, group has {len(self.orders)}")
        return tuple(map(operator.mod, tup, self.orders))

    def subset_with_zero(self, J) -> tuple[tuple[int, ...], ...]:
        """The distinct elements of J in first-seen order; raises ValueError unless 0 is one."""
        Jt = tuple(dict.fromkeys(map(self.element, J)))
        if self.zero() not in Jt:
            raise ValueError("J must contain 0")
        return Jt

    def add(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(operator.mod, map(operator.add, u, v), self.orders))

    def neg(self, u: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(operator.mod, map(operator.neg, u), self.orders))

    def sub(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(operator.mod, map(operator.sub, u, v), self.orders))

    def elements(self):
        """All elements in mixed-radix order (last coordinate fastest)."""
        if self.order > ENUMERATION_CAP:
            raise ValueError(f"group order {self.order} exceeds enumeration cap {ENUMERATION_CAP}")
        return itertools.product(*[range(n) for n in self.orders])

    def __str__(self) -> str:
        return "x".join(str(n) for n in self.orders)


def element_order(G: GroupSpec, g: tuple[int, ...]) -> int:
    """Order of g: lcm over coordinates of n_i / gcd(g_i, n_i)."""
    g = G.element(g)
    return math.lcm(*[n // math.gcd(c, n) for c, n in zip(g, G.orders)])


def cyclic_residues(G: GroupSpec, a, J) -> dict[tuple[int, ...], int]:
    """The residue k with j = k * a, 0 <= k < order(a), of each element j of J inside <a>.

    Elements of J outside <a> are left out; callers decide whether that is an error.
    On cyclic G = Z_n, j lies in <a> iff g = gcd(a, n) divides j, and then
    k = (j / g) * (a / g)^-1 mod n / g; other groups walk <a>. On rank 1 a
    bare int of J is reduced as it is, with no tuple built for it.
    """
    a = G.element(a)
    if G.rank == 1:
        n = G.orders[0]
        g = math.gcd(a[0], n)
        inv = pow(a[0] // g, -1, n // g)
        wanted = {j % n if type(j) is int else G.element(j)[0] for j in J}
        return {(j,): j // g * inv % (n // g) for j in wanted if j % g == 0}
    wanted = {G.element(j) for j in J}
    out = {}
    x = G.zero()
    for k in range(element_order(G, a)):
        if x in wanted:
            out[x] = k
        x = G.add(x, a)
    return out


class SubgroupInfo(NamedTuple):
    """Subgroup of G with order, index, and a membership oracle.

    members is None on rank-1 G, where the subgroup is <n / order> and
    membership is a divisibility test; contains() and sorted_members() work
    either way.
    """

    group: GroupSpec
    order: int
    index: int
    members: frozenset | None

    def contains(self, g: tuple[int, ...]) -> bool:
        g = self.group.element(g)
        if self.members is not None:
            return g in self.members
        return g[0] % self.index == 0

    def sorted_members(self) -> list[tuple[int, ...]]:
        if self.members is None:
            return [(self.index * k,) for k in range(self.order)]
        return sorted(self.members)


def subgroup_generated(G: GroupSpec, gens) -> SubgroupInfo:
    """Closure of a generator set under addition.

    On rank-1 G = Z_n it is <gcd(gens, n)>, found without listing members;
    other groups are closed by BFS, which needs |G| within the enumeration cap.
    """
    gen_tuple = tuple(G.element(g) for g in gens)
    if G.rank == 1:
        d = math.gcd(G.orders[0], *[g[0] for g in gen_tuple])
        return SubgroupInfo(G, G.order // d, d, None)
    if G.order > ENUMERATION_CAP:
        raise ValueError(f"cannot enumerate subgroup of {G} (order {G.order} over cap)")
    seen = {G.zero()}
    frontier = [G.zero()]
    while frontier:
        u = frontier.pop()
        for g in gen_tuple:
            v = G.add(u, g)
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    order = len(seen)
    return SubgroupInfo(G, order, G.order // order, frozenset(seen))


def character_value(G: GroupSpec, chi: tuple[int, ...], g: tuple[int, ...]) -> Fraction:
    """The exact angle q in [0, 1) with chi(g) = e(q) = exp(2*pi*i*q)."""
    chi = G.element(chi)
    g = G.element(g)
    return sum((Fraction(c * x, n) for c, x, n in zip(chi, g, G.orders)), Fraction(0)) % 1


def parse_group(text: str) -> GroupSpec:
    """Group literal: '12' for Z_12, '2x4' for Z_2 x Z_4."""
    parts = text.strip().lower().split("x")
    try:
        orders = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad group literal {text!r}; expected forms like '12' or '2x4'") from None
    return GroupSpec(orders)


def parse_element(G: GroupSpec, text: str) -> tuple[int, ...]:
    """Element literal: '7' (rank 1) or '1,3' (one coordinate per factor)."""
    try:
        coords = tuple(int(p) for p in text.strip().split(","))
    except ValueError:
        raise ValueError(f"bad element literal {text!r}") from None
    if len(coords) == 1 and G.rank > 1:
        raise ValueError(f"element {text!r} has 1 coordinate, group {G} needs {G.rank}")
    return G.element(coords)


def parse_element_set(G: GroupSpec, text: str) -> list[tuple[int, ...]]:
    """Semicolon-separated element literals, e.g. '0;1;6' or '0,0;1,0'."""
    items = [p for p in text.strip().split(";") if p != ""]
    if not items:
        raise ValueError("empty element set")
    seen: list[tuple[int, ...]] = []
    for item in items:
        e = parse_element(G, item)
        if e not in seen:
            seen.append(e)
    return seen


def format_element(g: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in g)
