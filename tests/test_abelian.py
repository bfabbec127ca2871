import itertools
import math
from fractions import Fraction

import pytest

from intersective.abelian import (GroupSpec, character_value,
                                  cyclic_residues, element_order, format_element,
                                  parse_element, parse_element_set, parse_group,
                                  subgroup_generated)


def _to_complex(q: Fraction) -> complex:
    return complex(math.cos(2 * math.pi * q), math.sin(2 * math.pi * q))


def _count_character_extensions(G, a, x):
    """Number of characters chi of G with chi(a) = e(x / order(a)), over all |G| characters."""
    a = G.element(a)
    n = element_order(G, a)
    if not 0 <= x < n:
        raise ValueError(f"need 0 <= x < order(a) = {n}, got {x}")
    return sum(character_value(G, chi, a) == Fraction(x, n)
               for chi in itertools.product(*[range(m) for m in G.orders]))


def test_group_spec_basics():
    G = GroupSpec((2, 4))
    assert G.order == 8
    assert G.rank == 2
    assert not G.is_cyclic()
    assert GroupSpec((2, 3)).is_cyclic()
    assert G.zero() == (0, 0)
    assert G.add((1, 3), (1, 2)) == (0, 1)
    assert G.neg((1, 3)) == (1, 1)
    assert G.sub((0, 1), (1, 3)) == (1, 2)
    assert str(G) == "2x4"
    assert len(list(G.elements())) == 8


def test_group_spec_rejects_bad_orders():
    with pytest.raises(ValueError):
        GroupSpec(())
    with pytest.raises(ValueError):
        GroupSpec((1,))
    with pytest.raises(ValueError):
        GroupSpec((0, 4))


def test_element_coercion():
    G = GroupSpec((5,))
    assert G.element(7) == (2,)      # bare int for rank 1
    assert G.element((-1,)) == (4,)
    with pytest.raises(ValueError):
        GroupSpec((2, 2)).element((1,))


@pytest.mark.parametrize("orders,g,order", [
    ((6,), (1,), 6),
    ((6,), (2,), 3),
    ((6,), (3,), 2),
    ((6,), (0,), 1),
    ((2, 4), (1, 2), 2),
    ((2, 4), (1, 1), 4),
    ((3, 5), (1, 1), 15),
])
def test_element_order(orders, g, order):
    assert element_order(GroupSpec(orders), g) == order


def _walked_residues(G, a, J):
    """Residues by walking <a>: k = 0, 1, ... until k * a returns to 0."""
    wanted = {G.element(j) for j in J}
    out, x = {}, G.zero()
    for k in range(element_order(G, a)):
        if x in wanted:
            out[x] = k
        x = G.add(x, a)
    return out


def test_cyclic_residues_match_walk():
    """The gcd and inverse form equals the walk for every a, elements outside <a> left out."""
    for n in range(2, 61):
        G = GroupSpec((n,))
        Js = [range(n), [0, 1], [0, n // 2, n - 1], [k for k in range(n) if k % 3 == 0]]
        for a in range(n):
            for J in Js:
                J = [(j,) for j in J]
                assert cyclic_residues(G, (a,), J) == _walked_residues(G, (a,), J), (n, a, J)


def test_subgroup_generated():
    G = GroupSpec((12,))
    H = subgroup_generated(G, [(4,)])
    assert H.order == 3
    assert H.index == 4
    assert H.contains((8,))
    assert not H.contains((2,))
    assert H.sorted_members() == [(0,), (4,), (8,)]

    G2 = GroupSpec((2, 4))
    H2 = subgroup_generated(G2, [(1, 0), (0, 2)])
    assert H2.order == 4
    assert H2.index == 2
    assert H2.contains((1, 2))


def test_subgroup_on_cyclic_group_needs_no_members():
    # rank 1 takes the gcd path at any order: <gcd(6, 10, n)> = <2> in Z_(2^20 * 5)
    G = GroupSpec((5 << 20,))
    H = subgroup_generated(G, [(6,), (10,)])
    assert (H.order, H.index, H.members) == (5 << 19, 2, None)
    assert H.contains((4,)) and not H.contains((3,))
    small = subgroup_generated(GroupSpec((12,)), [(8,), (6,)])
    assert small.sorted_members() == [(2 * k,) for k in range(6)]


def test_subgroup_trivial_and_full():
    G = GroupSpec((7,))
    assert subgroup_generated(G, []).order == 1
    assert subgroup_generated(G, [(3,)]).order == 7


def test_character_value_is_exact_angle():
    G = GroupSpec((6,))
    # chi_2(5) = e(2*5/6) = e(5/3), an angle reduced into [0, 1)
    assert character_value(G, (2,), (5,)) == Fraction(2, 3)
    G2 = GroupSpec((2, 4))
    # e(1/2 + 2/4) = e(1)
    assert character_value(G2, (1, 1), (1, 2)) == 0


def test_character_orthogonality_small():
    """Sum of chi(g) over g is |G| at the trivial character, else 0."""
    G = GroupSpec((3, 4))
    for chi in G.elements():
        total = sum(_to_complex(character_value(G, chi, g)) for g in G.elements())
        expected = G.order if chi == G.zero() else 0
        assert abs(total - expected) < 1e-9, chi


def test_count_character_extensions():
    G = GroupSpec((6,))
    # characters with chi(2) = e(x/3) number [G:<2>] = 2 for every x
    for x in range(3):
        assert _count_character_extensions(G, (2,), x) == 2
    with pytest.raises(ValueError):
        _count_character_extensions(G, (2,), 5)


def test_parse_group_round_trip():
    assert parse_group("105").orders == (105,)
    assert parse_group("2x4").orders == (2, 4)
    assert parse_group(" 2X4 ").orders == (2, 4)
    with pytest.raises(ValueError):
        parse_group("Z7")


def test_parse_element_and_set():
    G = parse_group("2x4")
    assert parse_element(G, "1,3") == (1, 3)
    assert parse_element_set(G, "0,0;1,3;0,0") == [(0, 0), (1, 3)]
    with pytest.raises(ValueError):
        parse_element(G, "3")
    with pytest.raises(ValueError):
        parse_element_set(G, "")
    G1 = parse_group("9")
    assert parse_element(G1, "11") == (2,)
    assert format_element((1, 3)) == "1,3"
    assert format_element((4,)) == "4"
