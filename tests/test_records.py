"""The package's records keep their semantics: IntPolynomial is no sequence, and
GroupSpec and SignCount still check their fields when built."""

import pytest

from intersective.abelian import GroupSpec
from intersective.cyclotomic import IntPolynomial
from intersective.spectral import SignCount

NAMES = {"IntPolynomial": IntPolynomial, "GroupSpec": GroupSpec, "SignCount": SignCount,
         "P": IntPolynomial((1, -1))}


@pytest.mark.parametrize("expr,expected", [
    ("3 * P", TypeError),
    ("len(P)", TypeError),
    # __getitem__ pads with zeros, so the sequence protocol would never stop
    ("list(P)", TypeError),
    ("sum(P)", TypeError),
    ("5 in P", TypeError),
    ("IntPolynomial((1, 2, 0)) == IntPolynomial((1, 2))", True),
    ("hash(IntPolynomial((1, 2, 0))) == hash(IntPolynomial((1, 2)))", True),
    ("IntPolynomial((1, 2)) == (1, 2)", False),
    ("repr(P)", "IntPolynomial(coeffs=(1, -1))"),
    ("GroupSpec((1,))", ValueError),
    ("GroupSpec(())", ValueError),
    ("str(GroupSpec(orders=(2, 3)))", "2x3"),
    ("SignCount(1, 1, 0, 0, 3)", ValueError),
    ("SignCount(2, 1, 1, 1, 3).total", 3),
])
def test_record_semantics(expr, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            eval(expr, dict(NAMES))
    else:
        assert eval(expr, dict(NAMES)) == expected
