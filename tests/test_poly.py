import pytest

from oracles import divide_exact
from rankfilt.poly import Poly, prod


def test_basic_arithmetic():
    p = Poly({0: 1, 2: 1})
    q = Poly({0: 1, 2: -1})
    assert (p * q) == Poly({0: 1, 4: -1})
    assert (p + q) == Poly({0: 2})
    assert (p - p) == Poly.zero()
    assert p * 0 == Poly.zero()
    assert (2 * p)[2] == 2


def test_truncation_semantics():
    exact = Poly({0: 1, 2: 1, 4: 1})
    series = Poly({0: 1, 2: 1}, truncation=2)
    s = exact * series
    assert s.truncation == 2
    assert s == Poly({0: 1, 2: 2}, truncation=2)
    assert exact.truncate(2).coeffs == {0: 1, 2: 1}
    assert exact.agrees(series, through=2)
    assert exact.agrees(series)  # common knowledge only reaches degree 2
    assert not exact.agrees(Poly({0: 1}, truncation=2))


def test_geometric_series():
    g = Poly.geometric(2, 9)
    assert g.coeffs == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}
    assert (g * Poly.one_minus(2)).coeffs == {0: 1}


def test_exact_division():
    num = prod(Poly.one_minus(i) for i in (1, 2, 3))
    den = Poly.one_minus(2)
    q = divide_exact(num, den)
    assert q == prod(Poly.one_minus(i) for i in (1, 3))
    with pytest.raises(ArithmeticError):
        divide_exact(Poly({0: 1, 1: 1}), Poly({0: 1, 2: 1}))


def test_divide():
    p = Poly({0: 6, 2: -4}, truncation=3).divide(2)
    assert p == Poly({0: 3, 2: -2}, truncation=3)
    assert all(type(c) is int for c in p.coeffs.values())
    with pytest.raises(ArithmeticError, match="non-integral coefficient -2/3 in degree 2"):
        Poly({0: 6, 2: -4}).divide(6)


def test_palindromic():
    assert Poly({0: 1, 2: 3, 4: 1}).is_palindromic()
    assert not Poly({0: 1, 2: 3, 4: 2}).is_palindromic()
    assert Poly.zero().is_palindromic()


def test_pretty_and_map():
    p = Poly({0: 1, 2: 1, 4: 2, 7: -1})
    assert p.pretty() == "1 + t^2 + 2t^4 - t^7"
    assert Poly.zero().pretty() == "0"
    assert p.to_map() == {"0": 1, "2": 1, "4": 2, "7": -1}
    assert Poly.from_map(p.to_map()) == p


def test_substitute_power():
    p = Poly({0: 1, 1: 1, 2: 1})
    assert p.substitute_power(2) == Poly({0: 1, 2: 1, 4: 1})
    assert Poly({0: 1}, truncation=3).substitute_power(2).truncation == 6
