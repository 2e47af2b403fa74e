import random
from fractions import Fraction

import pytest

from toughgraphs.ratio import INFINITE, Ratio, parse_ratio


def test_lowest_terms():
    r = Ratio(12, 8)
    assert (r.p, r.q) == (3, 2)
    assert str(r) == "3/2"
    r = Ratio(0, 5)
    assert (r.p, r.q) == (0, 1)


def test_integer_keeps_denominator_one():
    assert str(Ratio(4, 2)) == "2/1"


def test_invalid_parts():
    with pytest.raises(ValueError):
        Ratio(1, 0)
    with pytest.raises(ValueError):
        Ratio(1, -2)
    with pytest.raises(ValueError):
        Ratio(-1, 2)


def test_infinite_dominates():
    assert INFINITE > Ratio(10**12, 1)
    assert Ratio(1, 10**12) < INFINITE
    assert not INFINITE < INFINITE
    assert INFINITE == INFINITE
    assert INFINITE != Ratio(1, 1)


def test_ceil_of_double():
    assert Ratio(4, 3).ceil_of_double() == 3
    assert Ratio(3, 2).ceil_of_double() == 3
    assert Ratio(1, 1).ceil_of_double() == 2
    assert Ratio(0, 1).ceil_of_double() == 0
    assert Ratio(5, 2).ceil_of_double() == 5


def test_ordering_matches_fractions_on_random_pairs():
    rng = random.Random(31337)
    for _ in range(10_000):
        p1, q1 = rng.randrange(2**31), rng.randrange(1, 2**31)
        p2, q2 = rng.randrange(2**31), rng.randrange(1, 2**31)
        a, b = Ratio(p1, q1), Ratio(p2, q2)
        fa, fb = Fraction(p1, q1), Fraction(p2, q2)
        assert (a < b) == (fa < fb)
        assert (a == b) == (fa == fb)
        assert (a >= b) == (fa >= fb)


def test_total_order_on_equal_values():
    assert Ratio(2, 4) == Ratio(1, 2)
    assert hash(Ratio(2, 4)) == hash(Ratio(1, 2))


def test_parse_ratio():
    assert parse_ratio("3/2") == Ratio(3, 2)
    assert parse_ratio(" 40/26 ") == Ratio(20, 13)
    assert parse_ratio("7") == Ratio(7, 1)
    with pytest.raises(ValueError):
        parse_ratio("x/y")
