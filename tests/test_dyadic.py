"""Exact dyadic rationals, checked against stdlib Fraction as the oracle."""

import math
from fractions import Fraction

from hypothesis import given, strategies as st

from tilelab.dyadic import Dyadic, pair

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(1 << 20), max_value=1 << 20),
    st.integers(min_value=0, max_value=20),
)


@given(dyadics, dyadics)
def test_arithmetic_matches_fraction(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
    assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
    assert (-a).as_fraction() == -a.as_fraction()


@given(dyadics, dyadics)
def test_comparisons_match_fraction(a, b):
    assert (a < b) == (a.as_fraction() < b.as_fraction())
    assert (a <= b) == (a.as_fraction() <= b.as_fraction())
    assert (a == b) == (a.as_fraction() == b.as_fraction())


@given(dyadics)
def test_pair_roundtrip(a):
    assert Dyadic(*a.as_pair()) == a


@given(st.integers(-(1 << 70), 1 << 70), st.integers(0, 80))
def test_pair_normalizes_like_dyadic(num, exp):
    assert pair(num, exp) == Dyadic(num, exp).as_pair()


@given(dyadics)
def test_halve(a):
    assert a.halve().as_fraction() == a.as_fraction() / 2


@given(dyadics, dyadics)
def test_equal_values_hash_equal(a, b):
    scaled = Dyadic(a.num * 4, a.exp + 2)
    assert scaled == a and hash(scaled) == hash(a)
    if a == b:
        assert hash(a) == hash(b)


def test_coerce():
    assert Dyadic.coerce(3) == Dyadic(3)
    assert Dyadic.coerce(Dyadic(5, 1)).as_fraction() == Fraction(5, 2)
    import pytest
    with pytest.raises(TypeError):
        Dyadic.coerce(0.25)  # floats are rejected; exactness is the point


@given(st.integers(-(1 << 70), 1 << 70), st.integers(-8, 80))
def test_normalization_matches_fraction(num, exp):
    d = Dyadic(num, exp)
    f = Fraction(num) / Fraction(2) ** exp
    # normalized: (num, exp) are f's numerator and the log2 of its denominator
    assert (d.num, 1 << d.exp) == (f.numerator, f.denominator)


@given(dyadics, st.integers(-30, 30), st.sampled_from([1, 5]))
def test_scale_floor_pow2_floor_match_fraction(a, k, d):
    f = a.as_fraction()
    assert a.scale(k).as_fraction() == f * Fraction(2) ** k
    got = a.floor(d)
    assert isinstance(got, int) and got == math.floor(f / d)
    assert a.floor() == a.floor(1)
    if a > 0:
        p = a.pow2_floor().as_fraction()
        # a power of two in lowest terms: one side is 1, the other 2**n
        assert (p.numerator * p.denominator).bit_count() == 1
        assert p <= f < 2 * p


def test_floor_rounds_down_for_negatives():
    assert Dyadic(-1, 1).floor() == -1
    assert Dyadic(-5).floor(5) == -1
    assert Dyadic(-6).floor(5) == -2
    assert Dyadic(-11, 1).floor(5) == -2  # -5.5 / 5
    assert Dyadic(9, 1).floor(5) == 0


def test_pow2_floor_rejects_non_positive():
    import pytest
    for x in (Dyadic(0), Dyadic(-1, 3)):
        with pytest.raises(ValueError):
            x.pow2_floor()
