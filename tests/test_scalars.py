import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from symindex.scalars import (
    PrecisionError,
    Scalar,
    _storage_dps,
    convergents,
    detect_rational,
    fixed_bits,
    get_precision,
    parse_scalar,
    scalar_from_json,
    scalar_to_json,
    set_precision,
)


def test_floor_on_irrational_scalar():
    s2 = Scalar.sqrt(2)
    for m in (1, 5, 99, 12345):
        assert s2.mul_floor(m) == int(m * 2 ** 0.5)


def test_guard_band_detects_masked_rationals():
    # sqrt2/sqrt8 is exactly 1/2 but carries an irrational tag; doubling it
    # lands on an integer inside the guard band
    x = Scalar.sqrt(2) / Scalar.sqrt(8)
    assert not x.is_rational
    with pytest.raises(PrecisionError):
        x.mul_floor(2)


def test_sqrt_perfect_square_is_rational():
    assert Scalar.sqrt(4).is_rational
    assert Scalar.sqrt(4).fraction == 2
    assert Scalar.sqrt(Fraction(9, 4)).fraction == Fraction(3, 2)
    assert not Scalar.sqrt(2).is_rational


def test_tag_dispatch_in_equality():
    # equal values, different tags: never equal
    assert Scalar.rational(1, 2) != Scalar.sqrt(2) / Scalar.sqrt(8)


def test_arithmetic_tag_propagation():
    a = Scalar.rational(1, 3) + Scalar.rational(1, 6)
    assert a.is_rational and a.fraction == Fraction(1, 2)
    b = Scalar.sqrt(2) + Scalar.rational(1)
    assert not b.is_rational
    assert abs(float(b) - (2 ** 0.5 + 1)) < 1e-12


@settings(max_examples=300, derandomize=True)
@given(st.integers(-(1 << 200), 1 << 200) | st.integers(-50, 50),
       st.integers(1, 1 << 200) | st.integers(1, 50) | st.just(1 << 64))
def test_convergents_are_the_truncated_continued_fraction(num, den):
    # the partial quotients a_k of num / den from Fractions; the k-th
    # convergent is [a_0; a_1, ..., a_k] in lowest terms, and the last one
    # is num / den
    x, quotients = Fraction(num, den), []
    while True:
        quotients.append(math.floor(x))
        if x == quotients[-1]:
            break
        x = 1 / (x - quotients[-1])
    got = list(convergents(num, den))
    assert len(got) == len(quotients)
    for k, (p, q) in enumerate(got):
        value = Fraction(quotients[k])
        for a in reversed(quotients[:k]):
            value = a + 1 / value
        assert q > 0 and math.gcd(p, q) == 1 and Fraction(p, q) == value
    assert Fraction(*got[-1]) == Fraction(num, den)


def test_detect_rational():
    assert detect_rational(Scalar.rational(2, 3)) == Fraction(2, 3)
    assert detect_rational(Scalar.sqrt(2)) is None
    assert detect_rational(Scalar.sqrt(2) / Scalar.sqrt(8)) == Fraction(1, 2)
    assert detect_rational(Scalar.golden() * 3 / Scalar.golden()) == 3


def _reference(x: Scalar, max_denominator: int = 10 ** 6):
    """detect_rational's rule on the exact stored value: its nearest p/q with
    q <= max_denominator, kept when closer than 10**-(storage digits - 8).
    Any such p/q is a convergent and the first to pass, so the two agree."""
    sign, man, exp, _ = x._mpf._mpf_
    v = (-1) ** sign * Fraction(man) * Fraction(2) ** exp
    c = v.limit_denominator(max_denominator)
    return c if abs(v - c) < Fraction(1, 10 ** (_storage_dps() - 8)) else None


def _near(fr: Fraction, tols: float = 0, shift: int = 0) -> Scalar:
    """shift + fr + tols * 10**-(storage digits - 8), tagged irrational."""
    dps = _storage_dps()
    with mp.workdps(dps):
        v = mp.mpf(shift) + mp.mpf(fr.numerator) / fr.denominator
        return Scalar.irrational(v + mp.mpf(tols) * mp.mpf(10) ** (8 - dps))


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6),
       st.sampled_from((0, 0.5, -0.5, 2, -2)))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_detect_rational_finds_hidden_rationals(p, q, tols):
    # at |p/q| <= 1e6 the stored value rounds by under 1e-110, so an offset
    # of +-0.5 floors (1e-107 at 50 digits) stays inside and +-2 outside
    fr = Fraction(p, q)
    x = _near(fr, tols)
    want = fr if abs(tols) < 1 else None
    assert _reference(x) == want
    assert detect_rational(x) == want


@given(st.integers(1, 10 ** 4), st.integers(-10 ** 7, 10 ** 7))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_detect_rational_stops_at_max_denominator(excess, p):
    q = 10 ** 6 + excess
    fr = Fraction(p, q)
    x = _near(fr)
    want = fr if fr.denominator <= 10 ** 6 else None
    assert _reference(x) == want
    assert detect_rational(x) == want
    assert detect_rational(x, max_denominator=q) == fr


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6),
       st.sampled_from((10 ** 3, 10 ** 6, 10 ** 12, 10 ** 30, 10 ** 60)), st.booleans())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_detect_rational_at_large_magnitude_matches_the_reference(p, q, big, negative):
    # the floor is absolute: from about 1e10 on, rounding the stored sum
    # can move it farther than the floor from shift + p/q, which is then
    # found only when the rounding happens to be small; the integer always is
    shift = -big if negative else big
    x = _near(Fraction(p, q), shift=shift)
    assert detect_rational(x) == _reference(x)
    assert detect_rational(Scalar.irrational(str(shift))) == shift


SQUARE_FREE = [d for d in range(2, 24) if all(d % (k * k) for k in range(2, 5))]


@pytest.mark.parametrize("d", SQUARE_FREE)
def test_detect_rational_on_quadratic_irrationals(d):
    for q in (1, 2, 3, 7, 10 ** 6):
        x = Scalar.sqrt(d) * q
        assert _reference(x) is None and detect_rational(x) is None
        assert detect_rational(-x) is None
        assert detect_rational(x / Scalar.sqrt(d)) == q
    phi = Scalar.golden()
    for k in (-7, 1, 2, 3, 10 ** 6):
        assert detect_rational(phi * k / phi) == k


def test_detect_rational_keeps_the_cached_fixed_pair():
    # detect_rational reads the cached storage read X_s, and the working
    # pair is a shift of that same integer
    x = Scalar.sqrt(2)
    pair = x._fixed()
    Xs = x._Xs
    assert detect_rational(x) is None
    assert x._Xs is Xs and x._fixed() == pair
    assert pair == (Xs >> (x._bits - pair[1]), fixed_bits(get_precision()))


def test_scalar_from_json_refuses_an_irrational_tag_on_a_rational():
    third = "0." + "3" * 120
    for text, pq in (("0.5", "1/2"), ("-3", "-3/1"), (third, "1/3")):
        with pytest.raises(ValueError) as exc:
            scalar_from_json({"irrational": text})
        assert str(exc.value) == (f'irrational "{text}" equals {pq} within '
                                  f'1e-{_storage_dps() - 8}; tag it {{"rational": "{pq}"}}')
    # a decimal that is not a p/q with q <= 1e6 to 107 digits stays irrational
    assert not scalar_from_json({"irrational": "0.5" + "0" * 100 + "1"}).is_rational
    assert not scalar_from_json({"irrational": str(math.sqrt(2))}).is_rational


def test_parse_scalar_literals():
    assert parse_scalar("3/2").fraction == Fraction(3, 2)
    assert parse_scalar("2").fraction == 2
    assert parse_scalar("1.25").fraction == Fraction(5, 4)
    assert not parse_scalar("sqrt2").is_rational
    assert abs(float(parse_scalar("sqrt(3)")) - 3 ** 0.5) < 1e-12
    assert abs(float(parse_scalar("phi")) - (1 + 5 ** 0.5) / 2) < 1e-12
    with pytest.raises(ValueError):
        parse_scalar("noise")


def test_json_round_trip():
    r = Scalar.rational(7, 5)
    assert scalar_from_json(scalar_to_json(r)) == r
    s = Scalar.sqrt(3)
    back = scalar_from_json(scalar_to_json(s))
    assert not back.is_rational
    assert abs(float(s - back)) < 1e-90


def test_precision_bounds():
    old = get_precision()
    try:
        with pytest.raises(ValueError):
            set_precision(10)
        set_precision(60)
        assert get_precision() == 60
    finally:
        set_precision(old)


def test_equality_survives_rounding_and_separates_neighbours():
    # sqrt(k) mod 2 for the 114 non-square k in 2..125: == and the order
    # agree, and equal values hash alike
    angles = []
    for k in range(2, 126):
        if math.isqrt(k) ** 2 != k:
            x = Scalar.sqrt(k)
            angles.append(x - 2 * x.mul_div_floor(1, 2))
    assert len(angles) == 114
    for x in angles:
        for y in (2 - (2 - x), (7 * x) / 7, -(-x)):
            assert x == y and y == x and not x != y
            assert x <= y and x >= y and not (x < y or x > y)
            assert hash(x) == hash(y)
        above = x + Fraction(1, 10 ** (_storage_dps() - 10))
        assert x != above and x < above and above > x
    for x, y in zip(angles, angles[1:]):
        assert x != y and (x < y) == (float(x) < float(y)) and (x < y) != (x > y)
    third = Scalar.rational(1, 3)
    assert third == Scalar.rational(2, 6) and hash(third) == hash(Scalar.rational(2, 6))
    assert third == Fraction(1, 3) and hash(third) == hash(Fraction(1, 3))
    assert Scalar.rational(1, 2) != Scalar.irrational("0.5")


def test_a_read_past_the_stored_bits_raises():
    # sqrt2 made at 50 digits is stored with 385 bits: the working read of
    # precision 100 (482 bits) would be 99 bits past it
    old = get_precision()
    x = Scalar.sqrt(2)
    assert x._bits == 385 and fixed_bits(old) == 315
    assert abs(x._fixed(385)[0] - math.isqrt(2 << 770)) <= 1
    with pytest.raises(PrecisionError, match="stored with 385 fraction bits"):
        x._fixed(fixed_bits(100))
    try:
        set_precision(100)
        with pytest.raises(PrecisionError):
            x.mul_floor(3)
        with pytest.raises(PrecisionError):
            (x + 1).mul_frac(3)   # a sum keeps the fewer bits of its operands
        y = Scalar.sqrt(2)
        assert y._bits > fixed_bits(100) and y.mul_floor(3) == 4
    finally:
        set_precision(old)
