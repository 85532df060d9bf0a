import io
import math
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besum.factoradic import (
    FactoradicReal,
    InsufficientDepthError,
    Tail,
    Trit,
    decode,
    encode,
    frac_factorial,
    read_digit_file,
    write_digit_file,
)
from digit_oracles import encode_greedy, from_digit_map, is_rational_by_digits, tail_sum_identity


@st.composite
def _rationals_and_depths(draw):
    """(p/q, depth): depth 2-300; q up to 10^6, a product of distinct factors of depth!, or x = 0."""
    depth = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(["any", "divides depth!", "zero"]))
    if kind == "zero":
        return Fraction(0), depth
    if kind == "any":
        q = draw(st.integers(1, 10**6))
    else:
        q = math.prod(draw(st.sets(st.integers(2, depth), max_size=8)))
    return Fraction(draw(st.integers(0, q - 1)), q), depth


class TestEncode:
    def test_half(self):
        f = encode(Fraction(1, 2), 4)
        assert f.digits == (1, 0, 0)
        assert f.tail is Tail.ZERO

    def test_third(self):
        f = encode(Fraction(1, 3), 4)
        assert f.digits == (0, 2, 0)
        assert f.tail is Tail.ZERO

    def test_quarter(self):
        assert encode(Fraction(1, 4), 4).digits == (0, 1, 2)

    def test_zero(self):
        f = encode(Fraction(0), 5)
        assert f.digits == (0, 0, 0, 0)
        assert f.tail is Tail.ZERO

    def test_domain(self):
        with pytest.raises(ValueError):
            encode(Fraction(3, 2), 4)
        with pytest.raises(ValueError):
            encode(Fraction(-1, 2), 4)

    def test_nonterminating_is_unknown(self):
        # 1/7 needs depth >= 7 to terminate.
        assert encode(Fraction(1, 7), 5).tail is Tail.UNKNOWN
        assert encode(Fraction(1, 7), 7).tail is Tail.ZERO

    @given(st.integers(min_value=0, max_value=factorial(12) - 1))
    @settings(max_examples=200)
    def test_digit_range(self, num):
        f = encode(Fraction(num, factorial(12)), 12)
        for k, s in enumerate(f.digits):
            assert 0 <= s <= k + 1

    @given(st.integers(min_value=0, max_value=factorial(12) - 1))
    @settings(max_examples=200)
    def test_round_trip(self, num):
        x = Fraction(num, factorial(12))
        f = encode(x, 12)
        assert f.tail is Tail.ZERO
        lower, upper = decode(f)
        assert lower == x == upper

    @given(_rationals_and_depths())
    @example((Fraction(0), 2))
    @example((Fraction(1, 7), 6))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_greedy_loop(self, x_depth):
        x, depth = x_depth
        f = encode(x, depth)
        assert f == encode_greedy(x, depth)
        if factorial(depth) % x.denominator == 0:
            assert f.tail is Tail.ZERO


class TestDecode:
    def test_exact(self):
        assert decode(FactoradicReal((1, 0, 0))) == (Fraction(1, 2), Fraction(1, 2))

    def test_short_prefix(self):
        assert decode(FactoradicReal((0, 2))) == (Fraction(1, 3), Fraction(1, 3))

    def test_unknown_tail_interval(self):
        lower, upper = decode(FactoradicReal((1,), Tail.UNKNOWN))
        assert (lower, upper) == (Fraction(1, 2), Fraction(1))


class TestDigitInvariants:
    def test_out_of_range_digit_rejected(self):
        with pytest.raises(ValueError):
            FactoradicReal((2,))
        with pytest.raises(ValueError):
            FactoradicReal((0, 3))


class TestFracFactorial:
    def test_quarter_m3(self):
        value, err = frac_factorial(3, encode(Fraction(1, 4), 4))
        assert value == Fraction(1, 2)
        assert err == 0

    def test_half_m2_integer(self):
        value, err = frac_factorial(2, encode(Fraction(1, 2), 4))
        assert value == 0 and err == 0

    def test_unknown_tail_interval(self):
        f = FactoradicReal((1, 2), Tail.UNKNOWN)
        value, err = frac_factorial(2, f)
        assert value == Fraction(2, 3)
        assert err == Fraction(1, 3)

    def test_insufficient_depth(self):
        f = FactoradicReal((1, 2), Tail.UNKNOWN)
        with pytest.raises(InsufficientDepthError):
            frac_factorial(3, f)

    def test_rational_with_dividing_modulus(self):
        # q | m! means m! * p/q is an integer: fractional part 0.
        f = encode(Fraction(3, 8), 12)
        assert frac_factorial(4, f)[0] == 0

    def test_oracle_equivalence(self):
        rng = random.Random(7)
        for _ in range(200):
            q = rng.randint(2, 100)
            p = rng.randint(0, q - 1)
            m = rng.randint(1, 12)
            f = encode(Fraction(p, q), 101)
            assert f.tail is Tail.ZERO  # every q <= 100 divides 101!
            value, err = frac_factorial(m, f)
            assert err == 0
            assert value == Fraction(factorial(m) * p % q, q)


class TestRationality:
    def test_terminating(self):
        assert is_rational_by_digits(encode(Fraction(1, 2), 4)) is Trit.YES
        assert is_rational_by_digits(encode(Fraction(1, 3), 4)) is Trit.YES

    def test_unknown(self):
        assert is_rational_by_digits(FactoradicReal((0, 1), Tail.UNKNOWN)) is Trit.UNKNOWN


def test_tail_identity_exact():
    for n in range(2, 21):
        for m in range(n + 1, 21):
            lhs, rhs = tail_sum_identity(n, m)
            assert lhs == rhs


class TestDigitFile:
    def test_round_trip(self):
        f = encode(Fraction(5, 24), 8)
        buf = io.StringIO()
        write_digit_file(f, buf)
        buf.seek(0)
        assert read_digit_file(buf) == f

    def test_unknown_tail_round_trip(self):
        f = FactoradicReal((1, 2, 0), Tail.UNKNOWN)
        buf = io.StringIO()
        write_digit_file(f, buf)
        buf.seek(0)
        assert read_digit_file(buf) == f

    def test_rejects_out_of_range(self):
        bad = "factoradic v1\ndepth=3\ntail=ZERO\n1 5\n"
        with pytest.raises(ValueError):
            read_digit_file(io.StringIO(bad))

    def test_rejects_bad_magic(self):
        with pytest.raises(ValueError):
            read_digit_file(io.StringIO("factoradic v2\ndepth=2\ntail=ZERO\n0\n"))


def test_from_digit_map():
    f = from_digit_map({5: 3}, depth=7)
    assert f.digits[5 - 2] == 3
    assert f.digits[6 - 2] == 0
    assert decode(f)[0] == Fraction(3, 120)
