import io
import math
import random
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from besum import periodicity
from besum.construction import ResourceBudgetError
from besum.periodicity import (
    CoefficientSequence,
    SectorSpec,
    detect_ultimate_period,
    period_collapse_test,
    read_coeffs_file,
    sector_eval,
)
from periodicity_oracles import (
    abel_bound_check,
    coeffs_text,
    detect_ultimate_period_by_scan,
    from_indicator,
    partial_power_sum,
    read_coeffs_by_tokens,
    sector_grid_direct,
    sequence,
    ultimately_periodic,
)


def indicator_of_shifted_factorials(length: int) -> CoefficientSequence:
    members = set()
    fact = 1
    n = 1
    while True:
        fact *= n
        el = n + fact
        if el >= length:
            break
        members.add(el)
        n += 1
    return from_indicator(members, length)


class TestCoefficientSequence:
    def test_requires_a0_zero(self):
        with pytest.raises(ValueError):
            sequence((1, 0, 1))

    def test_alphabet_enforced(self):
        with pytest.raises(ValueError):
            sequence((0, 2), frozenset({0, 1}))

    def test_ultimately_periodic_builder(self):
        assert ultimately_periodic([1, 1], [1, 0], 8) == (0, 1, 1, 1, 0, 1, 0, 1)


class TestSectorEval:
    def test_constant_ones_at_half(self):
        # sum (-r)^n for n >= 1 converges to -r/(1+r): modulus r/(1+r).
        c = sequence((0,) + (1,) * 4000)
        grid = sector_eval(c, SectorSpec(0.5, 0.6, (0.9,), n_theta=2), 4000)
        at_half = grid.values[0, 0]
        assert abs(at_half) == pytest.approx(0.9 / 1.9, abs=1e-9)

    def test_zero_sequence(self):
        c = sequence((0,) * 100, frozenset({0}))
        grid = sector_eval(c, SectorSpec(0.1, 0.2, (0.5, 0.9)), 99)
        assert grid.max_modulus == 0

    def test_indicator_exploratory(self):
        c = indicator_of_shifted_factorials(2000)
        grid = sector_eval(c, SectorSpec(0.1, 0.2, (0.99,)), 1999)
        direct = partial_power_sum(c, 0.99, grid.max_at[1], 1999)
        assert abs(direct) == pytest.approx(grid.max_modulus, abs=1e-9)

    def test_pole_growth_for_noncollapsing_block(self):
        # Block (1,0,0) from n=1: u(z) = z/(1-z^3), pole at e(1/3).
        c = sequence(ultimately_periodic([], [1, 0, 0], 30000))
        moduli = [abs(partial_power_sum(c, r, 1 / 3, 29999)) for r in (0.9, 0.99, 0.999)]
        assert moduli[1] >= 5 * moduli[0]
        assert moduli[2] >= 5 * moduli[1]


    @pytest.mark.parametrize("n_terms", [-1, -2, -5])
    def test_negative_a_rejected(self, n_terms):
        c = sequence((0,) + (1,) * 10)
        with pytest.raises(ValueError, match=">= 0"):
            sector_eval(c, SectorSpec(0.1, 0.2, (0.9,)), n_terms)
        with pytest.raises(ValueError, match=">= 0"):
            partial_power_sum(c, 0.9, 0.1, n_terms)

    def test_overflow_is_an_error_not_nan(self):
        c = sequence((0,) + (1e308,) * 10)
        with pytest.raises(ValueError, match="not finite"):
            sector_eval(c, SectorSpec(0.0, 0.1, (0.9, 0.99)), 10)


class TestAbelBound:
    def test_geometric(self):
        c = sequence((0,) + (1,) * 100)
        lhs, rhs = abel_bound_check(c, Fraction(1, 2), 0.5, 100)
        assert lhs == pytest.approx(0.5 / 1.5, abs=1e-9)
        assert rhs == pytest.approx(1.0)
        assert lhs <= rhs + 1e-9

    def test_zero(self):
        c = sequence((0,) * 10, frozenset({0}))
        lhs, rhs = abel_bound_check(c, Fraction(1, 3), 0.4, 9)
        assert lhs == 0 and rhs == 0

    def test_random_property(self):
        rng = random.Random(29)
        vals = (0,) + tuple(rng.randint(0, 1) for _ in range(1000))
        c = sequence(vals, frozenset({0, 1}))
        for _ in range(100):
            alpha = Fraction(rng.randint(1, 999), 1000)
            r = rng.random() * 0.999
            lhs, rhs = abel_bound_check(c, alpha, r, 1000)
            assert lhs <= rhs + 1e-9


class TestDetect:
    def test_alternating(self):
        c = sequence((0, 1) * 10)
        assert detect_ultimate_period(c, 4, 4) == (0, 2)

    def test_ultimately_constant(self):
        c = sequence((0,) + (1,) * 12)
        assert detect_ultimate_period(c, 4, 4) == (1, 1)

    def test_indicator_has_no_small_period(self):
        c = indicator_of_shifted_factorials(10**4)
        assert detect_ultimate_period(c, 100, 100) is None

    def test_insufficient_prefix(self):
        c = sequence((0, 1) * 3)
        with pytest.raises(ValueError, match="prefix length"):
            detect_ultimate_period(c, 4, 4)

    def test_minimality_order(self):
        # Both (0, 4) and (0, 2) fit; the smaller q wins at equal K.
        c = sequence((0, 1, 0, 1) * 6)
        assert detect_ultimate_period(c, 6, 6) == (0, 2)


class TestCollapse:
    def test_constant_block(self):
        c = sequence(ultimately_periodic([], [1, 1, 1], 12))
        assert period_collapse_test(c, 1, 3) is True

    def test_nonconstant_block(self):
        c = sequence(ultimately_periodic([], [1, 0, 0], 12))
        assert period_collapse_test(c, 1, 3) is False

    def test_pair_block_any_value(self):
        c = sequence(ultimately_periodic([], [5, 5], 10))
        assert period_collapse_test(c, 1, 2) is True

    def test_float_alphabet_roots_path(self):
        c = sequence(ultimately_periodic([], [0.5, 0.5, 0.5], 12))
        assert period_collapse_test(c, 1, 3) is True

    def test_invalid_period_rejected(self):
        c = sequence((0, 1, 0, 0, 1, 0, 0, 1, 0))
        with pytest.raises(ValueError, match="not a period"):
            period_collapse_test(c, 0, 2)

    def test_detect_then_collapse_means_constant_tail(self):
        rng = random.Random(31)
        for _ in range(100):
            pre = [rng.randint(0, 1) for _ in range(rng.randint(0, 6))]
            block = [rng.randint(0, 1) for _ in range(rng.randint(1, 5))]
            values = ultimately_periodic(pre, block, 60)
            c = sequence(values)
            found = detect_ultimate_period(c, 20, 10)
            assert found is not None
            k, q = found
            collapsed = period_collapse_test(c, k, q)
            tail_constant = len(set(values[k:])) == 1
            assert collapsed == tail_constant


def _assert_same_sequence(c, d):
    assert c.codes.dtype == d.codes.dtype and np.array_equal(c.codes, d.codes)
    assert np.array_equal(c.symbols, d.symbols)


class TestCoeffsFile:
    def test_round_trip(self):
        values, alphabet = (0, 1, 1, 0, 0, 0, 1), frozenset({0, 1})
        back = read_coeffs_file(io.StringIO(coeffs_text(values, alphabet)))
        _assert_same_sequence(back, sequence(values, alphabet))

    def test_round_trip_of_mixed_int_and_complex_values(self):
        rng = random.Random(43)
        alphabet = (0, 2, -3, 1j, 1 + 1j, -0.5 + 0j, 2.5j)
        values = [0]
        while len(values) < 400:
            values += [rng.choice(alphabet)] * rng.randint(1, 4)
        back = read_coeffs_file(io.StringIO(coeffs_text(values, frozenset(alphabet))))
        _assert_same_sequence(back, sequence(values, frozenset(alphabet)))
        assert list(back.symbols[back.codes]) == values

    def test_rejects_bad_magic(self):
        with pytest.raises(ValueError):
            read_coeffs_file(io.StringIO("coeffs v9\nalphabet 0 1\n3*0\n"))

    def test_rejects_missing_alphabet(self):
        with pytest.raises(ValueError):
            read_coeffs_file(io.StringIO("coeffs v1\n3*0\n"))


# --- the code array, the blocked sector sum and the detector against their oracles ---

U = 2.0**-53
ETA = 2.0**-1074  # the smallest subnormal: the absolute error of an underflowing product
# Alphabets for the random sequences.  The last ones hold hash-equal values
# (1 and 1+0j, 0 and 0j) that must share a code, as they compare equal.
ALPHABETS = (
    (0, 1),
    (0, 1, 2, 7),
    (0, 1j, 1 + 1j, -0.5 + 0j),
    (0, 1, 2.5, 1j, -3),
    (0, 1, 1 + 0j, 2),
    (0, 0j, 1e-10 + 0j, 1e-10j),
)


def _stated_bound(c: CoefficientSequence, r: float, n_terms: int) -> float:
    """sector_eval's error bound: (2(B + Q) + 2 pi A + 20) (u sum_{n<=A} |a_n| r^n + (A + 1) eta)."""
    width = math.isqrt(n_terms) + 1
    rows = -(-(n_terms + 1) // width)
    a, n = c.prefix(n_terms), np.arange(n_terms + 1)
    relative = U * float(np.sum(np.abs(a) * r**n))
    return (2 * (width + rows) + 2 * math.pi * n_terms + 20) * (relative + (n_terms + 1) * ETA)


def _exact_power_sum(values, r: float, theta: float, n_terms: int) -> complex:
    """sum_{n<=A} a_n r^n e(n theta) at 30 digits, r and theta taken as the doubles given."""
    with mpmath.workdps(30):
        z = mpmath.mpf(r) * mpmath.expjpi(2 * mpmath.mpf(theta))
        total, power = mpmath.mpc(0), mpmath.mpc(1)
        for v in values[: n_terms + 1]:
            total += mpmath.mpc(complex(v)) * power
            power *= z
        return complex(total)


# The strategies draw (values, alphabet): the tests build the sequence and keep
# the values for the oracles.
@st.composite
def periodic_sequences(draw, max_pre=12, max_block=9, length=80):
    alphabet = draw(st.sampled_from(ALPHABETS))
    pre = draw(st.lists(st.sampled_from(alphabet), max_size=max_pre))
    block = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=max_block))
    return ultimately_periodic(pre, block, length), frozenset(alphabet)


@st.composite
def random_sequences(draw, max_length=400):
    alphabet = draw(st.sampled_from(ALPHABETS))
    tail = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=max_length))
    return (0, *tail), frozenset(alphabet)


class TestCodes:
    def test_codes_index_the_symbols(self):
        c = sequence((0, 1, 1 + 0j, 2.5, 1j), frozenset({0, 1, 2.5, 1j}))
        assert c.codes.dtype == np.uint8
        assert c.codes[1] == c.codes[2]  # 1 and 1+0j are one symbol
        assert list(c.symbols[c.codes]) == [0, 1, 1, 2.5, 1j]

    def test_wide_alphabet_gets_a_wider_dtype(self):
        c = sequence(tuple(range(300)))
        assert c.codes.dtype == np.uint16
        assert list(c.symbols[c.codes]) == list(range(300))

    def test_outside_value_message(self):
        with pytest.raises(ValueError, match=r"values outside the declared alphabet: \['2', '3'\]"):
            sequence((0, 2, 1, 3), frozenset({0, 1}))

    # Drawn from the alphabets of values a file can hold, ints and complex numbers:
    # a float such as 2.5 is written as 2.5 and read back as the complex (2.5+0j),
    # which sorts apart from it.
    @settings(max_examples=150, deadline=None)
    @given(drawn=st.one_of(periodic_sequences(), random_sequences()))
    def test_helper_sequence_is_what_its_file_reads_as(self, drawn):
        values, alphabet = drawn
        assume(all(isinstance(v, (int, complex)) for v in alphabet))
        text = coeffs_text(values, alphabet)
        built = sequence(values, alphabet)
        _assert_same_sequence(built, read_coeffs_by_tokens(io.StringIO(text)))
        _assert_same_sequence(built, read_coeffs_file(io.StringIO(text)))


class TestAgainstOracles:
    @settings(max_examples=300, deadline=None)
    @given(drawn=st.one_of(periodic_sequences(), random_sequences(max_length=60)),
           max_pre=st.integers(0, 20), max_period=st.integers(1, 12))
    def test_detect_equals_the_scan(self, drawn, max_pre, max_period):
        values, alphabet = drawn
        c = sequence(values, alphabet)
        if len(c) < max_pre + 2 * max_period:
            with pytest.raises(ValueError, match="prefix length"):
                detect_ultimate_period(c, max_pre, max_period)
            return
        found = detect_ultimate_period(c, max_pre, max_period)
        assert found == detect_ultimate_period_by_scan(values, max_pre, max_period)
        if found is not None:
            k, q = found
            block = values[k : k + q]
            assert period_collapse_test(c, k, q) == (len(set(block)) == 1)

    @settings(max_examples=60, deadline=None)
    @given(
        drawn=random_sequences(),
        n_pick=st.integers(0, 400),
        theta1=st.floats(0, 0.9),
        width=st.floats(0.001, 0.1),
        radii=st.lists(st.floats(0, 0.9999), min_size=1, max_size=3),
        n_theta=st.integers(2, 6),
        points=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5)), min_size=2, max_size=2),
    )
    # A subnormal radius: the error at the middle angle is 5e-324, and the
    # bound's relative part u sum |a_n| r^n rounds to 0 (only eta covers it).
    @example(drawn=((0, 2), frozenset({0, 1, 2, 7})), n_pick=1, theta1=0.0,
             width=0.0625, radii=[2.2250738585e-313], n_theta=3, points=[(0, 1), (0, 2)])
    def test_blocked_sum_within_the_stated_bound(self, drawn, n_pick, theta1, width, radii,
                                                 n_theta, points):
        values, alphabet = drawn
        c = sequence(values, alphabet)
        n_terms = n_pick % len(c)
        sector = SectorSpec(theta1, theta1 + width, tuple(radii), n_theta)
        grid = sector_eval(c, sector, n_terms)
        bounds = [_stated_bound(c, r, n_terms) for r in radii]
        direct = sector_grid_direct(values, sector, n_terms)
        for i in range(len(radii)):
            assert np.all(np.abs(grid.values[i] - direct[i]) <= 2 * bounds[i] + 1e-300)
        for i, t in points:
            i, t = i % len(radii), t % n_theta
            exact = _exact_power_sum(values, radii[i], float(sector.thetas()[t]), n_terms)
            assert abs(grid.values[i, t] - exact) <= bounds[i]

    def test_long_prefix_within_the_stated_bound(self):
        rng = random.Random(3)
        values = (0, *(rng.choice((0, 1, 3, 5)) for _ in range(30000)))
        c = sequence(values)
        sector = SectorSpec(0.31, 0.37, (0.999,), 4)
        grid = sector_eval(c, sector, 30000)
        exact = _exact_power_sum(values, 0.999, float(sector.thetas()[3]), 30000)
        assert abs(grid.values[0, 3] - exact) <= _stated_bound(c, 0.999, 30000)


class TestCollapseIsExactForEveryAlphabet:
    def test_tiny_nonconstant_float_block_does_not_collapse(self):
        # Under a 1e-9 tolerance at the roots of unity this block looked constant.
        c = sequence(ultimately_periodic([], [1e-10 + 0j, 0j], 40))
        k, q = detect_ultimate_period(c, 4, 4)
        assert q == 2
        assert period_collapse_test(c, k, q) is False


class TestReaderRunCounts:
    @pytest.mark.parametrize("token", ["-5*1", "0*1", "-0*1"])
    def test_count_below_one_rejected(self, token):
        with pytest.raises(ValueError, match="count must be >= 1"):
            read_coeffs_file(io.StringIO(f"coeffs v1\nalphabet 0 1\n1*0 {token}\n"))

    @pytest.mark.parametrize("token", ["99999999999999999999*1", "10000000000*1"])
    def test_count_past_the_limit_is_a_budget_error(self, token):
        with pytest.raises(ResourceBudgetError, match="COEFFS_MAX_LENGTH"):
            read_coeffs_file(io.StringIO(f"coeffs v1\nalphabet 0 1\n1*0 {token}\n"))

    def test_runs_summing_past_the_limit(self, monkeypatch):
        monkeypatch.setattr("besum.periodicity.COEFFS_MAX_LENGTH", 100)
        text = "coeffs v1\nalphabet 0 1\n1*0 " + "30*1 " * 3
        assert len(read_coeffs_file(io.StringIO(text + "\n"))) == 91
        with pytest.raises(ResourceBudgetError, match="over the limit of 100"):
            read_coeffs_file(io.StringIO(text + "10*0\n"))


# --- the reader per distinct token against the token-by-token oracle ----------

# Spellings of values: equal values spelled apart (1, 1.0, (1+0j)), ints and
# complex numbers, then values that no alphabet below declares, NaN and non-numbers.
_SPELLINGS = ["0", "0j", "1", "1.0", "(1+0j)", "2", "-3", "1j", "(1+1j)", "-0.5", "2.5j"]
_BAD_SPELLINGS = ["7", "nan", "x", ""]
_ALPHABET_LINES = ["0 1", "0 1 2", "0 1j (1+1j) -0.5", "0 2 -3 1j 2.5j",
                   "0 1 2 -3 1j (1+1j) 2.5j -0.5"]
# Counts below 1 and counts that are not integers.
_BAD_COUNTS = ["0", "-2", "1.5", "x", "", "2e1"]


@st.composite
def _rle_files(draw):
    """A coeffs v1 file whose tokens are mostly good runs, one in ten a bad one."""
    def pick(good, bad):
        return draw(st.sampled_from(bad if draw(st.integers(0, 9)) == 5 else good))

    tokens = [f"{pick(['1', '2', '3'], _BAD_COUNTS)}*{pick(['0', '0j'], _SPELLINGS)}"]
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 2)) == 0:
            tokens.append(draw(st.sampled_from(tokens)))  # a token seen before
        else:
            count = pick([str(draw(st.integers(1, 40)))], _BAD_COUNTS)
            tokens.append(f"{count}*{pick(_SPELLINGS, _BAD_SPELLINGS)}")
    alphabet = pick(_ALPHABET_LINES, ["0 nan", "0 x"])
    return f"coeffs v1\nalphabet {alphabet}\n{' '.join(tokens)}\n"


def _read(reader, text):
    try:
        return reader(io.StringIO(text))
    except (ValueError, ResourceBudgetError) as exc:
        return exc


def _assert_same_reading(text):
    fast, slow = _read(read_coeffs_file, text), _read(read_coeffs_by_tokens, text)
    if isinstance(slow, Exception):
        assert (type(fast), str(fast)) == (type(slow), str(slow))
        return
    _assert_same_sequence(fast, slow)


class TestReaderAgainstTokenOracle:
    @settings(max_examples=250, deadline=None)
    @given(text=_rle_files(), limit=st.one_of(st.integers(1, 400), st.just(10**7)))
    def test_same_sequence_or_same_error(self, text, limit):
        with mock.patch.object(periodicity, "COEFFS_MAX_LENGTH", limit):
            _assert_same_reading(text)

    # Each bad token's own error when the runs before it stay within the limit of 40.
    # A value outside the alphabet is only found once every token is read, so the
    # limit, crossed by the last run (31 + 2 + 30 values), wins over it.
    @pytest.mark.parametrize("bad, own_error", [
        ("0*1", "count must be >= 1"),
        ("1.5*1", "invalid literal"),
        ("x*1", "invalid literal"),
        ("2*nan", "NaN"),
        ("50*1", "at least 50 values"),
        ("2*7", "at least 63 values"),
    ])
    @pytest.mark.parametrize("crossing_first", [True, False])
    def test_the_first_error_in_token_order_wins(self, monkeypatch, bad, own_error,
                                                 crossing_first):
        monkeypatch.setattr(periodicity, "COEFFS_MAX_LENGTH", 40)
        runs = "1*0 30*1 2*0 30*1" if crossing_first else "1*0 30*1"
        text = f"coeffs v1\nalphabet 0 1\n{runs} {bad} 30*1\n"
        _assert_same_reading(text)
        error = _read(read_coeffs_file, text)
        assert ("at least 63 values" if crossing_first else own_error) in str(error)

    def test_equal_spellings_share_a_code(self):
        text = "coeffs v1\nalphabet 0 1\n1*0 2*1 1*1.0 3*(1+0j) 2*1 1*0j\n"
        c = read_coeffs_file(io.StringIO(text))
        _assert_same_sequence(c, read_coeffs_by_tokens(io.StringIO(text)))
        assert len(set(c.codes[1:9].tolist())) == 1

    @pytest.mark.parametrize("alphabet, runs", [("0 nan", "1*0 3*nan"), ("0 1", "1*0 2*1 3*nan"),
                                                ("0 1", "1*0 1*(1+nanj)")])
    def test_nan_is_refused_where_it_is_parsed(self, alphabet, runs):
        with pytest.raises(ValueError, match="NaN") as info:
            read_coeffs_file(io.StringIO(f"coeffs v1\nalphabet {alphabet}\n{runs}\n"))
        assert "outside the declared alphabet" not in str(info.value)
