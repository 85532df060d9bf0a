import io
import random
from fractions import Fraction

import pytest

from besum.periodicity import (
    CoefficientSequence,
    SectorSpec,
    abel_bound_check,
    detect_ultimate_period,
    partial_power_sum,
    period_collapse_test,
    read_coeffs_file,
    sector_eval,
    write_coeffs_file,
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
    return CoefficientSequence.from_indicator(members, length)


class TestCoefficientSequence:
    def test_requires_a0_zero(self):
        with pytest.raises(ValueError):
            CoefficientSequence((1, 0, 1))

    def test_alphabet_enforced(self):
        with pytest.raises(ValueError):
            CoefficientSequence((0, 2), frozenset({0, 1}))

    def test_ultimately_periodic_builder(self):
        c = CoefficientSequence.ultimately_periodic([1, 1], [1, 0], 8)
        assert c.values == (0, 1, 1, 1, 0, 1, 0, 1)


class TestSectorEval:
    def test_constant_ones_at_half(self):
        # sum (-r)^n for n >= 1 converges to -r/(1+r): modulus r/(1+r).
        c = CoefficientSequence((0,) + (1,) * 4000)
        grid = sector_eval(c, SectorSpec(0.5, 0.6, (0.9,), n_theta=2), 4000)
        at_half = grid.values[0, 0]
        assert abs(at_half) == pytest.approx(0.9 / 1.9, abs=1e-9)

    def test_zero_sequence(self):
        c = CoefficientSequence((0,) * 100, frozenset({0}))
        grid = sector_eval(c, SectorSpec(0.1, 0.2, (0.5, 0.9)), 99)
        assert grid.max_modulus == 0

    def test_indicator_exploratory(self):
        c = indicator_of_shifted_factorials(2000)
        grid = sector_eval(c, SectorSpec(0.1, 0.2, (0.99,)), 1999)
        direct = partial_power_sum(c, 0.99, grid.max_at[1], 1999)
        assert abs(direct) == pytest.approx(grid.max_modulus, abs=1e-9)

    def test_pole_growth_for_noncollapsing_block(self):
        # Block (1,0,0) from n=1: u(z) = z/(1-z^3), pole at e(1/3).
        c = CoefficientSequence.ultimately_periodic([], [1, 0, 0], 30000)
        moduli = [abs(partial_power_sum(c, r, 1 / 3, 29999)) for r in (0.9, 0.99, 0.999)]
        assert moduli[1] >= 5 * moduli[0]
        assert moduli[2] >= 5 * moduli[1]


    @pytest.mark.parametrize("n_terms", [-1, -2, -5])
    def test_negative_a_rejected(self, n_terms):
        c = CoefficientSequence((0,) + (1,) * 10)
        with pytest.raises(ValueError, match=">= 0"):
            sector_eval(c, SectorSpec(0.1, 0.2, (0.9,)), n_terms)
        with pytest.raises(ValueError, match=">= 0"):
            partial_power_sum(c, 0.9, 0.1, n_terms)

    def test_overflow_is_an_error_not_nan(self):
        c = CoefficientSequence((0,) + (1e308,) * 10)
        with pytest.raises(ValueError, match="not finite"):
            sector_eval(c, SectorSpec(0.0, 0.1, (0.9, 0.99)), 10)


class TestAbelBound:
    def test_geometric(self):
        c = CoefficientSequence((0,) + (1,) * 100)
        lhs, rhs = abel_bound_check(c, Fraction(1, 2), 0.5, 100)
        assert lhs == pytest.approx(0.5 / 1.5, abs=1e-9)
        assert rhs == pytest.approx(1.0)
        assert lhs <= rhs + 1e-9

    def test_zero(self):
        c = CoefficientSequence((0,) * 10, frozenset({0}))
        lhs, rhs = abel_bound_check(c, Fraction(1, 3), 0.4, 9)
        assert lhs == 0 and rhs == 0

    def test_random_property(self):
        rng = random.Random(29)
        vals = (0,) + tuple(rng.randint(0, 1) for _ in range(1000))
        c = CoefficientSequence(vals, frozenset({0, 1}))
        for _ in range(100):
            alpha = Fraction(rng.randint(1, 999), 1000)
            r = rng.random() * 0.999
            lhs, rhs = abel_bound_check(c, alpha, r, 1000)
            assert lhs <= rhs + 1e-9


class TestDetect:
    def test_alternating(self):
        c = CoefficientSequence((0, 1) * 10)
        assert detect_ultimate_period(c, 4, 4) == (0, 2)

    def test_ultimately_constant(self):
        c = CoefficientSequence((0,) + (1,) * 12)
        assert detect_ultimate_period(c, 4, 4) == (1, 1)

    def test_indicator_has_no_small_period(self):
        c = indicator_of_shifted_factorials(10**4)
        assert detect_ultimate_period(c, 100, 100) is None

    def test_insufficient_prefix(self):
        c = CoefficientSequence((0, 1) * 3)
        with pytest.raises(ValueError, match="prefix length"):
            detect_ultimate_period(c, 4, 4)

    def test_minimality_order(self):
        # Both (0, 4) and (0, 2) fit; the smaller q wins at equal K.
        c = CoefficientSequence((0, 1, 0, 1) * 6)
        assert detect_ultimate_period(c, 6, 6) == (0, 2)


class TestCollapse:
    def test_constant_block(self):
        c = CoefficientSequence.ultimately_periodic([], [1, 1, 1], 12)
        assert period_collapse_test(c, 1, 3) is True

    def test_nonconstant_block(self):
        c = CoefficientSequence.ultimately_periodic([], [1, 0, 0], 12)
        assert period_collapse_test(c, 1, 3) is False

    def test_pair_block_any_value(self):
        c = CoefficientSequence.ultimately_periodic([], [5, 5], 10)
        assert period_collapse_test(c, 1, 2) is True

    def test_float_alphabet_roots_path(self):
        c = CoefficientSequence.ultimately_periodic([], [0.5, 0.5, 0.5], 12)
        assert not c.is_exact()
        assert period_collapse_test(c, 1, 3) is True

    def test_invalid_period_rejected(self):
        c = CoefficientSequence((0, 1, 0, 0, 1, 0, 0, 1, 0))
        with pytest.raises(ValueError, match="not a period"):
            period_collapse_test(c, 0, 2)

    def test_detect_then_collapse_means_constant_tail(self):
        rng = random.Random(31)
        for _ in range(100):
            pre = [rng.randint(0, 1) for _ in range(rng.randint(0, 6))]
            block = [rng.randint(0, 1) for _ in range(rng.randint(1, 5))]
            c = CoefficientSequence.ultimately_periodic(pre, block, 60)
            found = detect_ultimate_period(c, 20, 10)
            assert found is not None
            k, q = found
            collapsed = period_collapse_test(c, k, q)
            tail_constant = len(set(c.values[k:])) == 1
            assert collapsed == tail_constant


class TestCoeffsFile:
    def test_round_trip(self):
        c = CoefficientSequence((0, 1, 1, 0, 0, 0, 1), frozenset({0, 1}))
        buf = io.StringIO()
        write_coeffs_file(c, buf)
        buf.seek(0)
        assert read_coeffs_file(buf) == c

    def test_round_trip_keeps_mixed_int_and_complex_values(self):
        rng = random.Random(43)
        alphabet = (0, 2, -3, 1j, 1 + 1j, -0.5 + 0j, 2.5j)
        values = [0]
        while len(values) < 400:
            values += [rng.choice(alphabet)] * rng.randint(1, 4)
        c = CoefficientSequence(tuple(values), frozenset(alphabet))
        buf = io.StringIO()
        write_coeffs_file(c, buf)
        buf.seek(0)
        back = read_coeffs_file(buf)
        assert back == c
        assert [type(v) for v in back.values] == [type(v) for v in values]
        assert {type(v) for v in back.alphabet} == {int, complex}

    def test_rle_compactness(self):
        c = CoefficientSequence((0,) * 50 + (1,) * 50)
        buf = io.StringIO()
        write_coeffs_file(c, buf)
        assert "50*0 50*1" in buf.getvalue()

    def test_rejects_bad_magic(self):
        with pytest.raises(ValueError):
            read_coeffs_file(io.StringIO("coeffs v9\nalphabet 0 1\n3*0\n"))

    def test_rejects_missing_alphabet(self):
        with pytest.raises(ValueError):
            read_coeffs_file(io.StringIO("coeffs v1\n3*0\n"))
