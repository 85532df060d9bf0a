import math
import random
from fractions import Fraction
from math import factorial

import pytest

from besum.construction import DigitConstraintSet, get_growth, get_weights
from besum.dimension import (
    chain_coefficient,
    condition_ii_check,
    count_cylinders,
    count_lower_bound,
    covering_measure,
    cylinder_index,
    dimension_lower_estimate,
    mass_check,
    measure_of_cylinder,
)
from besum.factoradic import FactoradicReal, encode, from_digit_map
from digit_oracles import enumerate_cylinder_digits

F_ID = get_growth("identity")
F_N2 = get_growth("n2")
E_N2 = DigitConstraintSet(F_N2, get_weights("n2"))


def unconstrained() -> DigitConstraintSet:
    # Weights of 1 put every cap at m >= m-1: no digit is ever excluded.
    from besum.construction import WeightSequence

    return DigitConstraintSet(F_N2, WeightSequence("one", lambda n: 1, float("inf")))


class TestCountCylinders:
    def test_example_48(self):
        # Positions 2,3,4 free (2*3*4), position 5 capped at 1 (2 choices).
        assert count_cylinders(E_N2, 5) == 48

    def test_unconstrained_is_factorial(self):
        e = unconstrained()
        for j in range(2, 8):
            assert count_cylinders(e, j) == factorial(j)

    def test_matches_bruteforce(self):
        for a_name in ("n2", "pow2", "nfact"):
            e = DigitConstraintSet(F_N2, get_weights(a_name))
            for j in range(2, 8):
                assert count_cylinders(e, j) == len(enumerate_cylinder_digits(e, j))

    def test_bruteforce_respects_caps(self):
        for digits in enumerate_cylinder_digits(E_N2, 6):
            for k, s in enumerate(digits):
                m = k + 2
                cap = E_N2.cap_for_position(m)
                assert 0 <= s <= m - 1
                if cap is not None:
                    assert s <= cap

    def test_lower_bound_eq13(self):
        for a_name in ("n2", "pow2", "nfact"):
            e = DigitConstraintSet(F_N2, get_weights(a_name))
            for j in range(2, 15):
                assert count_cylinders(e, j) >= count_lower_bound(e, j)

    def test_eq13_instance_j5(self):
        assert count_cylinders(E_N2, 5) == 48
        assert count_lower_bound(E_N2, 5) == 12


class TestMeasure:
    def test_zero_at_depth5(self):
        alpha = FactoradicReal((0, 0, 0, 0))
        assert measure_of_cylinder(E_N2, alpha, 5) == Fraction(1, 48)

    def test_depth2_unconstrained(self):
        e = unconstrained()
        assert measure_of_cylinder(e, FactoradicReal((1,)), 2) == Fraction(1, 2)

    def test_rejects_nonmember(self):
        bad = from_digit_map({5: 2}, depth=5)  # cap at position 5 is 1
        with pytest.raises(ValueError, match="not in"):
            measure_of_cylinder(E_N2, bad, 5)

    def test_rejects_deep_digits(self):
        alpha = from_digit_map({6: 1}, depth=6)
        with pytest.raises(ValueError, match="beyond depth"):
            measure_of_cylinder(E_N2, alpha, 5)

    def test_total_mass_one(self):
        for i in range(2, 9):
            total = sum(
                measure_of_cylinder(E_N2, FactoradicReal(d), i) if any(d)
                else Fraction(1, count_cylinders(E_N2, i))
                for d in enumerate_cylinder_digits(E_N2, i)
            )
            assert total == 1

    def test_subdivision_exact(self):
        # mu(depth-i cylinder) = sum of its depth-(i+1) children, exactly.
        for i in range(2, 9):
            child_count = Fraction(count_cylinders(E_N2, i + 1), count_cylinders(E_N2, i))
            assert child_count == E_N2.allowed_digit_count(i + 1)
            parent = Fraction(1, count_cylinders(E_N2, i))
            children_sum = child_count * Fraction(1, count_cylinders(E_N2, i + 1))
            assert parent == children_sum


class TestCylinderIndexing:
    def test_index_round_trip(self):
        for k in (0, 1, 17, 119):
            alpha = encode(Fraction(k, 120), 5)
            assert cylinder_index(alpha, 5) == k

    def test_covering_count_bruteforce(self):
        rng = random.Random(37)
        for i in range(2, 9):
            m_fact = factorial(i)
            rho = Fraction(1, m_fact)
            for _ in range(30):
                b_lo = Fraction(rng.randrange(10**6), 10**6)
                width = rho * Fraction(rng.randrange(1, 1000), 1000)
                b_hi = min(b_lo + width, Fraction(1))
                _, hits = covering_measure(E_N2, b_lo, b_hi, i)
                # Exhaustive scan in pure integer arithmetic (k/m! < b_hi etc).
                hi_s, lo_s = b_hi * m_fact, b_lo * m_fact
                brute = sum(
                    1
                    for k in range(m_fact)
                    if k * hi_s.denominator < hi_s.numerator
                    and (k + 1) * lo_s.denominator > lo_s.numerator
                )
                assert hits == brute
                assert hits <= (b_hi - b_lo) * m_fact + 2

    def test_prefix_stability_under_small_additions(self):
        # Adding a number below 1/i! never changes digits at positions <= i.
        rng = random.Random(41)
        i = 8
        for _ in range(200):
            k = rng.randrange(factorial(i))
            alpha = encode(Fraction(k, factorial(i)), i)
            delta = Fraction(rng.randrange(factorial(12) // factorial(i)), factorial(12))
            shifted = encode(Fraction(k, factorial(i)) + delta, 12)
            assert shifted.digits[: i - 1] == alpha.digits[: i - 1]


class TestMassCheck:
    def test_no_violations_for_n2(self):
        report = mass_check(E_N2, 0.5, 3, 9, seed=5)
        assert report.violations == []
        assert report.intervals_tested > 50
        assert report.a_constant > 0

    def test_single_cylinder_interval(self):
        # B exactly one depth-(i+1) cylinder: mu = 1/count with slack.
        i = 4
        mu, hits = covering_measure(
            E_N2, Fraction(0), Fraction(1, factorial(i + 1)), i + 1
        )
        assert mu == Fraction(1, count_cylinders(E_N2, i + 1))
        assert hits == 1

    def test_identity_constant_blows_up(self):
        # f = identity fails the growth condition: at s near 1 the empirical
        # constant grows without bound as depth increases.
        e_id = DigitConstraintSet(F_ID, get_weights("n2"))
        shallow = mass_check(e_id, 0.9, 3, 6, seed=7)
        deep = mass_check(e_id, 0.9, 7, 10, seed=7)
        assert deep.a_constant > 5 * shallow.a_constant

    def test_json_schema(self):
        report = mass_check(E_N2, 0.5, 3, 6, seed=1)
        doc = report.to_json_dict()
        assert set(doc) == {"s", "i0", "i_max", "a_constant", "intervals_tested", "violations"}


class TestDimensionEstimate:
    def test_unconstrained_ratio_is_one(self):
        for j, ratio in dimension_lower_estimate(unconstrained(), 20):
            assert ratio == pytest.approx(1.0)

    def test_n2_instance(self):
        ratios = dict(dimension_lower_estimate(E_N2, 200))
        assert ratios[5] == pytest.approx(math.log(48) / math.log(120))
        assert ratios[200] > ratios[50] > ratios[5]

    def test_rejects_small_jmax(self):
        with pytest.raises(ValueError):
            dimension_lower_estimate(E_N2, 3)


class TestConditionII:
    def test_n2_bounded(self):
        sup, at, series = condition_ii_check(F_N2, 0.5, 10**4)
        assert at <= 100
        assert all(g <= sup for g in series)

    def test_identity_unbounded(self):
        _, _, series = condition_ii_check(F_ID, 0.5, 100)
        assert series[99] > series[9] + 50

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            condition_ii_check(F_N2, 1.0, 100)

    def test_chain_coefficient_matches_logs(self):
        val = chain_coefficient(E_N2, 6, 0.5)
        direct = 3 * (1 / factorial(6)) ** 0.5 * (2 * 5)  # f(j) <= 6: j=1,2
        assert val == pytest.approx(direct, rel=1e-9)
