import math
import random
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digit_oracles
from besum import dimension
from besum.construction import (
    GROWTH_REGISTRY,
    WEIGHT_REGISTRY,
    DigitConstraintSet,
    get_growth,
    get_weights,
    profile,
)
from besum.dimension import (
    CylinderProfile,
    condition_ii_check,
    count_cylinders,
    covering_measure,
    dimension_lower_estimate,
    log_chain_coefficient,
    mass_check,
)
from besum.factoradic import FactoradicReal, encode
from digit_oracles import (
    anchors_below_by_digits,
    condition_ii_series,
    count_lower_bound,
    covering_measure_by_anchors,
    dimension_lower_estimate_by_positions,
    enumerate_cylinder_digits,
    from_digit_map,
    mass_check_by_fractions,
    measure_of_cylinder,
)

F_ID = get_growth("identity")
F_N2 = get_growth("n2")
E_N2 = DigitConstraintSet(F_N2, get_weights("n2"))


def unconstrained() -> DigitConstraintSet:
    # Weights of 1 put every cap at m >= m-1: no digit is ever excluded.
    from besum.construction import WeightSequence

    return DigitConstraintSet(F_N2, WeightSequence("one", lambda n: 1))


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
            assert child_count == E_N2.allowed_digit_counts(i + 1)[-1]
            parent = Fraction(1, count_cylinders(E_N2, i))
            children_sum = child_count * Fraction(1, count_cylinders(E_N2, i + 1))
            assert parent == children_sum


class TestCylinderIndexing:
    def test_index_round_trip(self):
        # The depth-5 cylinder anchored at k/5! is indexed by its digits' numerator.
        for k in (0, 1, 17, 119):
            assert encode(Fraction(k, 120), 5).numerator == k

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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_covering_measure_equals_the_anchor_by_anchor_count(self, data):
        f = data.draw(st.sampled_from(("identity", "n2", "n3", "pow2")))
        a = data.draw(st.sampled_from(("n2", "pow2", "nfact")))
        depth = data.draw(st.integers(2, 40))
        m_fact = factorial(depth)
        # Anchors near 0, anywhere, and near 1, with ends below 0 and above 1.
        k = data.draw(st.integers(-3, 3) | st.integers(0, m_fact)
                      | st.integers(m_fact - 2000, m_fact + 3))
        part = st.just(Fraction(0)) | st.fractions(0, 1, max_denominator=10**6)  # 0: on an anchor
        b_lo = (k + data.draw(part)) / m_fact
        b_hi = b_lo + (data.draw(st.integers(0, 2000)) + data.draw(part)) / m_fact
        constraints = DigitConstraintSet(get_growth(f), get_weights(a))
        assert covering_measure(constraints, b_lo, b_hi, depth) == \
            covering_measure_by_anchors(constraints, b_lo, b_hi, depth)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_segment_walk_equals_the_digit_walk(self, data):
        f = data.draw(st.sampled_from(("identity", "n2", "n3", "pow2")))
        weights = data.draw(st.sampled_from(("n2", "pow2", "nfact", "one")))
        depth = data.draw(st.integers(2, 60))
        m_fact = factorial(depth)
        # k = 0, k = depth! and past it (every member counted), and anywhere between.
        k = data.draw(st.sampled_from((0, 1, m_fact - 1, m_fact)) | st.integers(0, m_fact)
                      | st.integers(m_fact + 1, 3 * m_fact))
        constraints = (unconstrained() if weights == "one"
                       else DigitConstraintSet(get_growth(f), get_weights(weights)))
        assert CylinderProfile(constraints, depth).anchors_below(k) == \
            anchors_below_by_digits(constraints.allowed_digit_counts(depth), k)

    def test_segments_are_capped_positions_and_runs(self):
        # f = n2 caps the positions 5, 10, 17, ..., 170 below depth 180; the
        # positions 2..4 (cap 2 at position 2 allows both digits) and each gap
        # between caps are one run: 12 capped positions and 13 runs.
        assert len(CylinderProfile(E_N2, 180).segments) == 25
        # f = identity caps every position from 3 on: no run is longer than one.
        e_id = DigitConstraintSet(F_ID, get_weights("n2"))
        assert len(CylinderProfile(e_id, 40).segments) == 39
        # Nothing excluded: the whole of 2..depth is one run of radix depth!.
        assert CylinderProfile(unconstrained(), 30).segments == [(factorial(30), factorial(30))]

    def test_covering_measure_cost_does_not_grow_with_the_interval(self):
        # ~10^6 depth-12 cylinders: the anchor-by-anchor count takes seconds.
        b_lo = Fraction(1, 3)
        b_hi = b_lo + Fraction(10**6, factorial(12))
        E_N2.allowed_digit_counts(12)
        start = time.process_time()
        mu, hits = covering_measure(E_N2, b_lo, b_hi, 12)
        assert time.process_time() - start < 0.1
        assert hits == 10**6
        assert 0 < mu < Fraction(hits, count_cylinders(E_N2, 12))

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
        assert report["violations"] == []
        assert report["intervals_tested"] > 50
        assert report["a_constant"] > 0

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
        assert deep["a_constant"] > 5 * shallow["a_constant"]

    def test_deep_window_runs_quickly(self):
        # |B|^s is below the float range here; mu(B) is counted from digits.
        start = time.process_time()
        report = mass_check(E_N2, 0.5, 240, 242, seed=3)
        assert time.process_time() - start < 0.5
        assert report["violations"] == []
        assert report["intervals_tested"] > 30
        assert 0 < report["a_constant"] < 1e-200

    def test_a_constant_below_the_float_range_is_an_error(self):
        with pytest.raises(ValueError, match=r"depth 330, s = 0\.5\).*outside the normal float"):
            mass_check(E_N2, 0.5, 330, 331, seed=3)

    @settings(max_examples=40, deadline=None)
    @given(f=st.sampled_from(("identity", "n2", "n3", "pow2")),
           a=st.sampled_from(("n2", "pow2", "nfact")), s=st.floats(0.05, 0.95),
           i0=st.integers(2, 30), span=st.integers(1, 5), seed=st.integers(0, 10**6))
    def test_integer_loop_equals_the_fraction_loop(self, f, a, s, i0, span, seed):
        constraints = DigitConstraintSet(get_growth(f), get_weights(a))
        assert mass_check(constraints, s, i0, i0 + span, seed) == \
            mass_check_by_fractions(constraints, s, i0, i0 + span, seed)

    @pytest.mark.parametrize("f, a, s, i0, i_max, seed", [
        ("n2", "n2", 0.5, 3, 9, 5), ("identity", "nfact", 0.9, 2, 12, 1),
        ("pow2", "pow2", 0.3, 20, 26, 8),
    ])
    def test_violations_agree_with_the_fraction_loop(self, monkeypatch, f, a, s, i0, i_max, seed):
        # mu(B) <= a |B|^s holds for every registered f and a (the paper's
        # lemma), so a chain coefficient lowered by e^12 makes the violations.
        chain = dimension.log_chain_coefficient
        lowered = lambda *args: chain(*args) - 12.0  # noqa: E731
        monkeypatch.setattr(digit_oracles, "log_chain_coefficient", lowered)
        constraints = DigitConstraintSet(get_growth(f), get_weights(a))
        expected = mass_check_by_fractions(constraints, s, i0, i_max, seed)
        monkeypatch.setattr(dimension, "log_chain_coefficient", lowered)
        report = mass_check(constraints, s, i0, i_max, seed)
        assert report["violations"] and report == expected

    def test_calls_covering_measure_once_per_interval(self, monkeypatch):
        # The benchmark's tracer wraps dimension.covering_measure and
        # count_cylinders by name and reads (mu, hits) from each call.
        calls, counts = [], []
        covering, count = dimension.covering_measure, dimension.count_cylinders

        def counted_covering(*args):
            calls.append(covering(*args))
            return calls[-1]

        def counted_count(*args):
            counts.append(args)
            return count(*args)

        monkeypatch.setattr(dimension, "covering_measure", counted_covering)
        monkeypatch.setattr(dimension, "count_cylinders", counted_count)
        profile.cache_clear()
        report = mass_check(E_N2, 0.5, 3, 40, seed=2)
        assert len(calls) == report["intervals_tested"]
        assert all(type(mu) is Fraction and type(hits) is int for mu, hits in calls)
        assert counts == [(E_N2, i + 1) for i in range(3, 40)]  # one count per depth

    def test_json_schema(self):
        # The dict's key order is the order mass-check prints its keys in.
        doc = mass_check(E_N2, 0.5, 3, 6, seed=1)
        assert list(doc) == ["s", "i0", "i_max", "a_constant", "intervals_tested", "violations"]


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

    @pytest.mark.parametrize("f", sorted(GROWTH_REGISTRY))
    @pytest.mark.parametrize("a", sorted(WEIGHT_REGISTRY))
    def test_series_is_bit_identical_to_two_logs_per_position(self, f, a):
        constraints = DigitConstraintSet(get_growth(f), get_weights(a))
        j_maxes = range(4, 301) if f != "n2" else [*range(4, 301), 5000]
        for j_max in j_maxes:
            fast = dimension_lower_estimate(constraints, j_max)
            slow = dimension_lower_estimate_by_positions(constraints, j_max)
            assert [(j, r.hex()) for j, r in fast] == [(j, r.hex()) for j, r in slow]


class TestConditionII:
    def test_n2_bounded(self):
        sup, at = condition_ii_check(F_N2, 0.5, 10**4)
        assert at <= 100
        assert all(g <= sup for g in condition_ii_series(F_N2, 0.5, 10**4))

    def test_identity_unbounded(self):
        series = condition_ii_series(F_ID, 0.5, 100)
        assert series[99] > series[9] + 50

    @settings(max_examples=200, deadline=None)
    @given(f=st.sampled_from(sorted(GROWTH_REGISTRY)), eps=st.floats(0.01, 0.99),
           i_max=st.integers(1, 3000))
    def test_max_and_first_argmax_of_the_series(self, f, eps, i_max):
        series = condition_ii_series(get_growth(f), eps, i_max)
        sup = max(series)
        assert condition_ii_check(get_growth(f), eps, i_max) == (sup, series.index(sup) + 1)

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            condition_ii_check(F_N2, 1.0, 100)

    def test_chain_coefficient_matches_logs(self):
        val = math.exp(log_chain_coefficient(E_N2, 6, 0.5))
        direct = 3 * (1 / factorial(6)) ** 0.5 * (2 * 5)  # f(j) <= 6: j=1,2
        assert val == pytest.approx(direct, rel=1e-9)
