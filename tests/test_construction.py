import math
import random
from fractions import Fraction
from math import factorial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besum.construction import (
    GROWTH_REGISTRY,
    WEIGHT_REGISTRY,
    DigitConstraintSet,
    E_UPPER,
    ResourceBudgetError,
    WeightSequence,
    _head_residues,
    _reciprocal_sum,
    af_elements,
    af_sum_factoradic,
    af_sum_rational,
    bound_theoretical,
    eq4_rhs,
    get_growth,
    get_weights,
    membership,
    sample_e_set,
)
from besum.expsum import dirichlet_bound, e
from besum.factoradic import (
    FactoradicReal,
    InsufficientDepthError,
    Tail,
    Trit,
    decode,
    encode,
)
from digit_oracles import bound_series_sum, from_digit_map, membership_by_caps, sample_by_caps

F_ID = get_growth("identity")
F_N2 = get_growth("n2")
A_N2 = get_weights("n2")
REGISTRY_PAIRS = [(f, a) for f in GROWTH_REGISTRY for a in WEIGHT_REGISTRY]


class TestRegistries:
    def test_unknown_names(self):
        with pytest.raises(KeyError, match="identity"):
            get_growth("nope")
        with pytest.raises(KeyError, match="n2"):
            get_weights("nope")

    def test_monotonicity_check(self):
        for name in ("identity", "n2", "n3", "pow2"):
            f = get_growth(name)
            values = [f(n) for n in range(1, 1001)]
            assert values[0] >= 1
            assert all(a < b for a, b in zip(values, values[1:]))

    @settings(max_examples=80, deadline=None)
    @given(ns=st.lists(st.integers(0, 400), max_size=25))
    def test_nfact_weight_is_the_factorial_in_any_order(self, ns):
        # The weight keeps the last n! it formed; the registry's one instance
        # carries that state from one example to the next.
        a = get_weights("nfact")
        for n in ns + sorted(ns) + sorted(ns, reverse=True) + ns[:1] * 2:
            assert a(n) == factorial(n), n

    def test_weight_partial_sums(self):
        a = get_weights("n2")
        assert Fraction(*_reciprocal_sum(a, 1, 4)) == Fraction(1) + Fraction(1, 4) + Fraction(1, 9)
        assert Fraction(*_reciprocal_sum(a, 1, 201)) < math.pi**2 / 6


class TestAfElements:
    def test_identity(self):
        assert af_elements(F_ID, 5) == [2, 4, 9, 28, 125]

    def test_n2(self):
        assert af_elements(F_N2, 3) == [2, 26, 362883]

    def test_single(self):
        assert af_elements(F_ID, 1) == [2]

    def test_bit_budget(self):
        with pytest.raises(ResourceBudgetError):
            af_elements(get_growth("pow2"), 30)


def test_congruence_oracle():
    # (n + f(n)!) mod q = n mod q once f(n) >= q, against big integers.
    for q in range(2, 21):
        head = _head_residues(F_N2, q)
        residues = list(head) + [0] * (30 - len(head))
        for n in range(1, 31):
            exact = (n + factorial(F_N2(n))) % q
            assert (n + residues[n - 1]) % q == exact
            if F_N2(n) >= q:
                assert exact == n % q


class TestAfSumRational:
    def test_n2_half(self):
        trace = af_sum_rational(F_N2, 1, 2, 4)
        # Parities of 2, 26, 362883, 4+16!: even, even, odd, even.
        assert trace.partial_sum == pytest.approx(2)
        assert trace.count == 4

    def test_identity_half(self):
        assert af_sum_rational(F_ID, 1, 2, 2).partial_sum == pytest.approx(2)

    def test_against_bigint_oracle(self):
        rng = random.Random(23)
        for _ in range(30):
            q = rng.randint(2, 12)
            p = rng.randint(1, q - 1)
            n_max = rng.randint(1, 25)
            total = af_sum_rational(F_N2, p, q, n_max).partial_sum
            direct = sum(
                e(((n + factorial(F_N2(n))) * p % q) / q) for n in range(1, n_max + 1)
            )
            assert abs(total - direct) < 1e-9

    def test_eq4_instance(self):
        for q in range(2, 12):
            trace = af_sum_rational(F_N2, 1, q, 2000)
            assert trace.sup_modulus <= eq4_rhs(F_N2, 1, q)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            af_sum_rational(F_N2, 1, 1, 10)


class TestAfSumFactoradic:
    def test_matches_rational_path(self):
        alpha = encode(Fraction(1, 2), 30)
        for n in (1, 5, 20):
            via_digits, phase_error = af_sum_factoradic(F_N2, alpha, n)
            via_modq = af_sum_rational(F_N2, 1, 2, n).partial_sum
            assert phase_error == 0
            assert abs(via_digits - via_modq) < 1e-9

    def test_sparse_digit_oracle(self):
        # One nonzero digit s_7 = 3; compare against exact rational phases.
        alpha = from_digit_map({7: 3}, depth=110)
        x = decode(alpha)[0]
        via_digits, _ = af_sum_factoradic(F_N2, alpha, 10)
        p, q = x.numerator, x.denominator
        direct = sum(
            e(((n + factorial(F_N2(n))) * p % q) / q) for n in range(1, 11)
        )
        assert abs(via_digits - direct) < 1e-9

    def test_single_term(self):
        alpha = encode(Fraction(1, 3), 10)
        total, _ = af_sum_factoradic(F_N2, alpha, 1)
        assert abs(abs(total) - 1) < 1e-12
        assert total == pytest.approx(e(float(2 * Fraction(1, 3))))

    def test_insufficient_depth(self):
        alpha = FactoradicReal(tuple([0] * 9), Tail.UNKNOWN)  # depth 10
        with pytest.raises(InsufficientDepthError, match="through position 26, have depth 10"):
            af_sum_factoradic(F_N2, alpha, 5)

    def test_phase_error_budget(self):
        alpha = FactoradicReal(tuple([1] * 40), Tail.UNKNOWN)  # depth 41
        _, phase_error = af_sum_factoradic(F_N2, alpha, 3)
        bound = 2 * math.pi * sum(
            (n + factorial(F_N2(n))) / factorial(41) for n in range(1, 4)
        )
        assert 0 < phase_error <= bound * (1 + 1e-12)


class TestBoundTheoretical:
    def test_plug_in(self):
        # dirichlet(1/2) * (1 + 4 pi (1 + e/2)) with e ~ 2.71828...
        expect = 1.0 + 4 * math.pi * (1 + math.e / 2)
        assert bound_theoretical(F_N2, A_N2, Fraction(1, 2), 1) == pytest.approx(expect, rel=1e-9)

    def test_at_least_dirichlet(self):
        rng = random.Random(3)
        for _ in range(50):
            q = rng.randint(2, 300)
            p = rng.randint(1, q - 1)
            n = rng.randint(1, 50)
            alpha = Fraction(p, q)
            assert bound_theoretical(F_N2, A_N2, alpha, n) >= dirichlet_bound(alpha)

    def test_monotone_in_n(self):
        vals = [bound_theoretical(F_N2, A_N2, Fraction(1, 3), n) for n in range(1, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_series_is_exact_rational(self):
        s = bound_series_sum(F_N2, A_N2, 2)
        assert s == Fraction(1) + E_UPPER / 2 + Fraction(1, 4) + E_UPPER / 5


class TestDigitConstraints:
    def test_caps_n2(self):
        constraints = DigitConstraintSet(F_N2, A_N2)
        # i=1: position 2, cap 2 (no effective restriction: digits go to 1).
        assert constraints.cap_for_position(2) == 2
        # i=2: position 5, cap floor(5/4) = 1.
        assert constraints.cap_for_position(5) == 1
        assert constraints.cap_for_position(4) is None
        assert constraints.allowed_digit_counts(5)[-1] == 2
        assert constraints.allowed_digit_counts(4)[-1] == 4

    def test_count_table_matches_the_caps_however_it_grows(self):
        for f_name in ("identity", "n2", "pow2"):
            for a_name in ("n2", "pow2", "nfact"):
                table = DigitConstraintSet(get_growth(f_name), get_weights(a_name))
                caps = DigitConstraintSet(get_growth(f_name), get_weights(a_name))
                want = [m if caps.cap_for_position(m) is None
                        else min(m - 1, caps.cap_for_position(m)) + 1 for m in range(2, 301)]
                # Reads out of order: a deep one, a shallow one, one position at a time.
                assert table.allowed_digit_counts(150)[-1] == want[148]
                assert table.allowed_digit_counts(40) == want[:39]
                assert table.allowed_digit_counts(300) == want
                assert [table.allowed_digit_counts(m)[-1] for m in range(2, 301)] == want

    @pytest.mark.parametrize("f_name,a_name", REGISTRY_PAIRS)
    @settings(max_examples=30, deadline=None)
    @given(depths=st.lists(st.integers(2, 400), min_size=1, max_size=8))
    def test_counts_do_not_depend_on_earlier_reads(self, f_name, a_name, depths):
        # Depths in any order, repeated or decreasing, against a fresh set for each.
        f, a = get_growth(f_name), get_weights(a_name)
        shared = DigitConstraintSet(f, a)
        for depth in depths:
            fresh = DigitConstraintSet(f, a)
            assert shared.allowed_digit_counts(depth) == fresh.allowed_digit_counts(depth)
            assert shared.constrained_positions(depth) == [
                m for m in range(2, depth + 1) if fresh.cap_for_position(m) is not None]

    def test_membership_zero(self):
        constraints = DigitConstraintSet(F_N2, A_N2)
        assert membership(constraints, FactoradicReal((0, 0, 0, 0))) is Trit.YES

    def test_membership_violation(self):
        # pow2 weights: cap at position 10 (i=3) is floor(10/8) = 1.
        constraints = DigitConstraintSet(F_N2, get_weights("pow2"))
        assert constraints.cap_for_position(10) == 1
        bad = from_digit_map({10: 2}, depth=12)
        assert membership(constraints, bad) is Trit.NO

    def test_membership_unknown(self):
        constraints = DigitConstraintSet(F_N2, A_N2)
        ok_prefix = FactoradicReal((1, 0, 0, 1), Tail.UNKNOWN)
        assert membership(constraints, ok_prefix) is Trit.UNKNOWN

    @pytest.mark.parametrize("f_name,a_name", REGISTRY_PAIRS)
    @given(depth=st.integers(2, 300), rnd=st.randoms(use_true_random=False),
           pushed=st.integers(0, 3), tail=st.sampled_from(Tail))
    @settings(max_examples=25, deadline=None)
    def test_matches_the_check_by_caps(self, f_name, a_name, depth, rnd, pushed, tail):
        f, a = get_growth(f_name), get_weights(a_name)
        caps = DigitConstraintSet(f, a)
        digits = [rnd.randrange(m if caps.cap_for_position(m) is None
                                else min(m - 1, caps.cap_for_position(m)) + 1)
                  for m in range(2, depth + 1)]
        # Push some digits anywhere in their range, past their cap or not.
        for _ in range(pushed):
            m = rnd.randrange(2, depth + 1)
            digits[m - 2] = rnd.randrange(m)
        alpha = FactoradicReal(tuple(digits), tail)
        assert membership(DigitConstraintSet(f, a), alpha) is membership_by_caps(caps, alpha)


class TestSampleE:
    def test_deterministic(self):
        constraints = DigitConstraintSet(F_N2, A_N2)
        assert sample_e_set(constraints, 40, 99) == sample_e_set(constraints, 40, 99)

    def test_members_by_construction(self):
        constraints = DigitConstraintSet(F_N2, A_N2)
        for seed in range(100):
            sample = sample_e_set(constraints, 30, seed)
            assert membership(constraints, sample) is Trit.YES
            assert any(sample.digits)

    def test_all_digits_capped_at_zero_raises_before_drawing(self):
        # identity growth constrains every position and 10**n weights cap each
        # at 0, so the only draw would be alpha = 0, which lies outside (0,1).
        huge = WeightSequence("huge", lambda n: 10**n)
        constraints = DigitConstraintSet(F_ID, huge)
        assert constraints.allowed_digit_counts(6) == [1] * 5
        with mock.patch("random.Random", side_effect=AssertionError("drew a sample")):
            with pytest.raises(ValueError, match="alpha = 0"):
                sample_e_set(constraints, 6, 0)

    @pytest.mark.parametrize("f_name,a_name", REGISTRY_PAIRS)
    @given(depth=st.integers(2, 300), seed=st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_matches_the_draw_by_caps(self, f_name, a_name, depth, seed):
        f, a = get_growth(f_name), get_weights(a_name)
        assert sample_e_set(DigitConstraintSet(f, a), depth, seed) == sample_by_caps(
            DigitConstraintSet(f, a), depth, seed)


def test_eq8_digit_tail_estimate():
    constraints = DigitConstraintSet(F_N2, A_N2)
    from besum.factoradic import frac_factorial

    for seed in range(20):
        alpha = sample_e_set(constraints, 120, seed)
        for n in range(1, 11):  # f(n)+1 <= 101 < depth
            value, err = frac_factorial(F_N2(n), alpha)
            assert err == 0
            assert value <= Fraction(1, A_N2(n)) + E_UPPER / (F_N2(n) + 1)
