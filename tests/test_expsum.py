import math
import random
from fractions import Fraction

import numpy as np
import pytest

from besum.expsum import dirichlet_bound, e, qn_counterexample_sup
from sum_oracles import full_interval_sum, stream_sum, sum_over_set, symmetry_check


class TestAngle:
    def test_rejects_endpoints(self):
        for alpha in (Fraction(0), Fraction(1)):
            with pytest.raises(ValueError, match="outside"):
                dirichlet_bound(alpha)
            with pytest.raises(ValueError, match="outside"):
                qn_counterexample_sup(3, alpha, 10)


class TestDirichletBound:
    def test_half(self):
        assert dirichlet_bound(Fraction(1, 2)) == pytest.approx(1.0)

    def test_third(self):
        assert dirichlet_bound(Fraction(1, 3)) == pytest.approx(2 / math.sqrt(3))

    def test_sixth(self):
        assert dirichlet_bound(Fraction(1, 6)) == pytest.approx(2.0)


class TestFullIntervalSum:
    def test_half_n1(self):
        assert full_interval_sum(Fraction(1, 2), 1) == pytest.approx(-1)

    def test_half_n2(self):
        assert abs(full_interval_sum(Fraction(1, 2), 2)) == pytest.approx(0, abs=1e-12)

    def test_full_period(self):
        assert abs(full_interval_sum(Fraction(1, 4), 4)) == pytest.approx(0, abs=1e-12)

    def test_against_direct(self):
        rng = random.Random(11)
        for _ in range(200):
            q = rng.randint(2, 1000)
            p = rng.randint(1, q - 1)
            n = rng.randint(1, 10**4)
            alpha = Fraction(p, q)
            direct = stream_sum(Fraction(k * p % q, q) for k in range(1, n + 1))
            closed = full_interval_sum(alpha, n)
            assert abs(closed - direct.partial_sum) < 1e-9

    def test_never_exceeds_dirichlet(self):
        rng = random.Random(13)
        for _ in range(1000):
            q = rng.randint(2, 5000)
            p = rng.randint(1, q - 1)
            n = rng.randint(1, 10**4)
            alpha = Fraction(p, q)
            assert abs(full_interval_sum(alpha, n)) <= dirichlet_bound(alpha) + 1e-9


class TestStreamSum:
    def test_two_halves(self):
        trace = stream_sum([Fraction(1, 2), Fraction(1, 2)])
        assert trace.partial_sum == pytest.approx(-2)
        assert trace.sup_modulus == pytest.approx(2)
        assert trace.sup_at == 2

    def test_all_ones(self):
        trace = stream_sum([0.0, 0.0, 0.0])
        assert trace.partial_sum == pytest.approx(3)
        assert trace.sup_modulus == pytest.approx(3)

    def test_cancellation_keeps_sup(self):
        trace = stream_sum([Fraction(1, 4), Fraction(3, 4)])
        assert abs(trace.partial_sum) == pytest.approx(0, abs=1e-12)
        assert trace.sup_modulus == pytest.approx(1)
        assert trace.sup_at == 1

    def test_sup_ties_keep_first_index(self):
        # |prefix| hits 1 at index 1 and again later; first index wins.
        trace = stream_sum([0.0, Fraction(1, 2), Fraction(1, 2)])
        assert trace.sup_at == 1

    def test_resumable(self):
        trace = stream_sum([0.0])
        trace = stream_sum([0.0], trace)
        assert trace.count == 2
        assert trace.partial_sum == pytest.approx(2)

    def test_compensated_long_run(self):
        # 10^6 terms e(k/3): each full cycle of 3 sums to 0 exactly.
        n = 10**6
        trace = stream_sum((k % 3) / 3 for k in range(1, n + 1))
        assert abs(trace.partial_sum - e(1 / 3)) < 1e-7  # n = 1 mod 3


def test_unit_circle_chord_inequality():
    # |e(t) - 1| <= 2 pi {t} on a dense grid.
    t = np.linspace(0, 50, 100_001)
    chord = np.abs(np.exp(2j * np.pi * t) - 1)
    assert np.all(chord <= 2 * np.pi * np.mod(t, 1.0) + 1e-12)


class TestSymmetry:
    def test_natural_numbers(self):
        lhs, rhs = symmetry_check(range(1, 11), Fraction(1, 3), 10)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_multiples(self):
        lhs, rhs = symmetry_check(range(5, 501, 5), Fraction(1, 5), 100)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_random_sets(self):
        rng = random.Random(17)
        for _ in range(100):
            elements = sorted(rng.sample(range(1, 10**4), rng.randint(1, 60)))
            q = rng.randint(3, 997)
            p = rng.randint(1, q - 1)
            lhs, rhs = symmetry_check(elements, Fraction(p, q), 10**4)
            assert abs(lhs - rhs) < 1e-9


class TestQnCounterexample:
    def test_resonant(self):
        assert qn_counterexample_sup(2, Fraction(1, 2), 1000) == pytest.approx(500)

    def test_off_resonance(self):
        sup = qn_counterexample_sup(2, Fraction(1, 4), 1000)
        assert sup <= dirichlet_bound(Fraction(1, 2)) + 1

    def test_q3(self):
        assert qn_counterexample_sup(3, Fraction(1, 3), 300) == pytest.approx(100)


def test_sum_over_set_measures_up_to_threshold():
    trace = sum_over_set([2, 4, 9, 28, 125], Fraction(1, 2), 10)
    # Elements 2, 4, 9 only: e(1) + e(2) + e(4.5) = 1 + 1 - 1.
    assert trace.partial_sum == pytest.approx(1)
    assert trace.count == 3
