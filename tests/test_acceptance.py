"""End-to-end acceptance suite.

Each test implements one numbered criterion at its stated tolerance and
prints a single PASS line (run with ``pytest -s`` to see them); pytest
failure output is the FAIL line.
"""

import math
import random
from fractions import Fraction
from math import factorial, gcd

import pytest

from besum.construction import (
    DigitConstraintSet,
    E_UPPER,
    af_sum_factoradic,
    af_sum_rational,
    bound_theoretical,
    eq4_rhs,
    get_growth,
    get_weights,
    sample_e_set,
)
from besum.dimension import (
    condition_ii_check,
    count_cylinders,
    count_lower_bound,
    dimension_lower_estimate,
    measure_of_cylinder,
)
from besum.expsum import dirichlet_bound, qn_counterexample_sup, symmetry_check
from besum.factoradic import FactoradicReal, Tail, decode, encode, frac_factorial
from besum.periodicity import (
    CoefficientSequence,
    detect_ultimate_period,
    partial_power_sum,
    period_collapse_test,
)
from digit_oracles import enumerate_cylinder_digits, tail_sum_identity

F_ID = get_growth("identity")
F_N2 = get_growth("n2")
A_N2 = get_weights("n2")
E_N2 = DigitConstraintSet(F_N2, A_N2)


@pytest.fixture(scope="module")
def e_samples():
    """The 100 seeded depth-950 samples shared by criteria 2 and 3."""
    return [sample_e_set(E_N2, 950, seed) for seed in range(100)]


def test_criterion_01_rational_boundedness():
    n_max = 10**5
    worst_slack = math.inf
    checked = 0
    for q in range(2, 21):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            _, trace = af_sum_rational(F_N2, p, q, n_max)
            rhs = eq4_rhs(F_N2, p, q)
            assert trace.sup_modulus <= rhs, f"sup {trace.sup_modulus} > bound {rhs} at {p}/{q}"
            worst_slack = min(worst_slack, rhs - trace.sup_modulus)
            checked += 1
    print(f"\ncriterion 1 PASS: {checked} reduced p/q (q<=20), N<=1e5, "
          f"sup <= Eq.(4) rhs, min slack {worst_slack:.3f}")


def test_criterion_02_e_set_bound(e_samples):
    for alpha in e_samples:
        assert alpha.depth >= 950
        lower, upper = decode(alpha)
        assert lower == upper  # exact rational representative
        total, phase_error = af_sum_factoradic(F_N2, alpha, 30)
        assert phase_error < 1e-9
        # Check every prefix N <= 30 against the closed-form bound.
        run = 0j
        from besum.expsum import e as e_turns

        for n in range(1, 31):
            n_phase = n * lower
            n_phase -= int(n_phase)
            m_phase, _ = frac_factorial(F_N2(n), alpha)
            phase = n_phase + m_phase
            run += e_turns(float(phase - int(phase)))
            bound = bound_theoretical(F_N2, A_N2, lower, n)
            assert abs(run) <= bound + phase_error + 1e-9
        assert abs(run - total) < 1e-9
    print("criterion 2 PASS: 100 samples of E(n2,n2) at depth 950, "
          "|S(N)| <= closed-form bound for all N <= 30")


def test_criterion_03_digit_tail_estimate(e_samples):
    checks = 0
    for alpha in e_samples:
        for n in range(1, 31):
            value, err = frac_factorial(F_N2(n), alpha)
            assert err == 0
            assert value <= Fraction(1, A_N2(n)) + E_UPPER / (F_N2(n) + 1)
            checks += 1
    print(f"criterion 3 PASS: {{f(n)! alpha}} <= 1/a_n + e/(f(n)+1) exactly, "
          f"{checks} exact-rational checks, zero violations")


def test_criterion_04_tail_equality():
    pairs = 0
    for n in range(2, 21):
        for m in range(n + 1, 21):
            lhs, rhs = tail_sum_identity(n, m)
            assert lhs == rhs
            pairs += 1
    print(f"criterion 4 PASS: tail equality exact for all {pairs} pairs 2 <= N < M <= 20")


def test_criterion_05_roundtrip_and_oracle():
    rng = random.Random(12345)
    fact12 = factorial(12)
    for _ in range(1000):
        x = Fraction(rng.randrange(fact12), fact12)
        f = encode(x, 12)
        assert f.tail is Tail.ZERO
        lower, upper = decode(f)
        assert lower == x == upper
    oracle_checks = 0
    for q in range(2, 101):
        for p in range(1, q):
            f = encode(Fraction(p, q), 101)
            assert f.tail is Tail.ZERO
            for m in range(1, 13):
                value, err = frac_factorial(m, f)
                assert err == 0
                assert value == Fraction(factorial(m) * p % q, q)
                oracle_checks += 1
    print(f"criterion 5 PASS: 1000 round-trips (den | 12!) and "
          f"{oracle_checks} modular-oracle matches, all exact")


def test_criterion_06_symmetry():
    rng = random.Random(999)
    worst = 0.0
    for _ in range(1000):
        n_max = rng.randint(10, 10**4)
        size = rng.randint(1, 80)
        elements = sorted(rng.sample(range(1, 10**4 + 1), size))
        q = rng.randint(2, 10**4)
        p = rng.randint(1, q - 1)
        lhs, rhs = symmetry_check(elements, Fraction(p, q), n_max)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-9
    print(f"criterion 6 PASS: conj(S_A(alpha,N)) = S_A(1-alpha,N) on 1000 random "
          f"(A, alpha, N), max deviation {worst:.2e}")


def test_criterion_07_qn_counterexample():
    sup_resonant = qn_counterexample_sup(3, Fraction(1, 3), 3 * 10**4)
    assert sup_resonant == 10**4  # every term is e(0) = 1, exactly
    sup_off = qn_counterexample_sup(3, Fraction(1, 4), 3 * 10**4)
    bound = 2.0 / abs(complex(math.cos(2 * math.pi * 0.75), math.sin(2 * math.pi * 0.75)) - 1) + 1
    assert sup_off <= bound
    print(f"criterion 7 PASS: A={{3n}} sup at 1/3 is 1e4 exactly; "
          f"sup at 1/4 is {sup_off:.4f} <= {bound:.4f}")


def test_criterion_08_cylinder_counts_and_measure():
    for a_name in ("n2", "pow2", "nfact"):
        constraints = DigitConstraintSet(F_N2, get_weights(a_name))
        for j in range(2, 10):
            assert count_cylinders(constraints, j) == len(
                enumerate_cylinder_digits(constraints, j)
            )
    for i in range(2, 9):
        count_i = count_cylinders(E_N2, i)
        total = sum(
            measure_of_cylinder(E_N2, FactoradicReal(d), i)
            for d in enumerate_cylinder_digits(E_N2, i)
        )
        assert total == 1
        # Subdivision: each parent's mass equals the sum over its children.
        children_per_parent = count_cylinders(E_N2, i + 1) // count_i
        assert count_cylinders(E_N2, i + 1) == children_per_parent * count_i
        assert Fraction(1, count_i) == children_per_parent * Fraction(
            1, count_cylinders(E_N2, i + 1)
        )
    print("criterion 8 PASS: counts match brute force (j<=9, three weights); "
          "total mass 1 and subdivision exact for i <= 8")


def test_criterion_09_count_lower_bound():
    for j in range(2, 15):
        exact = count_cylinders(E_N2, j)
        bound = count_lower_bound(E_N2, j)
        assert exact >= bound
    assert count_cylinders(E_N2, 5) == 48
    assert count_lower_bound(E_N2, 5) == 12
    print("criterion 9 PASS: exact count >= factorial-quotient bound for j <= 14 "
          "(j=5: 48 >= 12)")


def test_criterion_10_condition_ii():
    for eps in (0.1, 0.5, 0.9):
        sup, attained_at, series = condition_ii_check(F_N2, eps, 10**4)
        assert attained_at <= 10**4
        assert all(series[i] < sup for i in range(attained_at, 10**4))
        # g jumps by log(j^2+1) whenever i passes a square, so pointwise
        # decrease fails; the envelope of local maxima (at i = j^2) decreases.
        envelope = [series[j * j - 1] for j in range(1, 101) if j * j >= attained_at]
        assert all(a > b for a, b in zip(envelope, envelope[1:]))
    _, _, id_series = condition_ii_check(F_ID, 0.5, 100)
    assert id_series[99] > id_series[9] + 50
    print("criterion 10 PASS: f=n2 statistic peaks early and decays (eps 0.1/0.5/0.9); "
          "f=identity grows without bound (g(100) > g(10) + 50)")


def test_criterion_11_dimension_trend():
    series = dict(dimension_lower_estimate(E_N2, 200))
    assert series[5] >= 0.80
    assert series[200] >= 0.95
    checkpoints = [5, 20, 50, 100, 200]
    vals = [series[j] for j in checkpoints]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    print(f"criterion 11 PASS: log-count ratio {series[5]:.4f} at j=5, "
          f"{series[200]:.4f} at j=200, increasing toward 1")


def test_criterion_12_period_collapse():
    rng = random.Random(777)
    for _ in range(1000):
        pre = [rng.randint(0, 1) for _ in range(rng.randint(0, 8))]
        block = [rng.randint(0, 1) for _ in range(rng.randint(1, 8))]
        c = CoefficientSequence.ultimately_periodic(pre, block, 80)
        found = detect_ultimate_period(c, 30, 16)
        assert found is not None
        k, q = found
        collapsed = period_collapse_test(c, k, q)
        assert collapsed == (len(set(c.values[k:])) == 1)
    c = CoefficientSequence.ultimately_periodic([], [1, 0, 0], 30000)
    moduli = [abs(partial_power_sum(c, r, 1 / 3, 29999)) for r in (0.9, 0.99, 0.999)]
    assert moduli[1] >= 5 * moduli[0]
    assert moduli[2] >= 5 * moduli[1]
    print("criterion 12 PASS: collapse <=> constant block on 1000 random sequences; "
          f"pole moduli {moduli[0]:.1f} -> {moduli[1]:.1f} -> {moduli[2]:.1f} (>=5x per step)")
