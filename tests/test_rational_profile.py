"""The periodic-tail engine for rational angles against independent references.

References here share no code with besum's engine: residues come from
big-integer factorials, partial sums from 200-bit mpmath arithmetic, and
exact ties of moduli from polynomial division by the cyclotomic
polynomial.
"""

import functools
import math
import tracemalloc
from fractions import Fraction
from math import factorial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besum import expsum
from besum.construction import RationalProfile, af_sum_rational, get_growth
from besum.expsum import (
    ROOT_ERROR,
    RootSums,
    qn_counterexample_sup,
    roots_at,
    sign_at_root,
    vanishes_at_root,
)


def brute_residues(f_name: str, p: int, q: int, n_max: int) -> list[int]:
    """(n + f(n)!) p mod q for n = 1..n_max, term by term from big integers.

    f(n)! is a multiple of q! once f(n) >= q, so min(f(n), q)! has the
    same residue mod q and keeps the factorials small.
    """
    f = get_growth(f_name)
    return [(n + factorial(min(f(n), q))) * p % q for n in range(1, n_max + 1)]


@functools.cache
def cyclotomic(q: int) -> list[int]:
    """Coefficients of Phi_q, lowest degree first, by dividing x^q - 1 by Phi_d, d | q, d < q."""
    poly = [-1] + [0] * (q - 1) + [1]
    for d in range(1, q):
        if q % d == 0:
            poly = poly_divide(poly, cyclotomic(d))
    return tuple(poly)


def poly_divide(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials; den is monic."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        out[i] = num[i + len(den) - 1]
        for j, c in enumerate(den):
            num[i + j] -= out[i] * c
    assert not any(num[: len(den) - 1]), "division was not exact"
    return out


def poly_remainder(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    for i in range(len(num) - len(den), -1, -1):
        lead = num[i + len(den) - 1]
        for j, c in enumerate(den):
            num[i + j] -= lead * c
    return num[: len(den) - 1]


def squared_modulus_coeffs(residues: list[int], q: int) -> list[int]:
    """|sum_m e(r_m/q)|^2 as coefficients of x^d, d = 0..q-1, by the double sum
    over pairs of residues (k, m), each adding c_k c_m to x^(k - m)."""
    counts = np.bincount(residues, minlength=q)
    k, m = np.indices((q, q))
    pairs = np.outer(counts, counts)
    return [int(c) for c in np.bincount(((k - m) % q).ravel(), weights=pairs.ravel(), minlength=q)]


class Reference:
    """Partial sums S_n of e(r_n/q) in 200-bit arithmetic, with exact first sup indices."""

    def __init__(self, residues: list[int], q: int):
        self.residues, self.q = residues, q
        self.squares: dict[int, list[int]] = {}
        with mpmath.workprec(200):
            roots = [mpmath.expjpi(mpmath.mpf(2 * k) / q) for k in range(q)]
            s = mpmath.mpc(0)
            self.sums, self.moduli = [], []
            for r in residues:
                s += roots[r]
                self.sums.append(complex(s))
                self.moduli.append(abs(s))
            self.first_sup = []  # 0-based first index of the exact max of moduli[:n + 1]
            best, tie = 0, mpmath.mpf("1e-40")
            for i, m in enumerate(self.moduli):
                if m > self.moduli[best] + tie:
                    best = i
                elif i != best and abs(m - self.moduli[best]) <= tie:
                    assert self.exactly_equal(i, best), "200 bits cannot order two distinct moduli"
                self.first_sup.append(best)

    def exactly_equal(self, i: int, j: int) -> bool:
        diff = [a - b for a, b in zip(self.square(i), self.square(j))]
        return not any(poly_remainder(diff, cyclotomic(self.q)))

    def square(self, i: int) -> list[int]:
        if i not in self.squares:
            self.squares[i] = squared_modulus_coeffs(self.residues[: i + 1], self.q)
        return self.squares[i]


def check_against_reference(f_name: str, p: int, q: int) -> None:
    """Value, sup and sup_at of af_sum_rational for every N <= 3 (H + q)."""
    f = get_growth(f_name)
    profile = RationalProfile(f, p, q)
    n_max = 3 * (profile.head + q)
    ref = Reference(brute_residues(f_name, p, q, n_max), q)
    tol = profile.sums.error
    for n in range(1, n_max + 1):
        trace = af_sum_rational(f, p, q, n)
        assert abs(trace.partial_sum - ref.sums[n - 1]) <= tol
        assert trace.count == n
        assert abs(trace.sup_modulus - ref.moduli[ref.first_sup[n - 1]]) <= tol
        assert trace.sup_at == ref.first_sup[n - 1] + 1, (n, trace)


@given(f_name=st.sampled_from(["identity", "n2", "pow2"]), q=st.integers(2, 60))
@settings(max_examples=12, deadline=None)
def test_matches_brute_force(f_name, q):
    for p in range(1, q):
        check_against_reference(f_name, p, q)


@pytest.mark.parametrize("f_name, p, q", [("identity", 8, 19), ("n2", 2, 3), ("n2", 6, 60),
                                           ("pow2", 1, 2), ("identity", 30, 59)])
def test_matches_brute_force_at(f_name, p, q):
    check_against_reference(f_name, p, q)


def closed_form_counts(f_name: str, p: int, q: int, n_max: int) -> list[int]:
    """How many n <= n_max give each residue (n + f(n)!) p mod q.

    n up to q - 1 term by term (f(n) >= n puts every later n in the tail,
    where the residue is n p mod q); then, per class t mod q, the count of
    n in [q, n_max] with n = t mod q.
    """
    counts = [0] * q
    for r in brute_residues(f_name, p, q, min(n_max, q - 1)):
        counts[r] += 1
    for t in range(q):
        counts[t * p % q] += (n_max - t) // q - (q - 1 - t) // q
    return counts


@pytest.mark.parametrize("f_name, p, q", [("n2", 1, 3), ("identity", 500, 997),
                                           ("pow2", 6, 10), ("n2", 68, 137)])
def test_huge_n_against_per_residue_counts(f_name, p, q):
    n_max = 10**12
    counts = closed_form_counts(f_name, p, q, n_max)
    assert sum(counts) == n_max
    with mpmath.workprec(200):
        want = complex(mpmath.fsum(c * mpmath.expjpi(mpmath.mpf(2 * k) / q)
                                   for k, c in enumerate(counts)))
    trace = af_sum_rational(get_growth(f_name), p, q, n_max)
    profile = RationalProfile(get_growth(f_name), p, q)
    assert abs(trace.partial_sum - want) <= profile.sums.error
    # Past H + q nothing new is reached: the sup is the window's.
    at_window = af_sum_rational(get_growth(f_name), p, q, profile.head + q)
    assert (trace.sup_modulus, trace.sup_at) == (at_window.sup_modulus, at_window.sup_at)


def test_sup_at_is_the_first_exact_maximum():
    # Terms 1 and 2 are e(2(1 + 1!)/3) = e(2(2 + 4!)/3) = e(1/3), so S_2 = 2 e(1/3); no later
    # |S_N| exceeds 2.  Kahan summation noise used to place the sup at N = 99998.
    trace = af_sum_rational(get_growth("n2"), 2, 3, 10**5)
    assert abs(trace.sup_modulus - 2.0) <= 1e-12
    assert trace.sup_at == 2


def test_integer_angle_rejected():
    with pytest.raises(ValueError):
        RationalProfile(get_growth("n2"), 3, 3)


def test_building_a_profile_peaks_near_what_it_keeps():
    # identity at a prime q: H = q - 1, about 2q terms.  The profile keeps residues, sums,
    # moduli and their running max, 40 bytes a term; a Python list of the H + q shifts
    # raised the peak to 76.
    q = 100003
    tracemalloc.start()
    try:
        profile = RationalProfile(get_growth("identity"), 1, q)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    terms = profile.head + q
    assert kept <= 41 * terms
    assert peak <= 48 * terms


@pytest.mark.parametrize("f_name, q, n_max", [("identity", 19, 100), ("n2", 137, 10**9),
                                               ("n2", 11, 5), ("pow2", 8, 12)])
def test_tail_sup_is_the_sup_from_q_minus_1(f_name, q, n_max):
    f = get_growth(f_name)
    for p in range(1, q):
        profile = RationalProfile(f, p, q)
        # Beyond H + 2q every further N repeats one already listed.
        stop = min(n_max, profile.head + 2 * q)
        moduli = profile.sums.moduli
        want = max((moduli[profile.window(n) - 1] for n in range(q - 1, stop + 1)), default=0.0)
        assert profile.tail_sup(n_max) == want


class TestRootSums:
    def test_roots_within_stated_error(self):
        with mpmath.workprec(120):
            for q in (2, 3, 7, 60, 997, 1000):
                roots = roots_at(np.arange(q), q)
                for k in range(q):
                    exact = mpmath.expjpi(mpmath.mpf(2 * k) / q)
                    assert abs(mpmath.mpc(complex(roots[k])) - exact) <= ROOT_ERROR

    def test_rounded_turns_within_stated_error(self):
        # Denominators past int64 reach roots_at as turns r/q rounded to float, with q = 1.
        rng = np.random.default_rng(11)
        with mpmath.workprec(200):
            for q in (10**10 + 19, 2**64 + 13, 10**40 + 3):
                residues = [int(rng.integers(0, 2**62)) * q // 2**62 for _ in range(200)]
                roots = roots_at(np.array([r / q for r in residues]), 1)
                for r, root in zip(residues, roots):
                    exact = mpmath.expjpi(mpmath.mpf(2 * r) / q)
                    assert abs(mpmath.mpc(complex(root)) - exact) <= ROOT_ERROR

    def test_square_is_the_exact_squared_modulus(self):
        rng = np.random.default_rng(5)
        for q in (2, 5, 12, 30):
            residues = rng.integers(0, q, 40)
            sums = RootSums(residues, q)
            for i in (0, 7, 39):
                assert list(sums._square(i)) == squared_modulus_coeffs(list(residues[: i + 1]), q)

    def test_vanishing_matches_cyclotomic_division(self):
        rng = np.random.default_rng(7)
        for q in (2, 6, 12, 15, 30, 36, 60):
            phi = cyclotomic(q)
            for _ in range(30):
                coeffs = list(rng.integers(-2, 3, q))
                if rng.random() < 0.5:
                    # Make it a multiple of Phi_q (mod x^q - 1).
                    mult = list(rng.integers(-2, 3, q - len(phi) + 1))
                    prod = [0] * q
                    for i, a in enumerate(phi):
                        for j, b in enumerate(mult):
                            prod[(i + j) % q] += a * b
                    coeffs = prod
                want = not any(poly_remainder(coeffs + [0] * len(phi), phi))
                assert vanishes_at_root(np.array(coeffs), q) == want

    def test_sign_of_a_tiny_nonzero_value(self):
        # (e(1/7) + e(-1/7) - 1)^25 = (2 cos(2 pi/7) - 1)^25 ~ 6.6e-16, while its
        # coefficients reach ~1e11: no float evaluation can give the sign.
        q = 7
        base = np.array([-1, 1, 0, 0, 0, 0, 1], dtype=np.int64)
        power = np.array([1, 0, 0, 0, 0, 0, 0], dtype=np.int64)
        for _ in range(25):
            power = np.array([sum(power[j] * base[(d - j) % q] for j in range(q))
                              for d in range(q)], dtype=np.int64)
        assert not vanishes_at_root(power, q)
        assert sign_at_root(power, q) == 1
        assert sign_at_root(-power, q) == -1

    def test_sup_breaks_ties_by_first_index(self):
        # e(0), e(1/2), e(0), e(1/2), ...: |S| is 1, 0, 1, 0, ... exactly.
        sums = RootSums([0, 1, 0, 1, 0], 2)
        assert sums.sup(5) == (1.0, 1)
        # e(1/3), e(1/3), e(2/3), e(2/3): moduli 1, 2, sqrt 3, 2.
        sums = RootSums([1, 1, 2, 2], 3)
        value, at = sums.sup(4)
        assert at == 2 and math.isclose(value, 2.0)

    def test_sup_compares_each_candidate_with_the_best_so_far(self):
        # A widened error makes every index a candidate, so the exact
        # comparisons alone must find the first of the tied maxima 2 = |S_2| = |S_4|.
        sums = RootSums([1, 1, 2, 2], 3)
        sums.error = 1.0
        value, at = sums.sup(4)
        assert at == 2 and math.isclose(value, 2.0)


def exact_qn_sup(q: int, a: int, b: int, n_max: int) -> float:
    """max over K <= n_max // q of |sum_{k<=K} e(k q a/b)|, each sum at 100 bits."""
    with mpmath.workprec(100):
        total, best = mpmath.mpc(0), mpmath.mpf(0)
        for k in range(1, n_max // q + 1):
            total += mpmath.expjpi(mpmath.mpf(2 * (k * q * a % b)) / b)
            best = max(best, abs(total))
        return float(best)


class TestQnCounterexample:
    @settings(max_examples=60, deadline=None)
    @given(
        q=st.integers(2, 9),
        b=st.one_of(st.integers(2, 400), st.integers(10**9, 10**12), st.integers(2**63, 10**30)),
        a_frac=st.floats(0, 1, exclude_max=True),
        n_max=st.integers(0, 1500),
    )
    def test_matches_exact_sums_across_batches(self, q, b, a_frac, n_max):
        a = max(1, min(b - 1, int(a_frac * b)))
        # Batches of 7 terms, so the running total is carried across many of them.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expsum, "_QN_CHUNK", 7)
            got = qn_counterexample_sup(q, Fraction(a, b), n_max)
        assert abs(got - exact_qn_sup(q, a, b, n_max)) <= 1e-9

    def test_large_denominator_reads_only_the_terms_it_needs(self):
        # b = 10^10: the sup over 1000 terms must not build anything of size b.
        a = Fraction("0.1234567891")
        assert a.denominator == 10**10
        got = qn_counterexample_sup(3, a, 3000)
        assert abs(got - exact_qn_sup(3, a.numerator, a.denominator, 3000)) <= 1e-9

    def test_resonance_is_exact(self):
        assert qn_counterexample_sup(7, Fraction(3, 7), 10**15) == 10**15 // 7
