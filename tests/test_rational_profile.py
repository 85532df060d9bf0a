"""The head-plus-geometric-tail engine for rational angles against independent references.

References here share no code with besum's engine: residues come from
big-integer factorials, partial sums from 200-bit mpmath arithmetic,
exact ties of moduli from polynomial division by the cyclotomic
polynomial, and the periodic H + q-term profile of `rational_oracles`.
"""

import csv
import functools
import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction
from math import factorial

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from besum import construction, expsum
from besum.cli import main
from besum.construction import GROWTH_REGISTRY, af_sum_rational, get_growth, rational_sums
from besum.expsum import (
    ROOT_ERROR,
    GeometricTail,
    _autocorrelation,
    _first_below,
    qn_counterexample_sup,
    roots_at,
    sign_at_root,
    vanishes_at_root,
)
from rational_oracles import RationalProfile, as_poly, correlate_square

F_NAMES = sorted(GROWTH_REGISTRY)


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


def head_length(f_name: str, p: int, q: int) -> int:
    sums = rational_sums(get_growth(f_name), p, q)
    sums.value(q + 1)  # past the head, so it has ended
    return sums.head


def check_against_reference(f_name: str, p: int, q: int) -> None:
    """Value, sup and sup_at of af_sum_rational for every N <= 3 (H + q)."""
    f = get_growth(f_name)
    n_max = 3 * (head_length(f_name, p, q) + q)
    ref = Reference(brute_residues(f_name, p, q, n_max), q)
    sums = rational_sums(f, p, q)
    for n in range(1, n_max + 1):
        tol = sums.error(n)
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
                                           ("pow2", 1, 2), ("identity", 30, 59), ("n2", 5, 14),
                                           ("identity", 1, 3)])
def test_matches_brute_force_at(f_name, p, q):
    check_against_reference(f_name, p, q)


@given(f_name=st.sampled_from(F_NAMES), q=st.integers(2, 2000), p_turn=st.floats(0, 1),
       n=st.one_of(st.integers(1, 5000), st.integers(1, 10**16)))
@settings(max_examples=200, deadline=None)
def test_matches_the_periodic_profile(f_name, q, p_turn, n):
    # A short period sums the oracle's terms in the oracle's order: the same floats.  The
    # closed form, forced at the same angle, is within the two stated errors, with the
    # same first N of the exact sup.
    p = min(q - 1, max(1, int(p_turn * q)))
    assume(math.gcd(p, q) == 1)
    f = get_growth(f_name)
    oracle, sums, closed = RationalProfile(f, p, q), rational_sums(f, p, q), rational_sums(f, p, q)
    closed._short = False
    assert sums._short
    assert sums.value(n) == oracle.value(n)
    assert sums.sup(n) == oracle.sup(n)
    tol = closed.error(n) + oracle.sums.error
    assert abs(closed.value(n) - oracle.value(n)) <= tol
    (value, at), (want, want_at) = closed.sup(n), oracle.sup(n)
    assert abs(value - want) <= tol
    assert at == want_at
    if n >= q - 1:
        assert sums.max_modulus(q - 1, n) == oracle.max_modulus(q - 1, n)
        assert abs(closed.max_modulus(q - 1, n) - oracle.max_modulus(q - 1, n)) <= tol


@given(data=st.data(), f_name=st.sampled_from(F_NAMES), q=st.integers(3001, 20000),
       p_turn=st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_long_period_arcs_match_the_periodic_profile(data, f_name, q, p_turn):
    # Past SHORT_PERIOD every arc lo..hi through H + 2q (beyond it each N repeats one
    # listed) is read in closed form: its max within the two stated errors of the
    # oracle's, and the oracle's first N of the exact sup.
    p = min(q - 1, max(1, int(p_turn * q)))
    assume(math.gcd(p, q) == 1)
    f = get_growth(f_name)
    oracle, sums = RationalProfile(f, p, q), rational_sums(f, p, q)
    assert not sums._short
    lo = data.draw(st.integers(1, oracle.head + 2 * q))
    hi = data.draw(st.integers(lo, oracle.head + 2 * q))
    tol = sums.error(hi) + oracle.sums.error
    assert abs(sums.max_modulus(lo, hi) - oracle.max_modulus(lo, hi)) <= tol
    assert sums.sup(hi)[1] == oracle.sup(hi)[1]


@pytest.mark.parametrize("f_name, q, n_max", [("identity", 19, 100), ("n2", 137, 10**9),
                                               ("n2", 11, 5), ("pow2", 8, 12)])
def test_tail_sup_is_the_sup_from_q_minus_1(f_name, q, n_max):
    # sup-sweep's tail_sup, max |S(N)| over q - 1 <= N <= n_max: the oracle's floats, and
    # 0.0 when n_max < q - 1.
    f = get_growth(f_name)
    for p in range(1, q):
        oracle = RationalProfile(f, p, q)
        # Beyond H + 2q every further N repeats one already listed.
        stop = min(n_max, oracle.head + 2 * q)
        want = max((oracle.sums.moduli[oracle.window(n) - 1] for n in range(q - 1, stop + 1)),
                   default=0.0)
        assert rational_sums(f, p, q).max_modulus(q - 1, n_max) == want


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
                                           ("pow2", 6, 10), ("n2", 68, 137), ("n3", 1999, 2000)])
@pytest.mark.parametrize("n_max", [10**12, 10**15 + 7])
def test_huge_n_against_per_residue_counts(f_name, p, q, n_max):
    # The closed form against a 50-digit sum over the per-residue counts.
    counts = closed_form_counts(f_name, p, q, n_max)
    assert sum(counts) == n_max
    with mpmath.workdps(50):
        want = complex(mpmath.fsum(c * mpmath.expjpi(mpmath.mpf(2 * k) / q)
                                   for k, c in enumerate(counts)))
    sums = rational_sums(get_growth(f_name), p, q)
    trace = af_sum_rational(get_growth(f_name), p, q, n_max)
    assert abs(trace.partial_sum - want) <= sums.error(n_max)
    # Past H + q nothing new is reached: the sup is that of one period past the head.
    at_window = af_sum_rational(get_growth(f_name), p, q, head_length(f_name, p, q) + q)
    assert (trace.sup_modulus, trace.sup_at) == (at_window.sup_modulus, at_window.sup_at)


def exact_sum(f_name: str, p: int, q: int, n: int, partial_sums: bool = False):
    """S(n) at the working precision: the head term by term, from f(n)! mod q stepped in
    integers, then the tail sum_{H < m <= n} e(m p/q) as one geometric series.  With
    partial_sums, the head's terms through n instead."""
    f, fact, arg, total, m = get_growth(f_name), 1, 0, mpmath.mpc(0), 1
    terms = []
    while m <= n:
        for k in range(arg + 1, f(m) + 1):
            fact = fact * k % q
        arg = f(m)
        if fact == 0:
            break
        terms.append(mpmath.expjpi(2 * mpmath.mpf((m + fact) * p % q) / q))
        total += terms[-1]
        m += 1
    if partial_sums:
        return terms
    if m <= n:
        x = mpmath.mpf(p) / q
        total += mpmath.expjpi(2 * m * x) * (mpmath.expjpi(2 * (n - m + 1) * x) - 1) / (
            mpmath.expjpi(2 * x) - 1)
    return total


SMOOTH_AND_PRIME = [2**70, 10**30, 3**40, 2**20 * 3**10 * 5**5 * 7**3, 1009, 1999, 4096, 1000]


@given(f_name=st.sampled_from(F_NAMES), q=st.sampled_from(SMOOTH_AND_PRIME),
       p_turn=st.floats(0, 1), n=st.one_of(st.integers(1, 3000), st.integers(1, 10**18)))
@settings(max_examples=120, deadline=None)
def test_values_within_the_stated_error(f_name, q, p_turn, n):
    p = min(q - 1, max(1, int(p_turn * q)))
    assume(math.gcd(p, q) == 1)
    sums = rational_sums(get_growth(f_name), p, q)
    with mpmath.workdps(60):
        want = exact_sum(f_name, p, q, n)
        assert abs(mpmath.mpc(sums.value(n)) - want) <= sums.error(n)


@given(f_name=st.sampled_from(F_NAMES), q=st.sampled_from(SMOOTH_AND_PRIME[:4]),
       p_turn=st.floats(0, 1), n=st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_sup_at_a_huge_denominator_is_a_max(f_name, q, p_turn, n):
    # No two moduli here are equal to 60 digits, so the first N of the max is the argmax.
    p = min(q - 1, max(1, int(p_turn * q)))
    assume(math.gcd(p, q) == 1)
    sums = rational_sums(get_growth(f_name), p, q)
    with mpmath.workdps(60):
        head = exact_sum(f_name, p, q, n, partial_sums=True)
        tail = [mpmath.expjpi(2 * mpmath.mpf(m * p % q) / q) for m in range(len(head) + 1, n + 1)]
        moduli = [abs(s) for s in itertools.accumulate(head + tail)]
    value, at = sums.sup(n)
    best = max(range(n), key=moduli.__getitem__)
    assert abs(value - moduli[best]) <= sums.error(n)
    assert at == best + 1 or abs(moduli[at - 1] - moduli[best]) < mpmath.mpf(10) ** -50


def test_sup_at_is_the_first_exact_maximum():
    # Terms 1 and 2 are e(2(1 + 1!)/3) = e(2(2 + 4!)/3) = e(1/3), so S_2 = 2 e(1/3); no later
    # |S_N| exceeds 2.  Kahan summation noise used to place the sup at N = 99998.
    trace = af_sum_rational(get_growth("n2"), 2, 3, 10**5)
    assert abs(trace.sup_modulus - 2.0) <= 1e-12
    assert trace.sup_at == 2


def test_integer_angle_rejected():
    with pytest.raises(ValueError):
        rational_sums(get_growth("n2"), 3, 3)


class TestScale:
    """Work past the head is bounded by counts and memory, whatever q and N."""

    def run(self, monkeypatch, argv, traced=True) -> tuple[int, int]:
        """(_first_in calls, traced peak bytes or 0) of one in-process invocation."""
        calls = []
        first_in = expsum._first_in

        def counted(*args):
            calls.append(args)
            return first_in(*args)
        monkeypatch.setattr(expsum, "_first_in", counted)
        if traced:
            tracemalloc.start()
        try:
            result = CliRunner().invoke(main, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        return len(calls), peak

    def stepped(self, monkeypatch) -> list[int]:
        """The head residues the next invocations step, in order."""
        out = []
        head = construction._head_residues

        def counted(*args):
            for r in head(*args):
                out.append(r)
                yield r
        monkeypatch.setattr(construction, "_head_residues", counted)
        return out

    def test_n2_at_a_prime_near_a_million_to_10_18(self, monkeypatch):
        stepped = self.stepped(monkeypatch)
        searches, _ = self.run(monkeypatch, ["sum", "--f", "n2", "--alpha", "1/1000003",
                                             "--N", str(10**18)], traced=False)
        # 55 schedule points past a head of 1000 terms (f(1000) = 10^6 < q <= f(1001)),
        # each at most two O(log q) searches, none where the first root beyond the spread is reached.
        assert len(stepped) == 1000
        assert searches <= 48

    def test_identity_at_a_prime_near_10_7_steps_only_the_terms_read(self, monkeypatch):
        stepped = self.stepped(monkeypatch)
        searches, peak = self.run(monkeypatch, ["sum", "--f", "identity", "--alpha", "1/9999991",
                                                "--N", "100"])
        assert len(stepped) == 100 and searches == 0
        assert peak <= 1_000_000  # an int64 array of length q would be 80 MB

    def test_qn_at_a_prime_near_10_9(self, monkeypatch):
        searches, peak = self.run(monkeypatch, ["qn-demo", "--q", "7", "--alpha", "1/1000000007",
                                                "--N", str(10**12)])
        # Every root is reached (K > b), so `_first_below` answers 0 without a search.
        assert searches <= 10
        assert peak <= 1_000_000


def phase_sum(f_name: str, p: int, q: int, n: int):
    """S(n) at the working precision from the exact phases r/q, r = (m + f(m)!) p mod q taken
    in (-q/2, q/2], so that a phase within 10^-400 of a whole turn keeps its digits."""
    f, fact, arg, total = get_growth(f_name), 1, 0, mpmath.mpc(0)
    for m in range(1, n + 1):
        for k in range(arg + 1, f(m) + 1) if fact else ():  # f(m)! mod q, until it is 0
            fact = fact * k % q
        arg = f(m)
        r = (m + fact) * p % q
        total += mpmath.expjpi(2 * mpmath.mpf(r - q * (2 * r > q)) / q)
    return total


class TestTinyAngles:
    """Angles whose 1/sin(pi alpha) is past the float range, or subnormal."""

    @pytest.mark.parametrize("alpha", ["1e-400", "0." + "9" * 400, "1e-310"],
                             ids=["1e-400", "400-nines", "1e-310"])
    def test_sum(self, alpha):
        start = time.perf_counter()
        result = CliRunner().invoke(main, ["sum", "--f", "n2", "--alpha", alpha, "--N", "1000"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0, result.output
        row = list(csv.DictReader(line for line in result.output.splitlines()
                                  if not line.startswith("#")))[-1]
        assert (row["N"], row["sup_at"]) == ("1000", "1000")
        p, q = Fraction(alpha).numerator, Fraction(alpha).denominator
        with mpmath.workdps(50):
            want = abs(phase_sum("n2", p, q, 1000))
        assert abs(float(row["modulus"]) - want) <= rational_sums(get_growth("n2"), p, q).error(1000)

    def test_qn_demo(self):
        # The terms e(2k 10^-400), k <= 500: the sup is |S(500)|, just under 500.
        start = time.perf_counter()
        result = CliRunner().invoke(main, ["qn-demo", "--q", "2", "--alpha", "1e-400", "--N", "1000"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0, result.output
        with mpmath.workdps(50):
            want = abs(mpmath.fsum(mpmath.expjpi(4 * k * mpmath.mpf(10) ** -400) for k in range(1, 501)))
        assert abs(json.loads(result.output)["empirical_sup"] - want) <= 1e-9

    @pytest.mark.parametrize("alpha", ["1e-400", "1e-320", "1e-308"])
    def test_bound_past_the_float_range_is_a_config_error(self, alpha):
        result = CliRunner().invoke(main, ["bound", "--alpha", alpha, "--N", "10"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "past the float range" in result.output


class TestExactTies:
    def test_roots_within_stated_error(self):
        with mpmath.workprec(120):
            for q in (2, 3, 7, 60, 997, 1000):
                roots = roots_at(np.arange(q) / q, 1)
                for k in range(q):
                    exact = mpmath.expjpi(mpmath.mpf(2 * k) / q)
                    assert abs(mpmath.mpc(complex(roots[k])) - exact) <= ROOT_ERROR

    def test_rounded_turns_within_stated_error(self):
        # Every root the engine forms is e(r/q) from the turn r/q rounded once, with q = 1.
        rng = np.random.default_rng(11)
        with mpmath.workprec(200):
            for q in (10**10 + 19, 2**64 + 13, 10**40 + 3):
                residues = [int(rng.integers(0, 2**62)) * q // 2**62 for _ in range(200)]
                roots = roots_at(np.array([r / q for r in residues]), 1)
                for r, root in zip(residues, roots):
                    exact = mpmath.expjpi(mpmath.mpf(2 * r) / q)
                    assert abs(mpmath.mpc(complex(root)) - exact) <= ROOT_ERROR

    @given(q=st.integers(1, 400), counts=st.dictionaries(st.integers(0, 10**6),
                                                         st.integers(1, 300), min_size=1))
    @settings(max_examples=200, deadline=None)
    def test_autocorrelation_is_the_correlate_oracle(self, q, counts):
        # Dense counts take the Kronecker product, sparse ones the pairs.
        dense = np.zeros(q, np.int64)
        for k, c in counts.items():
            dense[k % q] += c
        folded = {int(k): int(dense[k]) for k in np.flatnonzero(dense)}
        assert _autocorrelation(folded, q) == as_poly(correlate_square(dense))

    def test_kronecker_at_a_long_head(self):
        rng = np.random.default_rng(3)
        q = 10007
        dense = rng.integers(0, 40, q)
        counts = {int(k): int(dense[k]) for k in np.flatnonzero(dense)}
        assert _autocorrelation(counts, q) == as_poly(correlate_square(dense))

    def test_counts_too_wide_for_a_4_byte_slot_take_the_pairs(self):
        # max c * sum c = 70000 * 200 * 70000 is past 2^32: the pairs, not a packed product.
        dense = np.full(200, 70000, np.int64)
        dense[::7] = 1
        counts = {k: int(c) for k, c in enumerate(dense)}
        assert _autocorrelation(counts, 200) == as_poly(correlate_square(dense))

    @pytest.mark.parametrize("q", [2, 5, 12, 30, 4099])
    def test_square_is_the_exact_squared_modulus(self, q):
        # |S_n|^2 |e(1/q) - 1|^2, with |e(1/q) - 1|^2 = 2 - x - 1/x, for a short period and a
        # long one (q = 4099), in the head of 40 terms and past it, where term m is e(m/q).
        rng = np.random.default_rng(q)
        residues = [int(r) for r in rng.integers(0, q, 40)]
        terms = residues + [m % q for m in range(41, 41 + q)]
        sums = GeometricTail(1, q, iter(residues))
        sums.value(40 + q)  # the head stepped through
        scale = [0] * q
        for d, c in ((0, 2), (1, -1), (q - 1, -1)):
            scale[d] += c
        for i in (0, 7, 39, 40, 41, 40 + q // 2, 39 + q):
            if i < 40:
                want = [0] * q  # the double sum over pairs of terms
                for k in terms[: i + 1]:
                    for m in terms[: i + 1]:
                        want[(k - m) % q] += 1
            else:
                want = correlate_square(np.bincount(terms[: i + 1], minlength=q)).tolist()
            want = poly_product_sparse(want, scale, q)
            assert sums._square(i + 1) == as_poly(np.array(want))

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
                assert vanishes_at_root(as_poly(np.array(coeffs)), q) == want

    def test_sign_of_a_tiny_nonzero_value(self):
        # (e(1/7) + e(-1/7) - 1)^25 = (2 cos(2 pi/7) - 1)^25 ~ 6.6e-16, while its
        # coefficients reach ~1e11: no float evaluation can give the sign.
        q = 7
        base = [-1, 1, 0, 0, 0, 0, 1]
        power = [1, 0, 0, 0, 0, 0, 0]
        for _ in range(25):
            power = poly_product(power, base, q)
        assert not vanishes_at_root(as_poly(np.array(power)), q)
        assert sign_at_root(as_poly(np.array(power)), q) == 1
        assert sign_at_root(as_poly(-np.array(power)), q) == -1

    def test_sup_breaks_ties_by_first_index(self):
        # e(0), e(1/2), e(0), e(1/2), ...: |S| is 1, 0, 1, 0, ... exactly.
        assert GeometricTail(1, 2, iter([0, 1, 0, 1, 0])).sup(5) == (1.0, 1)
        # e(1/3), e(1/3), e(2/3), e(2/3): moduli 1, 2, sqrt 3, 2.
        value, at = GeometricTail(1, 3, iter([1, 1, 2, 2])).sup(4)
        assert at == 2 and math.isclose(value, 2.0)

    def test_sup_compares_each_candidate_with_the_best_so_far(self, monkeypatch):
        # A widened error makes every index a candidate, so the exact comparisons alone
        # must find the first of the tied maxima 2 = |S_2| = |S_4|; past the head the
        # terms e(n/3) make |S_5..S_7| = sqrt 7, sqrt 3, 2, and the max moves to 5.
        sums = GeometricTail(1, 3, iter([1, 1, 2, 2]))
        monkeypatch.setattr(sums, "error", lambda n: 1.0)
        value, at = sums.sup(4)
        assert at == 2 and math.isclose(value, 2.0)
        value, at = sums.sup(7)
        assert at == 5 and math.isclose(value, math.sqrt(7))

    @pytest.mark.parametrize("p, n", [(1, 4139), (3, 2000), (5, 700), (2049, 4139), (1000, 3000)])
    def test_sup_past_a_long_head_compares_candidates_exactly(self, monkeypatch, p, n):
        # A widened error makes the reached roots on both sides of the target candidates past
        # the head of 40 terms, with head terms among them for p near q/2 and p = 1000, so
        # the tail's squares decide; against a 50-digit argmax.
        q = 4099
        residues = [int(r) for r in np.random.default_rng(q).integers(0, q, 40)]
        sums = GeometricTail(p, q, iter(residues))
        monkeypatch.setattr(sums, "error", lambda n: 1.0)
        value, at = sums.sup(n)
        assert not sums._short and sums._u is not None
        with mpmath.workdps(50):
            terms = [mpmath.expjpi(mpmath.mpf(2 * r) / q) for r in residues]
            terms += [mpmath.expjpi(mpmath.mpf(2 * (m * p % q)) / q) for m in range(41, n + 1)]
            moduli = [abs(s) for s in itertools.accumulate(terms)]
        top = max(moduli)
        assert at == 1 + next(i for i in range(n) if top - moduli[i] < mpmath.mpf(10) ** -45)
        assert abs(value - top) <= 1e-9

    @given(a=st.integers(0, 300), b=st.integers(0, 300), m=st.integers(1, 300),
           count=st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_first_below_is_the_first_index(self, a, b, m, count):
        # The least i with (a i + b) mod m < count, by brute force over one period of i.
        count = min(count, m)
        want = next((i for i in range(m) if (a * i + b) % m < count), None)
        assert _first_below(a % m, b % m, m, count) == want


def poly_product_sparse(a: list[int], b: list[int], q: int) -> list[int]:
    out = [0] * q
    for i in np.flatnonzero(a):
        for j in np.flatnonzero(b):
            out[(i + j) % q] += a[i] * b[j]
    return out


def poly_product(a: list[int], b: list[int], q: int) -> list[int]:
    out = [0] * q
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % q] += x * y
    return out


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
    def test_matches_exact_sums(self, q, b, a_frac, n_max):
        a = max(1, min(b - 1, int(a_frac * b)))
        got = qn_counterexample_sup(q, Fraction(a, b), n_max)
        assert abs(got - exact_qn_sup(q, a, b, n_max)) <= 1e-9

    def test_large_denominator_reads_only_the_terms_it_needs(self):
        # b = 10^10: the sup over 1000 terms must not build anything of size b.
        a = Fraction("0.1234567891")
        assert a.denominator == 10**10
        got = qn_counterexample_sup(3, a, 3000)
        assert abs(got - exact_qn_sup(3, a.numerator, a.denominator, 3000)) <= 1e-9

    def test_full_period_at_a_huge_prime(self):
        # K = 10^12 // 7 > b: every root is reached, and the max of
        # |sin(pi k 7/b) / sin(pi 7/b)| is at 7k = (b +- 1)/2 mod b.
        b = 1000000007
        with mpmath.workdps(40):
            want = mpmath.cos(mpmath.pi / (2 * b)) / mpmath.sin(7 * mpmath.pi / b)
        got = qn_counterexample_sup(7, Fraction(1, b), 10**12)
        assert abs(got - want) <= 1e-15 * want

    def test_resonance_is_exact(self):
        assert qn_counterexample_sup(7, Fraction(3, 7), 10**15) == 10**15 // 7
