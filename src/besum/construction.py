"""The factorial-shifted sets A(f) = {n + f(n)!} and digit-capped sets E(f,a).

Every exact angle p/q is summed one way, on an `expsum.GeometricTail`: its
head steps f(n)! p mod q (`_factorials`), never forming f(n)!, until
f(n)! p = 0 mod q, by f(n) = S(q), the least m with q | m!; past it term n
is e(n p/q), a geometric series in closed form, so every N costs the head
read so far plus O(log q).  A rational angle (`rational_sums`) has S(q) at
most RATIONAL_MAX_HEAD; a digit angle (`digit_sums`) is its prefix
X/depth!, and an UNKNOWN tail adds a bound on the error from the digits it
does not know (`phase_error`).  Float errors are the engine's `error`.

Sums here are indexed by n (term n is e((n + f(n)!) alpha)).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lgamma, perm
from typing import Callable, Iterator

from .expsum import GeometricTail, SumTrace, dirichlet_bound, prime_powers
from .factoradic import (
    FactoradicReal,
    InsufficientDepthError,
    Tail,
    Trit,
    frac_factorial,
)

# Most bits an exact element n + f(n)! may need (`construct`, af_elements).
BIT_BUDGET = 10**7
# Largest S(q), the least m with q | m!, a rational angle p/q may have.
# Its head steps m! mod q up to S(q), one modular product per m: 6.1 s for
# identity at 1/9999991 (shared 2-vCPU x86), and about 100 bytes per head
# term read.  A long period past it costs O(log q) per read, whatever N.
RATIONAL_MAX_HEAD = 10**7
# Deepest sample sample_e_set draws: its digit-count table and its digits
# are Python lists of that length.
SAMPLE_MAX_DEPTH = 10**6

# Rational upper bound for Euler's e, for rigorous inequality checks.
E_UPPER = Fraction(271828182846, 10**11)


class ResourceBudgetError(RuntimeError):
    """Raised when a computation would exceed a resource budget: big-integer bits or input length."""


@dataclass(frozen=True)
class GrowthFunction:
    """Strictly increasing f: N -> N with f(n) >= 1, from a named registry."""

    name: str
    fn: Callable[[int], int]

    def __call__(self, n: int) -> int:
        return self.fn(n)


@dataclass(frozen=True)
class WeightSequence:
    """Positive integer weights a_n with a finite sum of reciprocals."""

    name: str
    fn: Callable[[int], int]

    def __call__(self, n: int) -> int:
        return self.fn(n)


class _RunningFactorial:
    """n!, formed from the last factorial it returned.

    Every reader of the weights asks for n in increasing order
    (BoundProfile, DigitConstraintSet._scan, the leaves of
    _reciprocal_sum), so a pass to N takes N small multiplications
    instead of N factorials.  A lower n is formed again from scratch.
    """

    def __init__(self):
        self.n, self.value = 0, 1

    def __call__(self, n: int) -> int:
        if n < self.n:
            self.value = factorial(n)
        else:
            self.value *= perm(n, n - self.n)  # n!/self.n!
        self.n = n
        return self.value


GROWTH_REGISTRY: dict[str, GrowthFunction] = {
    "identity": GrowthFunction("identity", lambda n: n),
    "n2": GrowthFunction("n2", lambda n: n * n),
    "n3": GrowthFunction("n3", lambda n: n * n * n),
    "pow2": GrowthFunction("pow2", lambda n: 2**n),
}

WEIGHT_REGISTRY: dict[str, WeightSequence] = {
    "n2": WeightSequence("n2", lambda n: n * n),
    "pow2": WeightSequence("pow2", lambda n: 2**n),
    "nfact": WeightSequence("nfact", _RunningFactorial()),
}


def get_growth(name: str) -> GrowthFunction:
    try:
        return GROWTH_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown growth function {name!r}; known: {sorted(GROWTH_REGISTRY)}")


def get_weights(name: str) -> WeightSequence:
    try:
        return WEIGHT_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown weight sequence {name!r}; known: {sorted(WEIGHT_REGISTRY)}")


class DigitConstraintSet:
    """E(f,a): factoradic digit at position f(i)+1 is capped at (f(i)+1)/a_i.

    Digits are integers, so the cap is floor((f(i)+1)/a_i).  Every reader
    of which digits E(f,a) allows goes through `allowed_digit_counts`.
    """

    def __init__(self, f: GrowthFunction, a: WeightSequence):
        self.f = f
        self.a = a
        self._caps: dict[int, int] = {}  # position -> cap, positions increasing
        self._scanned_to = 0  # largest i folded into _caps

    def _scan(self, position: int) -> None:
        i = self._scanned_to
        while True:
            i += 1
            m = self.f(i) + 1
            if m > position:
                break
            self._caps[m] = m // self.a(i)
            self._scanned_to = i

    def cap_for_position(self, m: int) -> int | None:
        """Cap at position m, or None when m is unconstrained."""
        self._scan(m)
        return self._caps.get(m)

    def allowed_digit_counts(self, depth: int) -> list[int]:
        """Allowed digit counts at positions 2..depth: m at an unconstrained
        position m, min(m - 1, cap) + 1 at a capped one."""
        counts = list(range(2, depth + 1))
        for m in self.constrained_positions(depth):
            counts[m - 2] = min(m - 1, self.cap_for_position(m)) + 1
        return counts

    def constrained_positions(self, up_to: int) -> list[int]:
        self._scan(up_to)
        return [p for p in self._caps if p <= up_to]  # increasing, as inserted


def membership(constraints: DigitConstraintSet, alpha: FactoradicReal) -> Trit:
    """Is alpha in E(f,a)?  Decided from the known digits only.

    NO when a stored digit is over its allowed count; otherwise a ZERO
    tail settles the question (later digits are 0, always allowed) and an
    UNKNOWN tail leaves it open.
    """
    counts = constraints.allowed_digit_counts(alpha.depth)
    if any(s >= c for s, c in zip(alpha.digits, counts)):
        return Trit.NO
    return Trit.YES if alpha.tail is Tail.ZERO else Trit.UNKNOWN


def sample_e_set(constraints: DigitConstraintSet, depth: int, seed: int) -> FactoradicReal:
    """Deterministically sample a depth-truncated member of E(f,a).

    Each digit is uniform over its allowed range, tail ZERO (a rational
    representative of its cylinder, so membership is `in`).  The all-zero
    draw is alpha = 0, outside (0,1), and is resampled; when every digit
    through depth is capped at 0 it is the only draw, a ValueError.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if depth > SAMPLE_MAX_DEPTH:  # before the digit-count table
        raise ResourceBudgetError(f"depth {depth} is over the limit of {SAMPLE_MAX_DEPTH} "
                                  "(construction.SAMPLE_MAX_DEPTH)")
    counts = constraints.allowed_digit_counts(depth)
    if max(counts) == 1:
        raise ValueError(f"every digit through depth {depth} is capped at 0, so the only "
                         "sample is alpha = 0, outside (0,1)")
    rng = random.Random(seed)
    while True:
        digits = tuple(map(rng.randrange, counts))
        if any(digits):
            return FactoradicReal(digits, Tail.ZERO)


def check_bit_budget(f: GrowthFunction, n: int) -> None:
    """Raise ResourceBudgetError when f(n)! needs more than BIT_BUDGET bits."""
    v = f(n)
    try:
        bits = lgamma(v + 1) / math.log(2)
    except OverflowError:  # f(n) beyond the float range
        bits = math.inf
    if bits > BIT_BUDGET:
        raise ResourceBudgetError(
            f"f({n})! needs about {bits:.3g} bits, over the budget of {BIT_BUDGET} "
            "(construction.BIT_BUDGET)"
        )


def _factorials(f: GrowthFunction, q: int = 0, x: int = 1) -> Iterator[int]:
    """x f(1)!, x f(2)!, ..., each reduced mod q when q is given.

    Step n multiplies in f(n-1)+1 .. f(n): as one perm block unless, mod q,
    the block may pass q's bits, when it goes one factor at a time.  The
    stream ends before the first 0, which stays 0; mod q and for x = 1 that
    is by f(n) = S(q), the least m with q | m!.
    """
    fact, arg, bits = x, 0, q.bit_length()
    for n in itertools.count(1):
        v = f(n)
        if q and (v - arg) * v.bit_length() > bits:
            for k in range(arg + 1, v + 1):
                fact = fact * k % q
                if not fact:
                    return
        else:
            fact = fact * perm(v, v - arg) % q if q else fact * perm(v, v - arg)
        if not fact:
            return
        arg = v
        yield fact


def af_elements(f: GrowthFunction, n_max: int) -> list[int]:
    """Exact elements n + f(n)! for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    check_bit_budget(f, n_max)
    return [n + fact for n, fact in zip(range(1, n_max + 1), _factorials(f))]


@functools.lru_cache(maxsize=64)
def _kempner(q: int, bound: int) -> int:
    """S(q), the least m with q | m!, if it is at most bound, else a number over bound.

    S(q) is the largest S(r^k) over the prime powers r^k of q.  Trial
    division stops at bound: a cofactor with no prime factor up to it has
    only larger ones, and S(r^k) >= r.  Cached, since a sweep reads each q
    once per numerator.
    """
    powers, s = prime_powers(q, bound)
    for d, k in powers.items():
        lo, hi = 1, d * k  # S(d^k): the least m with d^k | m!, by bisection
        while lo < hi:
            mid, power, t = (lo + hi) // 2, 0, (lo + hi) // 2
            while t:
                t //= d
                power += t  # the exponent of d in mid!, after Legendre
            lo, hi = (lo, mid) if power >= k else (mid + 1, hi)
        s = max(s, lo)
    return s


def _head_residues(f: GrowthFunction, p: int, q: int) -> Iterator[int]:
    """(n + f(n)!) p mod q for the n before the first with f(n)! p = 0 mod q."""
    return ((n * p + fact) % q for n, fact in enumerate(_factorials(f, q, p), 1))


@functools.lru_cache(maxsize=1)
def profile(kind: type, *key):
    """kind(*key), kept in one slot until another profile is read.

    A verb reads one profile at many N (the `sum` and `bound` schedules),
    several times in a row (`sup-sweep`) or once per interval at each depth
    (`mass-check`), so one slot holds every hit; `cli.verb` empties it when
    the verb ends.
    """
    return kind(*key)


def rational_sums(f: GrowthFunction, p: int, q: int) -> GeometricTail:
    """S(N) = sum_{n<=N} e((n + f(n)!) p/q) for every N: the GeometricTail of A(f) at p/q.

    The head is n <= H = max{n : f(n) < S(q)}; it is stepped only as far
    as a read asks.  S(q) is checked against RATIONAL_MAX_HEAD first, before
    any stepping.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if p % q == 0:
        raise ValueError(f"p/q = {p}/{q} is an integer")
    s = _kempner(q, RATIONAL_MAX_HEAD)
    if s > RATIONAL_MAX_HEAD:
        raise ResourceBudgetError(
            f"the denominator q = {q} has S(q), the least m with q | m!, over the limit of "
            f"{RATIONAL_MAX_HEAD} (construction.RATIONAL_MAX_HEAD)")
    return GeometricTail(p, q, _head_residues(f, p % q, q))


def af_sum_rational(f: GrowthFunction, p: int, q: int, n_terms: int) -> SumTrace:
    """sum_{n<=N} e((n + f(n)!) p/q) as its prefix-sup trace, for any N.

    Read from the (f, p, q) rational_sums: the sum is S(N), the sup the max
    of |S(m)| over m <= N, and sup_at the first m at which the exact sup is
    reached.  The cost is the head read so far plus, for a long period
    (q past expsum.SHORT_PERIOD = 3000), two O(log q) searches; a short
    one is summed through H + q once.  The sum, its modulus and the sup are
    each within the engine's error(N) of exact, below 1e-9 for q <= 1000.
    trace.count is N.
    """
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    sums = profile(rational_sums, f, p, q)
    total = sums.value(n_terms)
    sup, sup_at = sums.sup(n_terms)
    return SumTrace(total.real, total.imag, n_terms, sup, sup_at)


def digit_sums(f: GrowthFunction, alpha: FactoradicReal) -> GeometricTail:
    """S(N) = sum_{n<=N} e((n + f(n)!) X/D) for every N, X/D alpha's prefix (D = depth!,
    X not 0, not reduced): the GeometricTail of A(f) there, whose head ends by f(n) = depth."""
    x, d = alpha.numerator, factorial(alpha.depth)
    return GeometricTail(x, d, _head_residues(f, x, d))


def af_sum_factoradic(
    f: GrowthFunction, alpha: FactoradicReal, n_terms: int
) -> tuple[complex, float]:
    """(sum_{n<=N} e((n + f(n)!) alpha) from the digit prefix, phase_error).

    The sum is S(N) of the (f, alpha) digit_sums, within its error(N), for
    the head stepped so far plus O(1); an all-zero prefix gives N.
    phase_error bounds the error from the digits past the prefix: 0 for a
    ZERO tail, else 2 pi (N(N+1)/2 + sum_{n<=N} f(n)!)/depth!, as alpha is
    within 1/depth! of the prefix and {k alpha} moves by at most k/depth!;
    its factor f(N)!/depth! is frac_factorial(f(N), alpha)'s error bound.
    """
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    phase_error = 0.0
    if alpha.tail is Tail.UNKNOWN:
        if alpha.depth <= f(n_terms) + 1:
            raise InsufficientDepthError(f"N={n_terms} needs digits through position "
                                         f"{f(n_terms) + 1}, have depth {alpha.depth}")
        facts = list(itertools.islice(_factorials(f), n_terms))
        budget = (n_terms * (n_terms + 1) // 2 + sum(facts)) * frac_factorial(f(n_terms), alpha)[1]
        phase_error = 2.0 * math.pi * (budget.numerator / (budget.denominator * facts[-1]))
    if not alpha.numerator:
        return complex(n_terms), phase_error
    return profile(digit_sums, f, alpha).value(n_terms), phase_error


def _reciprocal_sum(b: Callable[[int], int], lo: int, hi: int) -> tuple[int, int]:
    """(P, Q) with P/Q = sum_{lo<=n<hi} 1/b(n), by binary splitting.

    Q is the lcm of the b(n), built up node by node (a gcd per merge);
    P/Q is not reduced.  A plain product would grow quadratically for
    weights such as n! (prod_{n<=N} n!), where the lcm is N!.
    """
    if hi <= lo:
        return 0, 1
    if hi - lo == 1:
        return 1, b(lo)
    mid = (lo + hi) // 2
    p1, q1 = _reciprocal_sum(b, lo, mid)
    p2, q2 = _reciprocal_sum(b, mid, hi)
    g = math.gcd(q1, q2)
    q1, q2 = q1 // g, q2 // g
    return p1 * q2 + p2 * q1, q1 * q2 * g


def _bound_series(f: GrowthFunction, a: WeightSequence, n_terms: int) -> tuple[int, int]:
    """(P, Q), unreduced, with P/Q = sum_{n<=N} (1/a_n + E_UPPER/(f(n)+1))."""
    p1, q1 = _reciprocal_sum(a, 1, n_terms + 1)
    p2, q2 = _reciprocal_sum(lambda n: f(n) + 1, 1, n_terms + 1)
    e_num, e_den = E_UPPER.numerator, E_UPPER.denominator
    return p1 * q2 * e_den + e_num * p2 * q1, q1 * q2 * e_den


# Fractional bits of BoundProfile's fixed-point pass.
BOUND_GUARD_BITS = 128


class BoundProfile:
    """sum_{n<=N} (1/a_n + e/(f(n)+1)), correctly rounded to a float, for every N.

    One fixed-point pass with K = BOUND_GUARD_BITS fractional bits keeps
    two running sums, s_a = sum_{m<=n} floor(2^K/a_m) and
    s_f = sum_{m<=n} floor(2^K/(f(m)+1)), and the last n.  Each floor drops
    less than one unit, so with e = e_num/e_den (E_UPPER) the series times
    den = e_den 2^K lies in [lo, lo + (e_den + e_num) n), lo = e_den s_a +
    e_num s_f.  Rounding is monotone: when lo/den and hi/den (correctly
    rounded int divisions) are the same float, that float is the correctly
    rounded series; otherwise the exact _bound_series decides.  The pass
    extends on demand, and a read below the last n starts again from 1.
    """

    def __init__(self, f: GrowthFunction, a: WeightSequence):
        self.f = f
        self.a = a
        self.n = 0
        self.sum_a = self.sum_f = 0

    def value(self, n_terms: int) -> float:
        if n_terms < self.n:
            self.n = self.sum_a = self.sum_f = 0
        one = 1 << BOUND_GUARD_BITS
        f, a, sum_a, sum_f = self.f, self.a, self.sum_a, self.sum_f
        for m in range(self.n + 1, n_terms + 1):
            sum_a += one // a(m)
            sum_f += one // (f(m) + 1)
        self.n, self.sum_a, self.sum_f = n_terms, sum_a, sum_f
        e_num, e_den = E_UPPER.numerator, E_UPPER.denominator
        lo = e_den * sum_a + e_num * sum_f
        den = e_den << BOUND_GUARD_BITS
        value = lo / den
        if value == (lo + (e_den + e_num) * n_terms) / den:
            return value
        num, den = _bound_series(f, a, n_terms)
        return num / den


def bound_theoretical(
    f: GrowthFunction, a: WeightSequence, alpha: Fraction, n_terms: int
) -> float:
    """(2/|e(alpha)-1|) * (1 + 4 pi sum_{n<=N} (1/a_n + e/(f(n)+1))).

    The series is its exact value correctly rounded, read from the (f, a)
    BoundProfile: a fixed-point pass with K = BOUND_GUARD_BITS = 128
    fractional bits brackets it in an interval N (1 + e) 2^-K wide, whose
    float is taken when both ends round to it; otherwise the exact
    _bound_series is rounded.  O(N) small divisions per (f, a) and
    ascending run of N.  A bound past the float range is a ValueError.
    """
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    series = profile(BoundProfile, f, a).value(n_terms)
    bound = dirichlet_bound(alpha) * (1.0 + 4.0 * math.pi * series)
    if bound == math.inf:
        raise ValueError(f"angle {alpha}: the bound at N = {n_terms} is past the float range")
    return bound


def eq4_rhs(f: GrowthFunction, p: int, q: int) -> float:
    """Right side of the rational-case boundedness estimate:

    |sum_{n<q} e((n + f(n)!) p/q)| + 2 * dirichlet_bound(p/q) + 1.

    The head sum is S(q - 1) of the (f, p, q) rational_sums, the value
    af_sum_rational(f, p, q, q - 1) returns, within its error(q - 1); the
    rest adds a few ulps.
    """
    head_sum = profile(rational_sums, f, p, q).value(q - 1)
    return abs(head_sum) + 2.0 * dirichlet_bound(Fraction(p, q)) + 1.0
