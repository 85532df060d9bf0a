"""The factorial-shifted sets A(f) = {n + f(n)!} and digit-capped sets E(f,a).

Two sum paths are provided.  The rational path reduces every phase
exactly with modular arithmetic (f(n)! mod q vanishes once f(n) >= q,
so only finitely many factorial residues are ever needed and f(n)! is
never materialized); past them the partial sums are periodic, so every
N costs the same head plus one period (`RationalProfile`).  The
factoradic path steps each phase as an integer mod depth! from the digit
prefix and carries a rigorous bound on the error from the digits it does
not know (`phase_error`); the float rounding of the phases and of the
running sum is not in that bound.

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

import numpy as np

from .expsum import RootSums, SumTrace, dirichlet_bound, e
from .factoradic import (
    FactoradicReal,
    InsufficientDepthError,
    Tail,
    Trit,
    frac_factorial,
)

# Most bits an exact element n + f(n)! may need (`construct`, af_elements).
BIT_BUDGET = 10**7
# Largest denominator a RationalProfile accepts.  Building one peaks at
# about 44 bytes a term over its H + q < 2q terms (the residue, root, sum
# and modulus arrays), so q = 10^7 takes up to 0.9 GB, and for
# f = identity at a prime q the head alone is q - 1 Python steps.
RATIONAL_MAX_Q = 10**7
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


def _factorials(f: GrowthFunction, q: int = 0) -> Iterator[int]:
    """f(1)!, f(2)!, ..., each reduced mod q when q is given; never ends.

    Incremental products: step n multiplies in f(n-1)+1 .. f(n).  Each
    consumer stops the stream itself.
    """
    fact = 1
    arg = 0
    for n in itertools.count(1):
        v = f(n)
        for k in range(arg + 1, v + 1):
            fact = fact * k % q if q else fact * k
        arg = v
        yield fact


def af_elements(f: GrowthFunction, n_max: int) -> list[int]:
    """Exact elements n + f(n)! for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    check_bit_budget(f, n_max)
    return [n + fact for n, fact in zip(range(1, n_max + 1), _factorials(f))]


def _head_residues(f: GrowthFunction, q: int) -> np.ndarray:
    """f(n)! mod q for n = 1..H, the n before the first f(n)! = 0 mod q.

    H < q because f(n) >= n, so q | f(q)!.
    """
    return np.fromiter(itertools.takewhile(bool, _factorials(f, q)), dtype=np.int64)


@functools.lru_cache(maxsize=1)
def profile(kind: type, *key):
    """kind(*key), kept in one slot until another profile is read.

    A verb reads one profile at many N (the `sum` and `bound` schedules),
    several times in a row (`sup-sweep`) or once per interval at each depth
    (`mass-check`), so one slot holds every hit; `cli.verb` empties it when
    the verb ends.
    """
    return kind(*key)


class RationalProfile:
    """S(N) = sum_{n<=N} e((n + f(n)!) p/q) for every N, from H + q terms.

    The head n <= H has f(n)! != 0 mod q (H < q); past it term n is
    e(n p/q), and any q consecutive such terms sum to 0 (q does not divide
    p), so S(N) = S(N - kq) for N > H + q.  `window(N)` is the index
    <= H + q with the same partial sum, and every value, sup and first sup
    index is read from the H + q partial sums in `sums`.
    """

    def __init__(self, f: GrowthFunction, p: int, q: int):
        if q < 2:
            raise ValueError("q must be >= 2")
        if p % q == 0:
            raise ValueError(f"p/q = {p}/{q} is an integer")
        if q > RATIONAL_MAX_Q:  # before the head, which alone may take q - 1 steps
            raise ResourceBudgetError(
                f"a profile at denominator q = {q} holds up to 2q terms, over the limit of "
                f"q <= {RATIONAL_MAX_Q} (construction.RATIONAL_MAX_Q)"
            )
        head = _head_residues(f, q)
        self.head = len(head)
        self.q = q
        residues = np.arange(1, self.head + q + 1, dtype=np.int64)
        residues[:self.head] += head
        residues *= p % q
        residues %= q
        self.sums = RootSums(residues, q)

    def window(self, n: int) -> int:
        if n <= len(self.sums):
            return n
        return self.head + (n - self.head - 1) % self.q + 1

    def value(self, n: int) -> complex:
        return complex(self.sums.sums[self.window(n) - 1])

    def sup(self, n: int) -> tuple[float, int]:
        """(sup of |S(m)| over m <= n, the first m attaining it exactly)."""
        return self.sums.sup(min(n, len(self.sums)))

    def tail_sup(self, n_max: int) -> float:
        """max |S(N)| over q - 1 <= N <= n_max (0.0 if none): where eq4_rhs applies.

        N = H + q + j repeats window H + j, so N past H + q adds windows
        H + 1 .. H + min(q, n_max - H - q).
        """
        lo = self.q - 1
        if n_max < lo:
            return 0.0
        moduli = self.sums.moduli
        top = moduli[lo - 1:min(n_max, len(moduli))].max()
        if n_max > len(moduli):
            top = max(top, moduli[self.head:self.head + min(self.q, n_max - len(moduli))].max())
        return float(top)


def af_sum_rational(f: GrowthFunction, p: int, q: int, n_terms: int) -> SumTrace:
    """sum_{n<=N} e((n + f(n)!) p/q) as its prefix-sup trace, in O(q) for any N.

    Read from the (f, p, q) RationalProfile: the sum is S(window(N)), the
    sup the max over the first min(N, H + q) partial sums, and sup_at the
    first index at which the exact sup is reached.  Float error: the sum,
    its modulus and the sup are each within the profile's
    sums.error = (H + q + 1)(32u + 2u sup) of exact (u = 2^-53) whatever N,
    which is below 1e-9 for q <= 1000.  trace.count is N.
    """
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    rational = profile(RationalProfile, f, p, q)
    total = rational.value(n_terms)
    sup, sup_at = rational.sup(n_terms)
    return SumTrace(total.real, total.imag, n_terms, sup, sup_at)


class FactoradicProfile:
    """S(N) = sum_{n<=N} e((n + f(n)!) alpha) for every N, alpha given by its digits.

    Term n has phase r/D, D = depth!, r = (n X + f(n)! X) mod D, X/D the
    prefix (alpha.numerator), rounded once.  n X steps by X; f(n)! X mod D
    by the block product perm(v, v - v_prev), v = min(f(n), depth), from
    term 1's frac_factorial, so no factor past depth is formed.  An UNKNOWN
    tail (f(N) + 1 < depth) keeps f(n)! exact from the same blocks.  The
    partial sums grow on demand.
    """

    def __init__(self, f: GrowthFunction, alpha: FactoradicReal):
        self.f = f
        self.alpha = alpha
        self.depth_fact = factorial(alpha.depth)
        self.sums = [complex(0.0)]  # S(0), S(1), ...
        self.fact_sums = [0]
        self._state = None  # (v, G, n X, f(n)!) of the last n

    def value(self, n_terms: int) -> tuple[complex, float]:
        """(S(N), 2 pi (N(N+1)/2 + sum_{n<=N} f(n)!)/depth!, 0 for a ZERO tail)."""
        depth, d = self.alpha.depth, self.depth_fact
        unknown = self.alpha.tail is Tail.UNKNOWN
        needed = self.f(n_terms) + 1
        if unknown and depth <= needed:
            raise InsufficientDepthError(
                f"N={n_terms} needs digits through position {needed}, have depth {depth}")
        if self._state is None:  # term 1: its block is perm(v, 0) = 1
            m = self.f(1)
            g = int(frac_factorial(m, self.alpha)[0] * d)
            self._state = (min(m, depth), g, 0, factorial(m) if unknown else 0)
        v_prev, g, nx, fact = self._state
        x, sums, fact_sums = self.alpha.numerator, self.sums, self.fact_sums
        for n in range(len(sums), n_terms + 1):
            v = min(self.f(n), depth)
            block = perm(v, v - v_prev)
            g = g * block % d
            nx = (nx + x) % d
            sums.append(sums[-1] + e((nx + g) % d / d))
            if unknown:
                fact *= block
                fact_sums.append(fact_sums[-1] + fact)
            v_prev = v
        self._state = (v_prev, g, nx, fact)
        if not unknown:
            return sums[n_terms], 0.0
        budget = n_terms * (n_terms + 1) // 2 + fact_sums[n_terms]
        return sums[n_terms], 2.0 * math.pi * (budget / d)


def af_sum_factoradic(
    f: GrowthFunction, alpha: FactoradicReal, n_terms: int
) -> tuple[complex, float]:
    """sum_{n<=N} e((n + f(n)!) alpha) from the digit prefix.

    Each phase is {n alpha} + {f(n)! alpha}, exact from the digits and
    summed as one integer mod depth! (FactoradicProfile).  phase_error
    bounds only the error from the digits past the prefix: 0 for a ZERO
    tail; for an UNKNOWN one 2 pi (N(N+1)/2 + sum_{n<=N} f(n)!)/depth!, as
    alpha is within 1/depth! of the prefix and {k alpha} moves by at most
    k/depth!.  The float rounding of each phase, of e() and of the running
    sum is not in it, and no bound on it is stated yet (ROADMAP.md, item 3).
    """
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    return profile(FactoradicProfile, f, alpha).value(n_terms)


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
    ascending run of N.
    """
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    series = profile(BoundProfile, f, a).value(n_terms)
    return dirichlet_bound(alpha) * (1.0 + 4.0 * math.pi * series)


def eq4_rhs(f: GrowthFunction, p: int, q: int) -> float:
    """Right side of the rational-case boundedness estimate:

    |sum_{n<q} e((n + f(n)!) p/q)| + 2 * dirichlet_bound(p/q) + 1.

    The head sum is S(q - 1) of the (f, p, q) RationalProfile, the value
    af_sum_rational(f, p, q, q - 1) returns, within the profile's
    sums.error; the rest adds a few ulps.
    """
    head_sum = profile(RationalProfile, f, p, q).value(q - 1)
    return abs(head_sum) + 2.0 * dirichlet_bound(Fraction(p, q)) + 1.0
