"""The factorial-shifted sets A(f) = {n + f(n)!} and digit-capped sets E(f,a).

Two sum paths are provided.  The rational path reduces every phase
exactly with modular arithmetic (f(n)! mod q vanishes once f(n) >= q,
so only finitely many factorial residues are ever needed and f(n)! is
never materialized); past them the partial sums are periodic, so every
N costs the same head plus one period (`RationalProfile`).  The
factoradic path evaluates {f(n)! alpha} from the digit prefix and
carries a rigorous accumulated phase-error bound.

Sums here are indexed by n (term n is e((n + f(n)!) alpha)); an
element-threshold wrapper converts to the sum over elements <= X via
monotonicity of n + f(n)!.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lgamma
from typing import Callable, Iterator

import numpy as np

from .expsum import Angle, AngleLike, RootSums, SumTrace, dirichlet_bound, e
from .factoradic import (
    FactoradicReal,
    InsufficientDepthError,
    Tail,
    Trit,
    decode,
    frac_factorial,
)

DEFAULT_BIT_BUDGET = 10**7

# Rational upper bound for Euler's e, for rigorous inequality checks.
E_UPPER = Fraction(271828182846, 10**11)


class ResourceBudgetError(RuntimeError):
    """Raised when a computation would exceed the big-integer bit budget."""


@dataclass(frozen=True)
class GrowthFunction:
    """Strictly increasing f: N -> N with f(n) >= 1, from a named registry."""

    name: str
    fn: Callable[[int], int]

    def __call__(self, n: int) -> int:
        return self.fn(n)

    def check_monotone(self, n_max: int) -> None:
        prev = self(1)
        if prev < 1:
            raise ValueError(f"{self.name}: f(1) = {prev} < 1")
        for n in range(2, n_max + 1):
            cur = self(n)
            if cur <= prev:
                raise ValueError(f"{self.name}: not strictly increasing at n={n}")
            prev = cur


@dataclass(frozen=True)
class WeightSequence:
    """Positive integer weights a_n with a declared finite sum of reciprocals."""

    name: str
    fn: Callable[[int], int]
    reciprocal_limit_bound: float  # declared upper bound for sum 1/a_n

    def __call__(self, n: int) -> int:
        return self.fn(n)

    def partial_sum_reciprocals(self, n_max: int) -> Fraction:
        return sum((Fraction(1, self(n)) for n in range(1, n_max + 1)), Fraction(0))


GROWTH_REGISTRY: dict[str, GrowthFunction] = {
    "identity": GrowthFunction("identity", lambda n: n),
    "n2": GrowthFunction("n2", lambda n: n * n),
    "n3": GrowthFunction("n3", lambda n: n * n * n),
    "pow2": GrowthFunction("pow2", lambda n: 2**n),
}

WEIGHT_REGISTRY: dict[str, WeightSequence] = {
    "n2": WeightSequence("n2", lambda n: n * n, math.pi**2 / 6),
    "pow2": WeightSequence("pow2", lambda n: 2**n, 1.0),
    "nfact": WeightSequence("nfact", factorial, math.e - 1.0),
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

    Digits are integers, so the cap is floor((f(i)+1)/a_i); unconstrained
    positions allow the full range 0..m-1.
    """

    def __init__(self, f: GrowthFunction, a: WeightSequence):
        self.f = f
        self.a = a
        self._caps: dict[int, int] = {}  # position -> cap
        self._scanned_to = 0  # largest i folded into _caps

    def _scan(self, position: int) -> None:
        i = self._scanned_to
        while True:
            i += 1
            m = self.f(i) + 1
            if m > position:
                break
            self._caps[m] = (self.f(i) + 1) // self.a(i)
            self._scanned_to = i

    def cap_for_position(self, m: int) -> int | None:
        """Cap at position m, or None when m is unconstrained."""
        self._scan(m)
        return self._caps.get(m)

    def allowed_digit_count(self, m: int) -> int:
        """Number of allowed digits at position m >= 2 (the 0 digit always is)."""
        cap = self.cap_for_position(m)
        if cap is None:
            return m
        return min(m - 1, cap) + 1

    def constrained_positions(self, up_to: int) -> list[int]:
        self._scan(up_to)
        return sorted(p for p in self._caps if p <= up_to)


def membership(constraints: DigitConstraintSet, alpha: FactoradicReal) -> Trit:
    """Is alpha in E(f,a)?  Decided from the known digits only.

    A ZERO tail settles the question (later digits are 0, always allowed);
    an UNKNOWN tail can only certify violation.
    """
    for m in range(2, alpha.depth + 1):
        cap = constraints.cap_for_position(m)
        if cap is not None and alpha.digit(m) > cap:
            return Trit.NO
    if alpha.tail is Tail.ZERO:
        return Trit.YES
    return Trit.UNKNOWN


def sample_e_set(
    constraints: DigitConstraintSet,
    depth: int,
    seed: int,
    zero_entropy: bool = False,
) -> FactoradicReal:
    """Deterministically sample a depth-truncated member of E(f,a).

    Digits are uniform over the allowed range at each position, tail ZERO
    (a rational representative of its cylinder, so membership is `in`).
    The all-zero draw is alpha = 0, outside (0,1), and is resampled;
    zero_entropy forces unconstrained digits to 0 (test hook for the
    degenerate-case policy).
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    rng = random.Random(seed)
    while True:
        digits = []
        for m in range(2, depth + 1):
            cap = constraints.cap_for_position(m)
            if cap is None:
                digits.append(0 if zero_entropy else rng.randint(0, m - 1))
            else:
                digits.append(rng.randint(0, min(m - 1, cap)))
        if any(digits):
            return FactoradicReal(tuple(digits), Tail.ZERO)
        if zero_entropy:
            # All caps zero and no entropy: resampling cannot escape alpha = 0.
            raise ValueError("zero-entropy sample is the excluded boundary point alpha = 0")


def _check_bit_budget(f: GrowthFunction, n: int, bit_budget: int) -> None:
    v = f(n)
    bits = lgamma(v + 1) / math.log(2)
    if bits > bit_budget:
        raise ResourceBudgetError(
            f"f({n})! needs about {bits:.3g} bits, over the budget of {bit_budget}"
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


def af_elements(f: GrowthFunction, n_max: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> list[int]:
    """Exact elements n + f(n)! for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_bit_budget(f, n_max, bit_budget)
    return [n + fact for n, fact in zip(range(1, n_max + 1), _factorials(f))]


def index_for_element_bound(f: GrowthFunction, x: int) -> int:
    """Largest n with n + f(n)! <= x (0 if none); n + f(n)! is strictly increasing."""
    for n, fact in enumerate(_factorials(f)):
        if n + 1 + fact > x:
            return n


def _head_residues(f: GrowthFunction, q: int) -> list[int]:
    """f(n)! mod q for n = 1..H, the n before the first f(n)! = 0 mod q.

    H < q because f(n) >= n, so q | f(q)!.
    """
    return list(itertools.takewhile(bool, _factorials(f, q)))


def factorial_residues(f: GrowthFunction, q: int, n_max: int) -> list[int]:
    """f(n)! mod q for n = 1..n_max.

    Once f(n) >= q the residue is 0 and stays 0 (f is increasing), so the
    costly part touches only the finitely many n with f(n) < q.
    """
    head = _head_residues(f, q)[:n_max]
    return head + [0] * (n_max - len(head))


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
        head = _head_residues(f, q)
        self.head = len(head)
        self.q = q
        n = np.arange(1, self.head + q + 1, dtype=np.int64)
        shift = np.array(head + [0] * q, dtype=np.int64)
        self.sums = RootSums((n + shift) * (p % q) % q, q)

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


@functools.lru_cache(maxsize=8)
def rational_profile(f: GrowthFunction, p: int, q: int) -> RationalProfile:
    """The RationalProfile of (f, p, q), kept for the next few calls.

    A verb asks for one angle at many N (the `sum` schedule) or twice in a
    row (`sup-sweep`'s sum and bound), and each call reads the same profile.
    The `sum` and `sup-sweep` verbs clear the cache when they start, so no
    profile outlives the invocation that built it.
    """
    return RationalProfile(f, p, q)


def af_sum_rational(f: GrowthFunction, p: int, q: int, n_terms: int) -> tuple[complex, SumTrace]:
    """sum_{n<=N} e((n + f(n)!) p/q) and its prefix-sup trace, in O(q) for any N.

    Read from the (f, p, q) RationalProfile: the sum is S(window(N)), the
    sup the max over the first min(N, H + q) partial sums, and sup_at the
    first index at which the exact sup is reached.  Float error: the sum,
    its modulus and the sup are each within the profile's
    sums.error = (H + q + 1)(32u + 2u sup) of exact (u = 2^-53) whatever N,
    which is below 1e-9 for q <= 1000.  trace.count is N.
    """
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    profile = rational_profile(f, p, q)
    total = profile.value(n_terms)
    sup, sup_at = profile.sup(n_terms)
    return total, SumTrace(total.real, total.imag, n_terms, sup, sup_at)


def af_sum_factoradic(
    f: GrowthFunction, alpha: FactoradicReal, n_terms: int
) -> tuple[complex, float]:
    """sum_{n<=N} e((n + f(n)!) alpha) from the digit prefix.

    Each phase is {n alpha} + {f(n)! alpha}, both exact rationals from
    the digits; the returned phase_error bounds |computed - true sum| as
    2*pi times the accumulated interval widths (0 for a ZERO tail).
    """
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    needed = f(n_terms) + 1
    if alpha.tail is Tail.UNKNOWN and alpha.depth <= needed:
        raise InsufficientDepthError(
            f"N={n_terms} needs digits through position {needed}, have depth {alpha.depth}",
            required_depth=needed + 1,
        )
    lower, upper = decode(alpha)
    depth_fact = factorial(alpha.depth)
    total = complex(0.0)
    err = Fraction(0)
    for n in range(1, n_terms + 1):
        n_phase = n * lower
        n_phase -= int(n_phase)
        m_phase, m_err = frac_factorial(f(n), alpha)
        phase = n_phase + m_phase
        total += e(float(phase - int(phase)))
        if alpha.tail is Tail.UNKNOWN:
            err += Fraction(n, depth_fact) + m_err
    return total, 2.0 * math.pi * float(err)


def bound_series_sum(f: GrowthFunction, a: WeightSequence, n_terms: int) -> Fraction:
    """Exact sum_{n<=N} (1/a_n + e/(f(n)+1)) with e its rational upper bound."""
    acc = Fraction(0)
    for n in range(1, n_terms + 1):
        acc += Fraction(1, a(n)) + E_UPPER / (f(n) + 1)
    return acc


def bound_theoretical(
    f: GrowthFunction, a: WeightSequence, alpha: AngleLike, n_terms: int
) -> float:
    """(2/|e(alpha)-1|) * (1 + 4 pi sum_{n<=N} (1/a_n + e/(f(n)+1)))."""
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    series = bound_series_sum(f, a, n_terms)
    return dirichlet_bound(alpha) * (1.0 + 4.0 * math.pi * float(series))


def eq4_rhs(f: GrowthFunction, p: int, q: int) -> float:
    """Right side of the rational-case boundedness estimate:

    |sum_{n<q} e((n + f(n)!) p/q)| + 2 * dirichlet_bound(p/q) + 1.

    The head sum comes from af_sum_rational, within its stated error
    (the profile's sums.error); the rest adds a few ulps.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    alpha = Angle(Fraction(p, q))
    head_sum, _ = af_sum_rational(f, p, q, q - 1)
    return abs(head_sum) + 2.0 * dirichlet_bound(alpha) + 1.0
