"""Partial exponential sums, running supremum traces, and classical bounds.

Angles are measured in turns: e(t) = exp(2*pi*i*t).  Callers are
responsible for reducing n*alpha mod 1 exactly before terms reach the
accumulator; reduction is where precision dies for huge n, and only
construction-aware callers can do it exactly.

Two accumulators.  `SumTrace` adds arbitrary unit terms one at a time in
float64 with Kahan compensation (sums over finite sets, digit-file
angles).  `RootSums` holds the partial sums of a finite run of q-th roots
of unity e(r/q) together with their integer residues r: rational angles
reduce to such runs, because their sums are periodic (see
`construction.RationalProfile`).  Its values carry a stated error bound,
and it settles near-equal moduli exactly, so the reported first index of
a supremum does not depend on rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .factoradic import FactoradicReal, Tail, decode

TWO_PI = 2.0 * math.pi
UNIT_ROUNDOFF = 2.0**-53
# Bound on |fl(e(r/q)) - e(r/q)| for roots_at: the angle 2*pi*r/q
# takes three roundings (at most 6*pi*u; as many for a rounded turn r/q
# passed with q = 1), and cos and sin one ulp each;
# measured at most 14.4u for q <= 200 and q = 997, 1000.
ROOT_ERROR = 32 * UNIT_ROUNDOFF
# Terms per numpy batch in qn_counterexample_sup.
_QN_CHUNK = 1 << 16

AngleLike = Union[Fraction, FactoradicReal, "Angle"]


def e(t: float) -> complex:
    """exp(2 pi i t) for t in turns."""
    return cmath.exp(complex(0.0, TWO_PI * t))


class Angle:
    """An angle alpha in (0,1), held exactly as a rational or a factoradic value.

    Keeps a float64 rendering for term evaluation; the exact carrier is
    used whenever a caller needs n*alpha reduced mod 1 without error.
    """

    def __init__(self, value: AngleLike):
        if isinstance(value, Angle):
            value = value.exact
        if isinstance(value, FactoradicReal):
            lower, upper = decode(value)
            if upper <= 0 or lower >= 1 or (lower == 0 and value.tail is Tail.ZERO):
                raise ValueError("angle must lie in (0,1)")
            self.exact = value
            self._float = float(lower)
            self.rational = lower if value.tail is Tail.ZERO else None
        else:
            value = Fraction(value)
            if not (0 < value < 1):
                raise ValueError(f"angle {value} outside (0,1)")
            self.exact = value
            self._float = float(value)
            self.rational = value

    def __float__(self) -> float:
        return self._float

    def times_mod1(self, n: int) -> Fraction:
        """n*alpha reduced mod 1, exactly (rational angles only)."""
        if self.rational is None:
            raise ValueError("exact reduction needs a rational angle")
        p, q = self.rational.numerator, self.rational.denominator
        return Fraction(n * p % q, q)

    def phase(self, n: int) -> float:
        """n*alpha mod 1 in turns: reduced exactly for a rational angle, by fmod otherwise."""
        if self.rational is not None:
            return float(self.times_mod1(n))
        return math.fmod(n * self._float, 1.0)

    def complement(self) -> "Angle":
        """1 - alpha (rational angles only)."""
        if self.rational is None:
            raise ValueError("complement needs a rational angle")
        return Angle(1 - self.rational)

    def __repr__(self) -> str:
        return f"Angle({self.exact!r})"


@dataclass
class SumTrace:
    """Running exponential-sum state with prefix-supremum tracking.

    The sup is over all prefixes consumed so far, with the first
    attaining index recorded; the current modulus may be smaller.
    A single trace must not be advanced from two workers at once.
    """

    re: float = 0.0
    im: float = 0.0
    count: int = 0
    sup_modulus: float = 0.0
    sup_at: int = 0
    _re_c: float = field(default=0.0, repr=False)  # Kahan carries
    _im_c: float = field(default=0.0, repr=False)

    @property
    def partial_sum(self) -> complex:
        return complex(self.re, self.im)

    @property
    def modulus(self) -> float:
        return abs(self.partial_sum)

    def add_unit(self, z: complex) -> None:
        """Accumulate one unit-modulus term (Kahan-compensated)."""
        y = z.real + self._re_c
        t = self.re + y
        self._re_c = y - (t - self.re)
        self.re = t
        y = z.imag + self._im_c
        t = self.im + y
        self._im_c = y - (t - self.im)
        self.im = t
        self.count += 1
        m = math.hypot(self.re, self.im)
        if m > self.sup_modulus:
            self.sup_modulus = m
            self.sup_at = self.count

    def add_turns(self, t: float | Fraction) -> None:
        self.add_unit(e(float(t)))


def roots_at(residues: np.ndarray, q: int) -> np.ndarray:
    """e(r/q) for each residue r, each within ROOT_ERROR of the exact value.

    Only the residues given are evaluated, so the cost is their number,
    not q.
    """
    return np.exp(2j * np.pi * residues / q)


def _prime_factors(q: int) -> list[int]:
    out, d = [], 2
    while d * d <= q:
        if q % d == 0:
            out.append(d)
            while q % d == 0:
                q //= d
        d += 1
    return out + [q] if q > 1 else out


def vanishes_at_root(coeffs: np.ndarray, q: int) -> bool:
    """Is sum_d coeffs[d] e(d/q) = 0?  Exact, in integers.

    The sum is 0 iff the cyclotomic polynomial Phi_q divides
    P(x) = sum_d coeffs[d] x^d.  M(x) = prod over primes r | q of
    (x^(q/r) - 1) is divisible by every Phi_d with d | q, d < q, and not by
    Phi_q, so Phi_q | P iff x^q - 1 divides P*M; multiplying by
    x^s - 1 modulo x^q - 1 is a rotation minus the identity.
    """
    v = np.asarray(coeffs, dtype=np.int64)
    for r in _prime_factors(q):
        v = np.roll(v, q // r) - v
    return not v.any()


def sign_at_root(coeffs: np.ndarray, q: int) -> int:
    """Sign of sum_d coeffs[d] cos(2 pi d/q), known to be nonzero.

    Interval arithmetic at doubling precision until the enclosure excludes
    0; this terminates because the sum is not 0.  mpmath is imported here
    because only near-ties that floats cannot order reach this function.
    """
    from mpmath import iv

    saved, prec = iv.prec, 128
    try:
        while True:
            iv.prec = prec
            total = iv.mpf(0)
            for d in np.flatnonzero(coeffs):
                total += int(coeffs[d]) * iv.cos(2 * iv.pi * int(d) / q)
            if total.a > 0:
                return 1
            if total.b < 0:
                return -1
            prec *= 2
    finally:
        iv.prec = saved


class RootSums:
    """Partial sums S_n = sum_{m<=n} e(r_m/q), n = 1..len(r) >= 1, of q-th roots of unity.

    `sums[n-1]` and `moduli[n-1]` are float64 values of S_n and |S_n|, each
    within `error` of exact: every step adds a root (ROOT_ERROR) and one
    rounding of a sum no larger than the largest modulus, and |.| rounds
    once more.  The integer residues are kept, so `sup` can settle moduli
    that floats cannot tell apart exactly.
    """

    def __init__(self, residues: np.ndarray, q: int):
        self.q = q
        self.residues = np.asarray(residues, dtype=np.int64)
        self.sums = np.cumsum(roots_at(self.residues, q))
        self.moduli = np.abs(self.sums)
        self._running_max = np.maximum.accumulate(self.moduli)
        top = float(self._running_max[-1])
        self.error = (len(self.residues) + 1) * (ROOT_ERROR + 2 * UNIT_ROUNDOFF * top)
        self._sups: dict[int, tuple[float, int]] = {}

    def __len__(self) -> int:
        return len(self.residues)

    def sup(self, n: int) -> tuple[float, int]:
        """(max of |S_m| over m <= n, the first m at which the exact max is reached).

        Every m whose float modulus is within twice `error` of the float
        max is a candidate; candidates are compared exactly with the best so
        far, in order, each new one at O(q^2) cost (the autocorrelation in
        `_square`).
        """
        if n not in self._sups:
            near = np.flatnonzero(self.moduli[:n] >= self._running_max[n - 1] - 2 * self.error)
            best = int(near[0])
            best_square = self._square(best) if len(near) > 1 else None
            for m in near[1:]:
                square = self._square(int(m))
                if self._sign(square - best_square, self.moduli[m] - self.moduli[best]) > 0:
                    best, best_square = int(m), square
            self._sups[n] = (float(self.moduli[best]), best + 1)
        return self._sups[n]

    def _sign(self, diff: np.ndarray, gap: float) -> int:
        """Sign of the real number sum_d diff[d] e(d/q), exactly; gap is its float estimate."""
        if vanishes_at_root(diff, self.q):
            return 0
        if abs(gap) > 2 * self.error:
            return 1 if gap > 0 else -1
        return sign_at_root(diff, self.q)

    def _square(self, i: int) -> np.ndarray:
        """|S_{i+1}|^2 as integer coefficients of e(d/q), d = 0..q-1.

        With c_k the number of terms with residue k, |S|^2 = sum_{k,l}
        c_k c_l e((k-l)/q): the coefficient of e(d/q) is the cyclic
        autocorrelation sum_l c_{l+d} c_l.
        """
        q = self.q
        c = np.bincount(self.residues[: i + 1], minlength=q)
        full = np.correlate(c, c, "full")
        square = full[q - 1:].copy()
        square[1:] += full[: q - 1]
        return square


def stream_sum(terms: Iterable[float | Fraction], trace: SumTrace | None = None) -> SumTrace:
    """Advance a trace by the given terms (angles in turns, already reduced mod 1)."""
    if trace is None:
        trace = SumTrace()
    for t in terms:
        trace.add_turns(t)
    return trace


def dirichlet_bound(alpha: AngleLike) -> float:
    """2/|e(alpha)-1| = 1/sin(pi*alpha), the geometric-series bound."""
    a = float(Angle(alpha))
    return 1.0 / math.sin(math.pi * a)


def full_interval_sum(alpha: AngleLike, n_terms: int) -> complex:
    """sum_{n<=N} e(n*alpha) by the closed form (e((N+1)a) - e(a)) / (e(a) - 1)."""
    angle = Angle(alpha)
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    top = e(angle.phase(n_terms + 1)) - e(angle.phase(1))
    return top / (e(float(angle)) - 1.0)


def sum_over_set(elements: Iterable[int], alpha: AngleLike, n_max: int) -> SumTrace:
    """S_A(alpha, N): sum of e(n*alpha) over elements n <= n_max, with sup trace."""
    angle = Angle(alpha)
    trace = SumTrace()
    for n in elements:
        if n <= n_max:
            trace.add_turns(angle.phase(n))
    return trace


def symmetry_check(elements: Iterable[int], alpha: AngleLike, n_max: int) -> tuple[complex, complex]:
    """(conj S_A(alpha,N), S_A(1-alpha,N)); the two agree for any finite A."""
    angle = Angle(alpha)
    elems = [n for n in elements if n <= n_max]
    lhs = sum_over_set(elems, angle, n_max).partial_sum.conjugate()
    rhs = sum_over_set(elems, angle.complement(), n_max).partial_sum
    return lhs, rhs


def qn_counterexample_sup(q: int, alpha: AngleLike, n_max: int) -> float:
    """sup_{N <= n_max} |S_{ {qn} }(alpha, N)|.

    Bounded (geometric series) when q*alpha is not an integer; grows like
    N/q when alpha = p/q, since every term is then e(0) = 1.  For rational
    alpha = a/b the terms e(k * qa/b) repeat with period b/gcd(qa mod b, b)
    and a full period sums to 0, so the sup is exactly n_max // q at
    resonance and otherwise the max over the first period, each of its K
    partial sums within (K + 1)(ROOT_ERROR + 2u sup) of exact as in RootSums.
    The terms are summed _QN_CHUNK at a time, so memory does not grow with
    the period or with b.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    angle = Angle(alpha)
    terms = n_max // q
    if angle.rational is None:
        return sum_over_set(range(q, terms * q + 1, q), angle, n_max).sup_modulus
    a, b = angle.rational.numerator, angle.rational.denominator
    step = q * a % b
    if step == 0 or terms < 1:
        return float(max(terms, 0))
    count = min(terms, b // math.gcd(step, b))
    best, total = 0.0, 0j
    for start in range(1, count + 1, _QN_CHUNK):
        stop = min(start + _QN_CHUNK, count + 1)
        if b * stop < 2**63:
            roots = roots_at(np.arange(start, stop, dtype=np.int64) * step % b, b)
        else:
            # Past int64, each turn is a correctly rounded Python int division.
            roots = roots_at(np.array([k * step % b / b for k in range(start, stop)]), 1)
        # Carrying the total in as the first addend keeps the summation order
        # of one cumsum over the whole period.
        sums = np.cumsum(np.concatenate(([total], roots)))[1:]
        best = max(best, float(np.abs(sums).max()))
        total = sums[-1]
    return best


def csv_row(alpha: Angle, trace: SumTrace) -> dict:
    """One result row for the CSV interface."""
    row = {
        "N": trace.count,
        "re": trace.re,
        "im": trace.im,
        "modulus": trace.modulus,
        "empirical_sup": trace.sup_modulus,
        "sup_at": trace.sup_at,
    }
    if alpha.rational is not None:
        row["alpha_num"] = alpha.rational.numerator
        row["alpha_den"] = alpha.rational.denominator
    return row
