"""Partial exponential sums, running supremum traces, and classical bounds.

Angles are measured in turns: e(t) = exp(2*pi*i*t), and an angle alpha
in (0,1) is a Fraction.  `RootSums` holds the partial sums of a finite
run of q-th roots of unity e(r/q) together with their integer residues
r: rational angles reduce to such runs, because their sums are periodic
(see `construction.RationalProfile`).  Its values carry a stated error
bound, and it settles near-equal moduli exactly, so the reported first
index of a supremum does not depend on rounding.  `SumTrace` is the
record a sum is reported in.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi
UNIT_ROUNDOFF = 2.0**-53
# Bound on |fl(e(r/q)) - e(r/q)| for roots_at: the angle 2*pi*r/q
# takes three roundings (at most 6*pi*u; as many for a rounded turn r/q
# passed with q = 1), and cos and sin one ulp each;
# measured at most 14.4u for q <= 200 and q = 997, 1000.
ROOT_ERROR = 32 * UNIT_ROUNDOFF
# Terms per numpy batch in qn_counterexample_sup.
_QN_CHUNK = 1 << 16


def e(t: float) -> complex:
    """exp(2 pi i t) for t in turns."""
    return cmath.exp(complex(0.0, TWO_PI * t))


@dataclass
class SumTrace:
    """Running exponential-sum state with prefix-supremum tracking.

    The sup is over all prefixes consumed so far, with the first
    attaining index recorded; the current modulus may be smaller.
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


def dirichlet_bound(alpha: Fraction) -> float:
    """2/|e(alpha)-1| = 1/sin(pi*alpha), the geometric-series bound."""
    if not (0 < alpha < 1):
        raise ValueError(f"angle {alpha} outside (0,1)")
    return 1.0 / math.sin(math.pi * float(alpha))


def qn_counterexample_sup(q: int, alpha: Fraction, n_max: int) -> float:
    """sup_{N <= n_max} |S_{ {qn} }(alpha, N)|.

    Bounded (geometric series) when q*alpha is not an integer; grows like
    N/q when alpha = p/q, since every term is then e(0) = 1.  For
    alpha = a/b the terms e(k * qa/b) repeat with period b/gcd(qa mod b, b)
    and a full period sums to 0, so the sup is exactly n_max // q at
    resonance and otherwise the max over the first period, each of its K
    partial sums within (K + 1)(ROOT_ERROR + 2u sup) of exact as in RootSums.
    The terms are summed _QN_CHUNK at a time, so memory does not grow with
    the period or with b.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if not (0 < alpha < 1):
        raise ValueError(f"angle {alpha} outside (0,1)")
    terms = n_max // q
    a, b = alpha.numerator, alpha.denominator
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

