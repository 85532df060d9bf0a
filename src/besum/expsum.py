"""Partial exponential sums, running supremum traces, and classical bounds.

Angles are measured in turns: e(t) = exp(2*pi*i*t), and an angle alpha
in (0,1) is a Fraction.  `GeometricTail` holds S(N) = sum_{n<=N} e(r_n/q)
for every N when r_n = n p mod q past a head of H terms: the head is
stepped only as far as a read asks, and past it S(N) is a geometric
series in closed form, so a value or a sup costs O(log q) more whatever
N.  Rational and digit angles over A(f) (`construction.rational_sums`,
`construction.digit_sums`) and the {qn} demo are such sums.  Values
carry a stated error bound, and moduli that floats cannot tell apart are
ordered exactly, so the reported first index of a supremum does not
depend on rounding.  `SumTrace` is the record a sum is reported in.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

TWO_PI = 2.0 * math.pi
UNIT_ROUNDOFF = 2.0**-53
# Bound on |fl(e(r/q)) - e(r/q)| for roots_at and e(): the angle 2*pi*r/q
# takes three roundings (at most 6*pi*u; as many for a rounded turn r/q
# passed with q = 1), and cos and sin one ulp each; measured at most 14.4u
# for q <= 200 and q = 997, 1000.
ROOT_ERROR = 32 * UNIT_ROUNDOFF
# Largest q whose period GeometricTail sums term by term past the head.
# Timed both ways in-process for n2, identity and pow2 at q = 997 .. 100003
# (a sum read at N = 10^6, and a sup-sweep read at N = 10^4 with eq4_rhs
# and tail_sup): at q = 997 the cumsum took 0.66-0.95 of the closed form's
# time, from q = 4001 on 1.03-1.39x up to q = 10007 and 1.1-9x at 100003,
# and from q = 2003 to 3001 the two were within 14 % either way.  With the
# closed form forced at every q, the rational-sums bench (seed 1, q <= 1000)
# ran 18.2k and 17.8k ops in 25 s of CPU against 29.3k and 30.7k, and an
# in-process n2 `sum` op (N 4-5 * 10^4) took a median 0.88 ms against 0.62 ms
# (2-vCPU shared VM): the fork stays while no workload has q past it.
SHORT_PERIOD = 3000


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


def _sin_pi(a: int, m: int, sinpi=None) -> float:
    """sin(pi a/m) for integers a and m > 0, within 4u of exact relative to its size
    while that is a normal float, or sinpi(b, m) at the folded angle b/m when given.

    a is reduced exactly into [0, m/2] first, so the one rounded argument
    pi fl(a/m) is at most pi/2, where sin's relative condition is at most 1.
    """
    a %= 2 * m
    sign = 1.0
    if a >= m:
        a, sign = a - m, -1.0
    return sign * (sinpi(min(a, m - a), m) if sinpi else math.sin(math.pi * (min(a, m - a) / m)))


def _first_in(a: int, m: int, lo: int, hi: int) -> int | None:
    """The least x >= 0 with lo <= a x mod m <= hi (0 <= lo <= hi < m, 0 <= a < m), or None.

    If a x steps over [lo, hi] without a wrap past m, x is set by the least
    number y >= 1 of wraps that puts a multiple of a in [lo + m y, hi + m y]:
    the same question for m y mod a, so the recursion is Euclid's, O(log m) deep.
    """
    if lo == 0:
        return 0
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    y = _first_in(m % a, a, a - hi % a, a - lo % a)
    return None if y is None else -(-(lo + m * y) // a)


def _first_below(a: int, b: int, m: int, count: int) -> int | None:
    """The least i >= 0 with (a i + b) mod m < count (0 <= a, b < m, 0 < count <= m), or None."""
    return 0 if b < count else _first_in(a, m, m - b, m - b + count - 1)


def prime_powers(q: int, bound: int) -> tuple[dict[int, int], int]:
    """({r: k} over the prime powers r^k of q with r <= bound, the rest of q).

    The rest is 1 or a prime once the search passes its square root, else a
    number with no prime factor up to bound.  Trial divisors d are tested a
    block at a time in numpy, q mod d by Horner's rule over 16-bit limbs
    (below 2^63 while d < 2^47), so Python steps only the d that divide.
    The first block ends at 1024 and each later one is as long as all
    before it, up to 2^18 divisors, so a q whose small factors use it up is
    not tested against a long block.
    """
    powers, rest, start = {}, q, 2
    while start * start <= rest and start <= bound:
        block = np.arange(start, min(max(2 * start, 2**10), start + 2**18, math.isqrt(rest) + 1, bound + 1))
        mod = np.zeros_like(block)
        for shift in range(rest.bit_length() // 16 * 16, -1, -16):
            mod = ((mod << 16) + (rest >> shift & 0xFFFF)) % block
        for d in block[mod == 0].tolist():
            while rest % d == 0:
                rest //= d
                powers[d] = powers.get(d, 0) + 1
        start += len(block)
    return powers, rest


@functools.lru_cache(maxsize=16)
def _prime_factors(q: int) -> list[int]:
    powers, rest = prime_powers(q, q)
    return list(powers) + ([rest] if rest > 1 else [])


# Integer polynomials in x = e(1/q), reduced mod x^q - 1, as {exponent: nonzero coefficient}.

def _combine(q: int, *terms: tuple[int, dict, int]) -> dict:
    """sum of weight * x^shift * poly over the (weight, poly, shift) terms."""
    out = {}
    for weight, poly, shift in terms:
        for d, c in poly.items():
            d = (d + shift) % q
            out[d] = out.get(d, 0) + weight * c
    return {d: c for d, c in out.items() if c}


def _conj(poly: dict, q: int) -> dict:
    return {-d % q: c for d, c in poly.items()}


def _autocorrelation(counts: dict, q: int) -> dict:
    """|sum_k c_k x^k|^2 for counts c_k >= 0: coefficient d is sum_l c_{l+d} c_l.

    Dense counts (q at most the squared support, and over 100 pairs) are
    packed into one int with a slot per residue, wide enough for any
    coefficient (max c * sum c < 2^32), and multiplied by the packed
    reverse (Kronecker substitution): the slots of the product are the
    linear correlation, folded cyclically.  Sparse counts, and counts whose
    coefficients need wider slots, take the pairs.
    """
    width = next((w for w in (1, 2, 4) if max(counts.values()) * sum(counts.values()) < 256**w), 0)
    if not width or len(counts) ** 2 < max(q, 100):
        return _combine(q, *((c, counts, -k) for k, c in counts.items()))
    c = np.zeros(q, f"<u{width}")
    c[list(counts)] = list(counts.values())
    packed = int.from_bytes(c.tobytes(), "little") * int.from_bytes(c[::-1].tobytes(), "little")
    full = np.frombuffer(packed.to_bytes((2 * q - 1) * width, "little"), c.dtype)[::-1]
    square = full[q - 1:].astype(np.int64)
    square[1:] += full[:q - 1]
    nonzero = np.flatnonzero(square)
    return dict(zip(nonzero.tolist(), square[nonzero].tolist()))


def vanishes_at_root(coeffs: dict, q: int) -> bool:
    """Is sum_d coeffs[d] e(d/q) = 0?  Exact, in integers.

    The sum is 0 iff the cyclotomic polynomial Phi_q divides
    P(x) = sum_d coeffs[d] x^d.  M(x) = prod over primes r | q of
    (x^(q/r) - 1) is divisible by every Phi_d with d | q, d < q, and not by
    Phi_q, so Phi_q | P iff x^q - 1 divides P*M; multiplying by
    x^s - 1 modulo x^q - 1 is a rotation minus the identity.
    """
    for r in _prime_factors(q):
        coeffs = _combine(q, (1, coeffs, q // r), (-1, coeffs, 0))
    return not coeffs


def sign_at_root(coeffs: dict, q: int) -> int:
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
            for d, c in coeffs.items():
                total += c * iv.cos(2 * iv.pi * d / q)
            if total.a > 0:
                return 1
            if total.b < 0:
                return -1
            prec *= 2
    finally:
        iv.prec = saved


class GeometricTail:
    """S(N) = sum_{n<=N} e(r_n/q) for every N, where r_n = n p mod q past a head of H terms.

    `head` yields r_1, r_2, ... and stops after r_H; it is read only as far
    as a read of S asks, and its partial sums are one running cumsum of
    rounded roots.  Past the head S(N + q) = S(N), since q does not divide
    p.  A short period (q <= SHORT_PERIOD) is summed on the same way
    through H + q, so every read is an array lookup.  A long one is read
    in closed form: with x = p/q and K = N - H,

        S(N) = S(H) + e((2H + K + 1) x/2) sin(pi K x)/sin(pi x),

    which is C + B e(N x) with B = e(x)/(e(x) - 1) and C = S(H) - B e(H x),
    written so that one root and two sines of exactly reduced angles are
    rounded.  The largest |C + B e(N x)| is at the root e(N x) nearest to
    arg C - arg B.  Over N0 .. N0 + K - 1 (K <= q) the roots reached are
    j = N p mod q, each once: root j first at N0 + (j - N0 p) p^-1 mod q,
    when that index is below K.  So every root near enough to tie is one
    modular product, and the nearest reached root beyond them on each side
    one `_first_below` over the indices, O(log q).  `value` and `error` hold
    for p/q not reduced (digit angles); `sup` and `max_modulus` take it reduced.
    """

    def __init__(self, p: int, q: int, head: Iterator[int]):
        self.p, self.q = p % q, q
        self._head = head
        self.head: int | None = None  # H, once the head has ended
        self._residues: list[int] = []
        self._sums = self._moduli = self._tops = np.zeros(0)
        self._sin = _sin_pi(self.p, q)
        self._short = q <= SHORT_PERIOD
        self._u = self._constant = self._target = None
        self._sups: dict[int, tuple[float, int]] = {}

    def _step(self, n: int) -> None:
        """Step the head through min(n, H) terms, or through twice those it has if more,
        so that reads at rising N extend it O(log H) times, and with a short period
        through at least q terms, which for A(f) (H < q) is the whole head.  The q
        terms past a short period's head are summed on, so the arrays hold
        S(1..H + q)."""
        have, q = len(self._residues), self.q
        if self.head is not None or n <= have:
            return
        want = min(max(n, 2 * have, q * self._short) - have, sys.maxsize)  # a head ends long before
        new = list(itertools.islice(self._head, want))
        self._residues += new
        if len(new) < want:
            self.head = have + len(new)
        if q >> 63:  # past int64, each turn r/q rounded once (ROOT_ERROR holds for it too)
            roots = roots_at(np.array([r / q for r in new]), 1)
        elif self.head is not None and self._short:  # and the q terms past the head
            past = np.arange(self.head + 1, self.head + q + 1) * self.p % q
            roots = roots_at(np.concatenate((np.array(new, dtype=np.int64), past)), q)
        else:
            roots = roots_at(np.array(new, dtype=np.int64), q)
        if not len(roots):
            return
        if not have:
            self._sums = np.cumsum(roots)
            self._moduli = np.abs(self._sums)
            self._tops = np.maximum.accumulate(self._moduli)
            return
        # Carrying the last sum in keeps the summation order of one cumsum.
        sums = np.cumsum(np.concatenate((self._sums[-1:], roots)))[1:]
        moduli = np.abs(sums)
        self._sums = np.concatenate((self._sums, sums))
        self._moduli = np.concatenate((self._moduli, moduli))
        self._tops = np.concatenate((self._tops, np.maximum.accumulate(np.maximum(moduli, self._tops[-1]))))

    def _head_sum(self) -> complex:
        return complex(self._sums[self.head - 1]) if self.head else 0j

    def value(self, n: int) -> complex:
        self._step(n)
        if n > len(self._sums):
            k = (n - self.head - 1) % self.q + 1
            if not self._short:
                return self._past([k], self._head_sum())[0]
            n = self.head + k
        return complex(self._sums[n - 1])

    def _past(self, ks, head_sum: complex) -> list[complex]:
        """S(H + k) for each 1 <= k <= q in ks, S(H) being head_sum."""
        h, p, q = self.head, self.p, self.q
        return [head_sum + e((2 * h + k + 1) * p % (2 * q) / (2 * q)) * self._ratio(k) for k in ks]

    def _ratio(self, k: int) -> float:
        """sin(pi k x)/sin(pi x); in mpmath, which does not underflow, if sin(pi x) < 2^-1000."""
        if self._sin > 2.0**-1000:
            return _sin_pi(k * self.p, self.q) / self._sin
        import mpmath

        with mpmath.workprec(64):
            top, bottom = (_sin_pi(a, self.q, lambda b, m: mpmath.sinpi(mpmath.mpf(b) / m))
                           for a in (k * self.p, self.p))
            return float(top / bottom)

    def error(self, n: int) -> float:
        """A bound on the error of every S(m) and |S(m)| read for m <= n (stepped to n first).

        Over the first m = min(n, terms summed) terms (the head, and a short
        period past it) each partial sum is within (m + 2)(ROOT_ERROR + 2u M)
        of exact, M the largest modulus among them, as every step adds a
        rounded root and rounds a sum no larger than M.  Past them (a long
        period) the root costs ROOT_ERROR and the two sines and their ratio
        10u of |e(...) sin/sin|, which as a sum of K = N - H unit terms is at
        most T = min(n - H, q, 1/sin(pi x)), adding T (ROOT_ERROR + 16u); M is
        then taken as M_H + T, the largest |S| can be.
        """
        self._step(n)
        m = min(n, len(self._sums))
        top = float(self._tops[m - 1]) if m else 0.0
        if n <= m:
            return (m + 2) * (ROOT_ERROR + 2 * UNIT_ROUNDOFF * top)
        tail = min(n - m, self.q, 1.0 / self._sin if self._sin else math.inf)
        return ((m + 2) * (ROOT_ERROR + 2 * UNIT_ROUNDOFF * (top + tail))
                + tail * (ROOT_ERROR + 16 * UNIT_ROUNDOFF))

    def max_modulus(self, lo: int, hi: int) -> float:
        """The largest float |S(N)| over lo <= N <= hi (lo >= 1), 0.0 if there is none."""
        return self._read(lo, hi)[2] if lo <= hi else 0.0

    def sup(self, n: int) -> tuple[float, int]:
        """(max of |S(m)| over m <= n, the first m at which the exact max is reached).

        Every m whose float modulus is within twice `error` of the float max
        is a candidate; candidates are compared exactly with the best so far,
        in order of m, by whole squares only when one is in the head and the
        other past it, so two past the head do not form the head's square.
        """
        self._step(n)
        if self.head is not None:  # past H + q every S(N) repeats one already reached
            n = min(n, self.head + self.q)
        if n not in self._sups:
            candidates = self._candidates(1, n)
            (best, best_value), best_square = candidates[0], (None, None)
            for m, m_value in candidates[1:]:
                whole = (best <= len(self._residues)) is not (m <= len(self._residues))
                if best_square[0] is not whole:
                    best_square = whole, self._square(best, whole)
                square = self._square(m, whole)
                diff = _combine(self.q, (1, square, 0), (-1, best_square[1], 0))
                if not vanishes_at_root(diff, self.q) and sign_at_root(diff, self.q) > 0:
                    best, best_value, best_square = m, m_value, (whole, square)
            self._sups[n] = best_value, best
        return self._sups[n]

    def _candidates(self, lo: int, hi: int) -> list[tuple[int, float]]:
        """(N, float |S(N)|) for each lo <= N <= hi within 2 error(hi) of the float max there,
        in increasing N; past the head, each root's first N only."""
        values, tail, top, err = self._read(lo, hi)
        found = [(lo + i, float(values[i])) for i in (values >= top - err).nonzero()[0].tolist()]
        return found + [(m, v) for m, v in tail if v >= top - err]

    def _read(self, lo: int, hi: int) -> tuple[np.ndarray, list, float, float]:
        """(values, tail, top, err): |S(N)| for N = lo, lo + 1, .. from the arrays, the
        candidates past them (a long period), the float max over lo..hi, and 2 error(hi)."""
        err = 2 * self.error(hi)
        ends, q = len(self._sums), self.q  # the head so far, and a short period past it
        if self._short and lo > ends:  # the same values a whole number of periods earlier
            lo, hi = lo - (lo - ends + q - 1) // q * q, hi - (lo - ends + q - 1) // q * q
        values, tail = self._moduli[lo - 1:min(hi, ends)], []
        if hi > ends and self._short and lo > self.head + 1:  # past H + q, N repeats N - q
            values = np.concatenate((values, self._moduli[self.head:self.head + min(q, hi - ends)]))
        elif hi > ends and not self._short:
            first = max(lo, self.head + 1)
            tail = self._tail_candidates(first, min(hi - first + 1, q), err)
        top = max([v for _, v in tail] + ([float(values.max())] if len(values) else []))
        return values, tail, top, err

    def _tail_candidates(self, first: int, count: int, err: float) -> list[tuple[int, float]]:
        """(N, |S(N)|) for the count N from first on (past the head) within err of their float max.

        The reached roots are j = N p mod q for N = first + i, 0 <= i < count:
        with start = first p mod q, root j is reached at i = (j - start) p^-1
        mod q, exactly when that is below count.  The exact |S| falls strictly
        with the distance of j from the target t, the root at which B e(t/q)
        has the argument of C (unless C = 0), so the max is at the nearest
        reached root on one side of t.  The centre (`_locate`) is within
        `spread` of t: every reached root within spread of it is read by that
        map, the nearest on each side beyond is one `_first_below` over the
        indices, which step by +-p^-1 as j steps out by 1, and, unless one of
        those is nearer t, every reached root within spread of the antipode
        is read too.
        """
        p, q = self.p, self.q
        start = first * p % q
        if self._target is None:
            self._target = self._locate()
        centre, spread = self._target
        if spread < 0:  # C = 0: every |S(N)| past the head is |B|
            return [(first, abs(self.value(first)))]
        inverse, half = pow(p, -1, q), q // 2
        spread, found, nearest = min(spread, half), {}, half
        near, far = spread + 1, half - spread - 1
        for side in (1, -1) if near <= far else ():
            b = (centre + side * near - start) * inverse % q  # the index of root centre + side near
            x = _first_below(side * inverse % q, b, q, count)
            if x is not None and near + x <= far:
                n = first + (b + side * x * inverse) % q
                found[n] = abs(self.value(n))
                nearest = min(nearest, near + x)
        roots = list(range(centre - spread, centre + spread + 1))
        if nearest >= half - 3 * spread:  # else that root is nearer t than any near the antipode
            roots += range(centre + half - spread, centre + q - half + spread + 1)
        for j in roots:
            i = (j - start) * inverse % q
            if i < count:
                found[first + i] = abs(self.value(first + i))
        top = max(found.values())
        return [(n, v) for n, v in sorted(found.items()) if v >= top - err]

    def _locate(self) -> tuple[int, int]:
        """(centre, spread): the root nearest the target, and a bound on its distance from
        the exact target; spread -1 when C = 0 exactly.

        Floats place the target within q (u |B|/|C| + 4u) roots.  Past 64 roots
        (q beyond about 10^13), or with C within its error of 0 but not 0, C is
        formed again in mpmath, the head term by term, at 2 log2(q) + 64 bits,
        doubled until |C| clears its error; with sin(pi x) <= 2^-1000, where
        |B| is past the float range, C is formed in mpmath only.  The spread
        is rounded in mpmath, so q may be past the float range too.
        """
        p, q, h = self.p, self.q, self.head
        import mpmath

        if self._sin > 2.0**-1000:
            b = 1.0 / (2 * self._sin)
            c = self._head_sum() + 1j * b * e((2 * h + 1) * p % (2 * q) / (2 * q))
            err, turn, prec = self.error(h) + b * (ROOT_ERROR + 8 * UNIT_ROUNDOFF), cmath.phase(c) / TWO_PI, 53
            if abs(c) <= err:
                counts = Counter(self._residues)
                if vanishes_at_root(_combine(q, (1, counts, p), (-1, counts, 0), (-1, {0: 1}, (h + 1) * p)), q):
                    return 0, -1  # C (w - 1) = S(H)(w - 1) - w^(H+1) = 0
        else:  # |B| past the float range, so |C| >= |B| - H > 0: C is formed in mpmath only
            c = err = prec = 0
        while True:
            if abs(c) > err:
                with mpmath.workprec(53):
                    reach = mpmath.asin(err / abs(c)) / (2 * mpmath.pi) + mpmath.mpf(2) ** (4 - prec)
                    spread = int(mpmath.ceil(q * reach)) + 1
                if spread <= 64:
                    with mpmath.workprec(max(prec, 2 * q.bit_length() + 64)):
                        return int(mpmath.nint(q * ((turn + 0.25) % 1) - mpmath.mpf(p) / 2)) % q, spread
            prec = max(2 * prec, 2 * q.bit_length() + 64)
            with mpmath.workprec(prec):
                b_root = mpmath.expjpi(mpmath.mpf((2 * h + 1) * p) / q) / (2 * mpmath.sinpi(mpmath.mpf(p) / q))
                c = mpmath.fsum(mpmath.expjpi(2 * mpmath.mpf(r) / q) for r in self._residues) + 1j * b_root
                err = (h + abs(b_root) + 8) * mpmath.mpf(2) ** (8 - prec)
                turn = mpmath.arg(c) / (2 * mpmath.pi)

    def _square(self, n: int, whole: bool = True) -> dict:
        """|S(n)|^2 |e(p/q) - 1|^2 as an integer polynomial in x = e(1/q), for n <= H + q.

        Unless whole, a polynomial that orders the n on the same side of the
        head the same way: in the head |S(n)|^2, past it the part that
        depends on n.

        In the head it is the autocorrelation of the counts of the residues
        of terms 1..n times |w - 1|^2 = 2 - w - 1/w with w = x^p; the positive
        factor does not change the order of the squares.  Past the head
        S(n)(w - 1) = u + w^(n+1) with u = S(H)(w - 1) - w^(H+1), so
        |S(n)|^2 |w - 1|^2 = |S(H)|^2 |w - 1|^2 + 2 - 2 Re(conj(S(H)(w - 1)) w^(H+1))
        + 2 Re(conj(u) w^(n+1)): only the last term depends on n, and
        2 Re P = P + conj P.
        """
        p, q, h = self.p, self.q, self.head
        if n <= len(self._residues):
            counts = Counter(self._residues[:n])
            a = _autocorrelation(counts, q) if counts else {}
            return _combine(q, (2, a, 0), (-1, a, p), (-1, a, -p)) if whole else a  # times |w - 1|^2
        if self._u is None:
            counts = Counter(self._residues)
            y = _combine(q, (1, counts, p), (-1, counts, 0))  # S(H)(w - 1)
            self._u = y, _conj(_combine(q, (1, y, 0), (-1, {0: 1}, (h + 1) * p)), q)
        y, ubar = self._u
        if whole and self._constant is None:
            self._constant = _combine(q, (1, self._square(h), 0), (2, {0: 1}, 0),
                                      (-1, _conj(y, q), (h + 1) * p), (-1, y, -(h + 1) * p))
        shift = (n + 1) * p
        part = _combine(q, (1, ubar, shift), (1, _conj(ubar, q), -shift))
        return _combine(q, (1, part, 0), (1, self._constant, 0)) if whole else part


def dirichlet_bound(alpha: Fraction) -> float:
    """2/|e(alpha)-1| = 1/sin(pi*alpha), the geometric-series bound; a ValueError past the float range."""
    if not (0 < alpha < 1):
        raise ValueError(f"angle {alpha} outside (0,1)")
    if _sin_pi(alpha.numerator, alpha.denominator) * sys.float_info.max < 1:
        raise ValueError(f"angle {alpha}: 1/sin(pi alpha) is past the float range")
    return 1.0 / math.sin(math.pi * float(alpha))


def qn_counterexample_sup(q: int, alpha: Fraction, n_max: int) -> float:
    """sup_{N <= n_max} |S_{ {qn} }(alpha, N)|.

    Bounded (geometric series) when q*alpha is not an integer; grows like N/q
    when alpha = p/q, since every term is then e(0) = 1.  For alpha = a/b the
    K = n_max // q terms are e(k qa/b), the GeometricTail with an empty head
    at qa/b in lowest terms, so the sup is exactly n_max // q at resonance (a
    ValueError past the float range), else its max over 1..K, within error(K):
    for b' = b / gcd(qa mod b, b) past SHORT_PERIOD, 2(ROOT_ERROR + 2u T) +
    T (ROOT_ERROR + 16u), T = min(K, b', 1/sin(pi qa/b)).
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if not (0 < alpha < 1):
        raise ValueError(f"angle {alpha} outside (0,1)")
    terms = n_max // q
    a, b = alpha.numerator, alpha.denominator
    step = q * a % b
    if step == 0 or terms < 1:
        if terms > sys.float_info.max:
            raise ValueError("--N: the sup at resonance, N // q, is past the float range")
        return float(max(terms, 0))
    g = math.gcd(step, b)
    return GeometricTail(step // g, b // g, iter(())).max_modulus(1, terms)
