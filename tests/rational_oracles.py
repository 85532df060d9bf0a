"""The rational-angle sums as periodic arrays of H + q partial sums: the tests' oracle.

`RationalProfile` builds every partial sum up to one period past the head
and reads any N from its window; `RootSums` keeps them with their residues
and settles near-equal moduli exactly from the residue counts, squared
by `np.correlate`.  `besum.expsum.GeometricTail` replaces both with a
closed form past the head; the tests compare the two.
"""

import numpy as np

from besum.construction import GrowthFunction, _factorials
from besum.expsum import ROOT_ERROR, UNIT_ROUNDOFF, roots_at, sign_at_root, vanishes_at_root


def correlate_square(counts: np.ndarray) -> np.ndarray:
    """The cyclic autocorrelation sum_l c_{l+d} c_l, d = 0..q-1, of dense counts by np.correlate."""
    q = len(counts)
    full = np.correlate(counts, counts, "full")
    square = full[q - 1:].copy()
    square[1:] += full[: q - 1]
    return square


def as_poly(coeffs: np.ndarray) -> dict:
    return {int(d): int(coeffs[d]) for d in np.flatnonzero(coeffs)}


class RootSums:
    """Partial sums S_n = sum_{m<=n} e(r_m/q), n = 1..len(r) >= 1, of q-th roots of unity.

    `sums[n-1]` and `moduli[n-1]` are within `error` of exact; `sup` settles
    the moduli within twice `error` of the max exactly, in order.
    """

    def __init__(self, residues, q: int):
        self.q = q
        self.residues = np.asarray(residues, dtype=np.int64)
        self.sums = np.cumsum(roots_at(self.residues, q))
        self.moduli = np.abs(self.sums)
        self._running_max = np.maximum.accumulate(self.moduli)
        top = float(self._running_max[-1])
        self.error = (len(self.residues) + 1) * (ROOT_ERROR + 2 * UNIT_ROUNDOFF * top)

    def sup(self, n: int) -> tuple[float, int]:
        near = np.flatnonzero(self.moduli[:n] >= self._running_max[n - 1] - 2 * self.error)
        best = int(near[0])
        for m in near[1:]:
            diff = as_poly(self._square(int(m)) - self._square(best))
            if not vanishes_at_root(diff, self.q) and sign_at_root(diff, self.q) > 0:
                best = int(m)
        return float(self.moduli[best]), best + 1

    def _square(self, i: int) -> np.ndarray:
        return correlate_square(np.bincount(self.residues[: i + 1], minlength=self.q))


class RationalProfile:
    """S(N) = sum_{n<=N} e((n + f(n)!) p/q) for every N, from H + q terms.

    Past the head (f(n)! = 0 mod q) any q consecutive terms sum to 0, so
    S(N) = S(window(N)) with window(N) <= H + q.
    """

    def __init__(self, f: GrowthFunction, p: int, q: int):
        head = []
        for fact in _factorials(f, q):
            if not fact:
                break
            head.append(fact)
        self.head, self.q = len(head), q
        residues = np.arange(1, self.head + q + 1, dtype=np.int64)
        residues[:self.head] += np.array(head, dtype=np.int64)
        self.sums = RootSums(residues * (p % q) % q, q)

    def window(self, n: int) -> int:
        if n <= len(self.sums.residues):
            return n
        return self.head + (n - self.head - 1) % self.q + 1

    def value(self, n: int) -> complex:
        return complex(self.sums.sums[self.window(n) - 1])

    def sup(self, n: int) -> tuple[float, int]:
        return self.sums.sup(min(n, len(self.sums.residues)))

    def max_modulus(self, lo: int, hi: int) -> float:
        """max |S(N)| over lo <= N <= hi, from the windows they reach."""
        windows = {self.window(n) for n in range(lo, min(hi, lo + 2 * self.q + self.head) + 1)}
        return float(max(self.sums.moduli[w - 1] for w in windows))
