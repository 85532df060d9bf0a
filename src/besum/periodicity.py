"""Ultimate periodicity of finitely-valued coefficient sequences.

A power series u(z) = sum a_n z^n with finitely many coefficient values
that stays bounded on a disk sector has ultimately periodic coefficients,
and boundedness at the rational angles forces the periodic block to be
constant (otherwise u has a pole at a nontrivial root of unity).  This
module implements the computable side of that story: sector evaluation,
period detection on finite prefixes, and the root-of-unity collapse test.

A sequence is held as a small-integer code array
(`CoefficientSequence.codes`).  Period detection and the collapse test
compare codes; sector sums read the alphabet's complex values through
them, summed in sqrt(A)-sized blocks (see `sector_eval`).  No Python
object is kept per term.

A coefficient file is run-length encoded over a handful of distinct
tokens, so `read_coeffs_file` costs one dict lookup per token (the id of
its distinct token) and one `np.repeat` of the distinct tokens' codes by
their counts; each distinct token is parsed and checked once.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import TextIO

import numpy as np

from .construction import ResourceBudgetError

# Longest coefficient file read_coeffs_file accepts: 10^7 terms take 10 MB
# of codes (one byte a term for a small alphabet).
COEFFS_MAX_LENGTH = 10**7
# Largest phase table sector_eval builds: (B + Q) n_theta complex doubles,
# 160 MB at the limit, and one radius's products about as much again
# (0.4 GB peak at the limit).
SECTOR_MAX_CELLS = 10**7


def _as_complex(v) -> complex:
    """v as a complex double; a real past the float range becomes +-inf, which sector sums refuse."""
    try:
        return complex(v)
    except OverflowError:
        return complex(math.inf if v > 0 else -math.inf)


class CoefficientSequence:
    """Finite prefix a_0..a_L over a declared finite alphabet; a_0 = 0.

    `symbols` is the alphabet as complex numbers, in a fixed order, and
    `codes[n]` is the index of a_n in it (the smallest unsigned dtype that
    fits).  Values that compare equal, such as 1 and 1+0j, share a code.

    The prefix is given as runs: run_values[run_ids[t]] repeated
    run_lengths[t] times, t in order, so the codes take one alphabet
    lookup per run value and one `np.repeat`.
    """

    def __init__(self, alphabet: frozenset, run_values: np.ndarray, run_ids: np.ndarray,
                 run_lengths: np.ndarray):
        if not len(run_ids) or run_values[run_ids[0]] != 0:
            raise ValueError("coefficient sequences start with a_0 = 0")
        order = sorted(alphabet, key=str)
        index = {v: i for i, v in enumerate(order)}
        dtype = np.min_scalar_type(len(order) - 1)
        try:
            run_codes = np.fromiter(map(index.__getitem__, run_values), dtype, len(run_values))
        except KeyError:
            bad = set(run_values) - alphabet
            raise ValueError(f"values outside the declared alphabet: {sorted(map(str, bad))}") from None
        self.codes = np.repeat(run_codes[run_ids], run_lengths)
        self.symbols = np.array([_as_complex(v) for v in order])

    def __len__(self) -> int:
        return len(self.codes)

    def prefix(self, n_terms: int) -> np.ndarray:
        """a_0..a_A as complex numbers, for 0 <= A inside the prefix."""
        if n_terms < 0:
            raise ValueError(f"A={n_terms} must be >= 0")
        if n_terms >= len(self):
            raise ValueError(f"A={n_terms} beyond available prefix of length {len(self)}")
        return self.symbols[self.codes[: n_terms + 1]]


@dataclass(frozen=True)
class SectorSpec:
    """Disk sector theta1 <= arg z <= theta2 (turns), radii strictly below 1."""

    theta1: float
    theta2: float
    r_grid: tuple[float, ...]
    n_theta: int = 16

    def __post_init__(self):
        if not (0 <= self.theta1 < self.theta2 <= 1):
            raise ValueError("need 0 <= theta1 < theta2 <= 1")
        if any(not (0 <= r < 1) for r in self.r_grid):
            raise ValueError("all radii must lie in [0, 1)")
        if self.n_theta < 2:
            raise ValueError("need at least 2 theta grid points")

    def thetas(self) -> np.ndarray:
        return np.linspace(self.theta1, self.theta2, self.n_theta)


@dataclass
class SectorGrid:
    values: np.ndarray  # shape (len(r_grid), n_theta), columns at sector.thetas()
    max_modulus: float
    max_at: tuple[float, float]  # (r, theta) attaining the max


def _unit_powers(k: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """e(theta k) as a (len(k), len(thetas)) array; theta k is reduced mod 1 (exactly) first."""
    return np.exp(2j * np.pi * (np.outer(k, thetas) % 1.0))


def sector_eval(c: CoefficientSequence, sector: SectorSpec, n_terms: int) -> SectorGrid:
    """Partial sums of u(z) on the sector's (r, theta) grid, with the max modulus.

    The sum over n <= A is blocked (baby step, giant step): with
    B = ceil(sqrt(A+1)), Q = ceil((A+1)/B) and n = qB + s,

        sum_{n<=A} a_n z^n = sum_{q<Q} z^{qB} sum_{s<B} a_{qB+s} z^s,

    so for each radius the whole theta grid is one (Q x B) @ (B x n_theta)
    product of the zero-padded prefix with baby[s, t] = r^s e(theta_t s),
    weighted by giant[q, t] = r^{qB} e(theta_t qB) and summed over q.
    That costs n_theta (B + Q) complex exps and O(n_theta A) multiply-adds,
    with (Q x B) and (B or Q) x n_theta arrays, not an n_theta x (A+1) grid.

    Error: with u = 2^-53 and eta = 2^-1074, each value differs from
    sum_{n<=A} a_n r^n e(theta n) (a_n as complex doubles, r and theta as
    given) by at most about

        (2(B + Q) + 2 pi A + 20) (u sum_{n<=A} |a_n| r^n + (A + 1) eta).

    theta k is rounded once (at most u A turns, 2 pi u A radians, over
    both factors of a term), reduced mod 1 exactly, and exp, powers and
    products each add a few u; the length-B dot products and the length-Q
    sum add B u and Q u, doubled for complex arithmetic.  The eta term is
    the standard model's underflow term: a product that rounds into the
    subnormal range is off by up to eta absolutely, not by u relatively,
    so a term r^n far below 2^-1022 keeps an error the relative part
    misses (at r = 2.2e-313 it is 5e-324 while the u term is 0).
    """
    a = c.prefix(n_terms)
    size = n_terms + 1
    width = math.isqrt(n_terms) + 1  # B = ceil(sqrt(A+1))
    rows = -(-size // width)  # Q = ceil((A+1)/B)
    cells = (width + rows) * sector.n_theta
    if cells > SECTOR_MAX_CELLS:  # before the phase tables
        raise ResourceBudgetError(
            f"sector grid at A={n_terms}: (B + Q) n_theta = {cells} is over the limit of "
            f"{SECTOR_MAX_CELLS} (periodicity.SECTOR_MAX_CELLS)")
    thetas = sector.thetas()
    block = np.zeros(rows * width, dtype=complex)
    block[:size] = a
    block = block.reshape(rows, width)
    s = np.arange(width)
    qb = np.arange(rows) * width
    baby_phase = _unit_powers(s, thetas)
    giant_phase = _unit_powers(qb, thetas)
    vals = np.empty((len(sector.r_grid), len(thetas)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # raised as a ValueError below
        for i, r in enumerate(sector.r_grid):
            baby = (r**s)[:, None] * baby_phase
            giant = (r**qb)[:, None] * giant_phase
            vals[i] = (giant * (block @ baby)).sum(axis=0)
    if not np.isfinite(vals).all():
        raise ValueError(f"sector sums over A={n_terms} terms are not finite (float overflow)")
    flat = int(np.argmax(np.abs(vals)))
    ri, ti = divmod(flat, len(thetas))
    return SectorGrid(
        values=vals,
        max_modulus=float(np.abs(vals[ri, ti])),
        max_at=(sector.r_grid[ri], float(thetas[ti])),
    )


def detect_ultimate_period(
    c: CoefficientSequence, max_preperiod: int, max_period: int
) -> tuple[int, int] | None:
    """Smallest (K, q) with a_n = a_{n+q} for all K <= n <= L-1-q, or None.

    Minimality is lexicographic: smallest preperiod K first, then
    smallest period q.  Needs prefix length >= max_preperiod + 2*max_period
    so a reported period is seen at least twice past the preperiod.
    For each q one vectorised compare of the codes, codes[:-q] != codes[q:],
    gives the least K = last mismatch + 1: O(L) per period, O(L max_period)
    in all.
    """
    length = len(c)
    if length < max_preperiod + 2 * max_period:
        raise ValueError(
            f"prefix length {length} < max_preperiod + 2*max_period "
            f"= {max_preperiod + 2 * max_period}"
        )
    codes = c.codes
    best: tuple[int, int] | None = None
    for q in range(1, max_period + 1):
        # Minimal K for this q: one past the last mismatch a_n != a_{n+q}.
        backwards = (codes[:-q] != codes[q:])[::-1]
        last = int(backwards.argmax())  # the first True from the end, 0 if none
        k_min = len(backwards) - last if backwards[last] else 0
        if k_min <= max_preperiod and (best is None or (k_min, q) < best):
            best = (k_min, q)
    return best


def period_collapse_test(c: CoefficientSequence, preperiod: int, period: int) -> bool:
    """Does 1 + z + ... + z^{q-1} divide the periodic block polynomial?

    With block b = (a_K, ..., a_{K+q-1}) and P(z) = sum_{j<q} b_j z^j, the
    values P(w^k), w = e(1/q), k = 0..q-1, are the discrete Fourier
    transform of b; the inverse transform shows that P vanishes at every
    q-th root of unity w^k != 1 iff b is constant.  That holds for any
    complex block, so the answer is exact for every alphabet: the block's
    codes are all equal.
    """
    length = len(c)
    if preperiod < 0 or period < 1 or preperiod + 2 * period > length:
        raise ValueError("need 0 <= K and K + 2q <= prefix length")
    codes = c.codes
    if not np.array_equal(codes[preperiod : length - period], codes[preperiod + period :]):
        raise ValueError(f"(K={preperiod}, q={period}) is not a period of the prefix")
    block = codes[preperiod : preperiod + period]
    return bool((block == block[0]).all())


# --- coefficient-file format --------------------------------------------
#
#   coeffs v1
#   alphabet <v> <v> ...
#   <count>*<value> <count>*<value> ...      (run-length encoded, a_0 first)
#
# Counts are integers >= 1, and the runs together hold at most
# COEFFS_MAX_LENGTH values (ResourceBudgetError past it).  Values are
# Python ints or complex numbers; NaN is refused.

COEFFS_MAGIC = "coeffs v1"


def _parse_value(tok: str):
    try:
        return int(tok)
    except ValueError:
        value = complex(tok)
    if cmath.isnan(value):
        raise ValueError(f"value {tok!r} is NaN, not a number a coefficient can take")
    return value


def read_coeffs_file(fp: TextIO) -> CoefficientSequence:
    """The sequence a `coeffs v1` file holds, built per distinct token (see the module doc).

    Errors are those of a reader going token by token: the first bad token
    wins unless the runs before it already pass COEFFS_MAX_LENGTH.
    """
    lines = [ln.strip() for ln in fp if ln.strip()]
    if not lines or lines[0] != COEFFS_MAGIC:
        raise ValueError(f"missing '{COEFFS_MAGIC}' header")
    if len(lines) < 3 or not lines[1].startswith("alphabet "):
        raise ValueError("missing alphabet declaration")
    alphabet = frozenset(map(_parse_value, lines[1].split()[1:]))
    tokens = " ".join(lines[2:]).split()
    distinct = defaultdict(count().__next__)  # token -> its id, in order of first appearance
    id_type = np.min_scalar_type(len(tokens))  # every id is below the token count
    ids = np.fromiter(map(distinct.__getitem__, tokens), id_type, len(tokens))
    del lines, tokens  # freed before the per-value arrays are built
    parsed = []  # (count, value) of each distinct token
    try:
        for tok in distinct:
            count_s, _, val_s = tok.partition("*")
            n = int(count_s)
            if n < 1:
                raise ValueError(f"run {tok!r}: the count must be >= 1")
            if n > COEFFS_MAX_LENGTH:
                raise _over_length_limit(n)
            parsed.append((n, _parse_value(val_s)))
    except (ValueError, ResourceBudgetError):
        first_bad = int(np.argmax(ids == len(parsed)))
        _check_length(np.array([n for n, _ in parsed], np.int64)[ids[:first_bad]])
        raise
    run_counts, run_values = zip(*parsed)
    lengths = np.array(run_counts, np.int64)[ids]
    _check_length(lengths)
    return CoefficientSequence(alphabet, np.array(run_values, dtype=object), ids, lengths)


def _check_length(lengths: np.ndarray) -> None:
    """ResourceBudgetError, at the first run that ends past COEFFS_MAX_LENGTH, if any does."""
    ends = np.cumsum(lengths)
    over = int(np.searchsorted(ends, COEFFS_MAX_LENGTH, side="right"))
    if over < len(ends):
        raise _over_length_limit(int(ends[over]))


def _over_length_limit(length: int) -> ResourceBudgetError:
    return ResourceBudgetError(
        f"coefficient file holds at least {length} values, over the limit of "
        f"{COEFFS_MAX_LENGTH} (periodicity.COEFFS_MAX_LENGTH)"
    )
