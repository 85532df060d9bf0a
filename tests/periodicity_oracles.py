"""Direct reference computations for besum.periodicity that only the tests use.

Each one is the textbook form of something the package computes another
way (codes, blocked sums, the coefficient-file reader), so the tests can
compare the two, or builds test values or sequences (`sequence`,
`ultimately_periodic`, `from_indicator`) or a coefficient file
(`coeffs_text`).
"""

from fractions import Fraction
from itertools import groupby
from typing import Sequence, TextIO

import numpy as np

from besum import periodicity
from besum.periodicity import (
    COEFFS_MAGIC,
    CoefficientSequence,
    SectorSpec,
    _over_length_limit,
    _parse_value,
)


def sequence(values: Sequence, alphabet: frozenset | None = None) -> CoefficientSequence:
    """The sequence of `values`, each a run of length 1, over `alphabet` (by default
    the values' own)."""
    if alphabet is None:
        alphabet = frozenset(values)
    return CoefficientSequence(alphabet, np.array(values, dtype=object), np.arange(len(values)),
                               np.ones(len(values), np.int64))


def coeffs_text(values: Sequence, alphabet: frozenset | None = None) -> str:
    """The `coeffs v1` file of `values` over `alphabet` (by default the values' own),
    one run per stretch of same-spelled values."""
    if alphabet is None:
        alphabet = frozenset(values)
    runs = " ".join(f"{sum(1 for _ in run)}*{v}" for v, run in groupby(values, key=str))
    return (f"{COEFFS_MAGIC}\nalphabet {' '.join(str(v) for v in sorted(alphabet, key=str))}\n"
            f"{runs}\n")


def ultimately_periodic(preperiod: Sequence, block: Sequence, length: int) -> tuple:
    """a_0 = 0, then the preperiod, then the block repeated, cut to length values."""
    vals = [0] + list(preperiod)
    i = 0
    while len(vals) < length:
        vals.append(block[i % len(block)])
        i += 1
    return tuple(vals[:length])


def from_indicator(members: set[int], length: int) -> CoefficientSequence:
    """The 0/1 sequence of `members` below `length`."""
    vals = tuple(1 if n in members else 0 for n in range(length))
    if vals[0] != 0:
        raise ValueError("0 cannot be a member (a_0 = 0)")
    return sequence(vals, frozenset({0, 1}))


def partial_power_sum(c: CoefficientSequence, r: float, theta: float, n_terms: int) -> complex:
    """sum_{n<=A} a_n r^n e(n theta)."""
    a, n = c.prefix(n_terms), np.arange(n_terms + 1)
    z = r * np.exp(2j * np.pi * theta)
    return complex(np.sum(a * z**n))


def abel_bound_check(
    c: CoefficientSequence, alpha: Fraction, r: float, n_terms: int
) -> tuple[float, float]:
    """Abel-summation bound: |sum a_n r^n e(n alpha)| against the prefix sup.

    Returns (lhs, rhs) where rhs = max over prefixes M <= A of
    |sum_{n<=M} a_n e(n alpha)| -- the finite-range stand-in for the
    true sup.  lhs <= rhs always.
    """
    if not (0 <= r < 1):
        raise ValueError("need 0 <= r < 1")
    a, n = c.prefix(n_terms), np.arange(n_terms + 1)
    unit = a * np.exp(2j * np.pi * float(alpha) * n)
    lhs = abs(np.sum(unit * r**n))
    rhs = float(np.max(np.abs(np.cumsum(unit))))
    return float(lhs), rhs


def sector_grid_direct(values: Sequence, sector: SectorSpec, n_terms: int) -> np.ndarray:
    """The sector sums from the full (n_theta, A+1) phase grid, one term per entry."""
    a = np.asarray([complex(v) for v in values[: n_terms + 1]])
    n = np.arange(n_terms + 1)
    phase = np.exp(2j * np.pi * np.outer(sector.thetas(), n))
    return np.array([phase @ (a * r**n) for r in sector.r_grid])


def detect_ultimate_period_by_scan(
    vals: Sequence, max_preperiod: int, max_period: int
) -> tuple[int, int] | None:
    """Smallest (K, q) in lexicographic order, value by value from the end of the prefix."""
    length = len(vals)
    best = None
    for q in range(1, max_period + 1):
        # Minimal K for this q: one past the last mismatch a_n != a_{n+q}.
        k_min = 0
        for n in range(length - 1 - q, -1, -1):
            if vals[n] != vals[n + q]:
                k_min = n + 1
                break
        if k_min <= max_preperiod and (best is None or (k_min, q) < best):
            best = (k_min, q)
    return best


def read_coeffs_by_tokens(fp: TextIO) -> CoefficientSequence:
    """read_coeffs_file token by token: each run's values appended to one list, the
    length checked after each token, and the codes built value by value."""
    lines = [ln.strip() for ln in fp if ln.strip()]
    if not lines or lines[0] != COEFFS_MAGIC:
        raise ValueError(f"missing '{COEFFS_MAGIC}' header")
    if len(lines) < 3 or not lines[1].startswith("alphabet "):
        raise ValueError("missing alphabet declaration")
    alphabet = frozenset(_parse_value(t) for t in lines[1].split()[1:])
    values: list = []
    runs: dict[str, list] = {}  # token -> its run of values: each distinct token is parsed once
    for tok in " ".join(lines[2:]).split():
        run = runs.get(tok)
        if run is None:
            count_s, _, val_s = tok.partition("*")
            count = int(count_s)
            if count < 1:
                raise ValueError(f"run {tok!r}: the count must be >= 1")
            if count > periodicity.COEFFS_MAX_LENGTH:  # before the run is allocated
                raise _over_length_limit(count)
            run = runs[tok] = [_parse_value(val_s)] * count
        values += run
        if len(values) > periodicity.COEFFS_MAX_LENGTH:
            raise _over_length_limit(len(values))
    return sequence(values, alphabet)
