"""Direct reference computations for besum.periodicity that only the tests use.

Each one is the textbook form of something the package computes another
way (codes, blocked sums), so the tests can compare the two.
"""

import numpy as np

from besum.periodicity import CoefficientSequence, SectorSpec


def from_indicator(members: set[int], length: int) -> CoefficientSequence:
    """The 0/1 sequence of `members` below `length`."""
    vals = tuple(1 if n in members else 0 for n in range(length))
    if vals[0] != 0:
        raise ValueError("0 cannot be a member (a_0 = 0)")
    return CoefficientSequence(vals, frozenset({0, 1}))


def partial_power_sum(c: CoefficientSequence, r: float, theta: float, n_terms: int) -> complex:
    """sum_{n<=A} a_n r^n e(n theta)."""
    a, n = c.prefix(n_terms)
    z = r * np.exp(2j * np.pi * theta)
    return complex(np.sum(a * z**n))


def sector_grid_direct(c: CoefficientSequence, sector: SectorSpec, n_terms: int) -> np.ndarray:
    """The sector sums from the full (n_theta, A+1) phase grid, one term per entry."""
    a = np.asarray([complex(v) for v in c.values[: n_terms + 1]])
    n = np.arange(n_terms + 1)
    phase = np.exp(2j * np.pi * np.outer(sector.thetas(), n))
    return np.array([phase @ (a * r**n) for r in sector.r_grid])


def detect_ultimate_period_by_scan(
    c: CoefficientSequence, max_preperiod: int, max_period: int
) -> tuple[int, int] | None:
    """Smallest (K, q) in lexicographic order, value by value from the end of the prefix."""
    length = len(c)
    vals = c.values
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
