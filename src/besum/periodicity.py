"""Ultimate periodicity of finitely-valued coefficient sequences.

A power series u(z) = sum a_n z^n with finitely many coefficient values
that stays bounded on a disk sector has ultimately periodic coefficients,
and boundedness at the rational angles forces the periodic block to be
constant (otherwise u has a pole at a nontrivial root of unity).  This
module implements the computable side of that story: sector evaluation,
the Abel-summation bound, period detection on finite prefixes, and the
root-of-unity collapse test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, TextIO

import numpy as np

from .expsum import Angle, AngleLike, e

COLLAPSE_TOL = 1e-9


@dataclass(frozen=True)
class CoefficientSequence:
    """Finite prefix a_0..a_L over a declared finite alphabet; a_0 = 0."""

    values: tuple
    alphabet: frozenset = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.values or self.values[0] != 0:
            raise ValueError("coefficient sequences start with a_0 = 0")
        if self.alphabet is None:
            object.__setattr__(self, "alphabet", frozenset(self.values))
        bad = set(self.values) - set(self.alphabet)
        if bad:
            raise ValueError(f"values outside the declared alphabet: {sorted(map(str, bad))}")

    def __len__(self) -> int:
        return len(self.values)

    def is_exact(self) -> bool:
        """Whether every coefficient is an int or Fraction (exact collapse path)."""
        return all(isinstance(v, (int, Fraction)) for v in self.values)

    def prefix(self, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
        """(a_0..a_A as complex numbers, the indices 0..A) for 0 <= A inside the prefix."""
        if n_terms < 0:
            raise ValueError(f"A={n_terms} must be >= 0")
        if n_terms >= len(self):
            raise ValueError(f"A={n_terms} beyond available prefix of length {len(self)}")
        return np.asarray([complex(v) for v in self.values[: n_terms + 1]]), np.arange(n_terms + 1)

    @classmethod
    def from_indicator(cls, members: set[int], length: int) -> "CoefficientSequence":
        vals = tuple(1 if n in members else 0 for n in range(length))
        if vals[0] != 0:
            raise ValueError("0 cannot be a member (a_0 = 0)")
        return cls(vals, frozenset({0, 1}))

    @classmethod
    def ultimately_periodic(cls, preperiod: Sequence, block: Sequence, length: int) -> "CoefficientSequence":
        vals = [0] + list(preperiod)
        i = 0
        while len(vals) < length:
            vals.append(block[i % len(block)])
            i += 1
        return cls(tuple(vals[:length]))


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


def partial_power_sum(c: CoefficientSequence, r: float, theta: float, n_terms: int) -> complex:
    """sum_{n<=A} a_n r^n e(n theta)."""
    a, n = c.prefix(n_terms)
    z = r * np.exp(2j * np.pi * theta)
    return complex(np.sum(a * z**n))


@dataclass
class SectorGrid:
    thetas: np.ndarray
    radii: tuple[float, ...]
    values: np.ndarray  # shape (len(radii), len(thetas))
    max_modulus: float
    max_at: tuple[float, float]  # (r, theta) attaining the max


def sector_eval(c: CoefficientSequence, sector: SectorSpec, n_terms: int) -> SectorGrid:
    """Partial sums of u(z) on the sector's (r, theta) grid, with the max modulus."""
    a, n = c.prefix(n_terms)
    thetas = sector.thetas()
    phase = 2j * np.pi * np.outer(thetas, n)  # (n_theta, A+1)
    np.exp(phase, out=phase)  # in place: one (n_theta, A+1) grid less at the peak
    vals = np.empty((len(sector.r_grid), len(thetas)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # raised as a ValueError below
        for i, r in enumerate(sector.r_grid):
            radial = a * r**n
            vals[i] = phase @ radial
    if not np.isfinite(vals).all():
        raise ValueError(f"sector sums over A={n_terms} terms are not finite (float overflow)")
    flat = int(np.argmax(np.abs(vals)))
    ri, ti = divmod(flat, len(thetas))
    return SectorGrid(
        thetas=thetas,
        radii=tuple(sector.r_grid),
        values=vals,
        max_modulus=float(np.abs(vals[ri, ti])),
        max_at=(sector.r_grid[ri], float(thetas[ti])),
    )


def abel_bound_check(
    c: CoefficientSequence, alpha: AngleLike, r: float, n_terms: int
) -> tuple[float, float]:
    """Abel-summation bound: |sum a_n r^n e(n alpha)| against the prefix sup.

    Returns (lhs, rhs) where rhs = max over prefixes M <= A of
    |sum_{n<=M} a_n e(n alpha)| -- the finite-range stand-in for the
    true sup, labelled prefix_sup in all reports.  lhs <= rhs always.
    """
    if not (0 <= r < 1):
        raise ValueError("need 0 <= r < 1")
    a, n = c.prefix(n_terms)
    t = float(Angle(alpha))
    unit = a * np.exp(2j * np.pi * t * n)
    lhs = abs(np.sum(unit * r**n))
    rhs = float(np.max(np.abs(np.cumsum(unit))))
    return float(lhs), rhs


def detect_ultimate_period(
    c: CoefficientSequence, max_preperiod: int, max_period: int
) -> tuple[int, int] | None:
    """Smallest (K, q) with a_n = a_{n+q} for all K <= n <= L-1-q, or None.

    Minimality is lexicographic: smallest preperiod K first, then
    smallest period q.  Needs prefix length >= max_preperiod + 2*max_period
    so a reported period is seen at least twice past the preperiod.
    """
    length = len(c)
    if length < max_preperiod + 2 * max_period:
        raise ValueError(
            f"prefix length {length} < max_preperiod + 2*max_period "
            f"= {max_preperiod + 2 * max_period}"
        )
    vals = c.values
    best: tuple[int, int] | None = None
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


def period_collapse_test(c: CoefficientSequence, preperiod: int, period: int) -> bool:
    """Does 1 + z + ... + z^{q-1} divide the periodic block polynomial?

    True iff sum_{j<q} a_{K+j} w^j = 0 at every q-th root of unity w != 1,
    i.e. iff the block is constant.  Exact alphabets get the exact
    divisibility test; float alphabets are evaluated at the roots with a
    1e-9 tolerance.
    """
    length = len(c)
    if preperiod < 0 or period < 1 or preperiod + 2 * period > length:
        raise ValueError("need 0 <= K and K + 2q <= prefix length")
    vals = c.values
    for n in range(preperiod, length - period):
        if vals[n] != vals[n + period]:
            raise ValueError(f"(K={preperiod}, q={period}) is not a period of the prefix")
    block = vals[preperiod : preperiod + period]
    if c.is_exact():
        # Degree of the block polynomial is < q, so divisibility by
        # 1 + z + ... + z^{q-1} forces block = const * (1,...,1).
        return all(b == block[0] for b in block)
    for k in range(1, period):
        w = e(k / period)
        if abs(sum(b * w**j for j, b in enumerate(block))) > COLLAPSE_TOL:
            return False
    return True


# --- coefficient-file format --------------------------------------------
#
#   coeffs v1
#   alphabet <v> <v> ...
#   <count>*<value> <count>*<value> ...      (run-length encoded, a_0 first)

COEFFS_MAGIC = "coeffs v1"


def _parse_value(tok: str):
    try:
        return int(tok)
    except ValueError:
        return complex(tok)


def write_coeffs_file(c: CoefficientSequence, fp: TextIO) -> None:
    fp.write(f"{COEFFS_MAGIC}\n")
    fp.write("alphabet " + " ".join(str(v) for v in sorted(c.alphabet, key=str)) + "\n")
    runs = []
    i = 0
    while i < len(c.values):
        j = i
        while j < len(c.values) and c.values[j] == c.values[i]:
            j += 1
        runs.append(f"{j - i}*{c.values[i]}")
        i = j
    fp.write(" ".join(runs) + "\n")


def read_coeffs_file(fp: TextIO) -> CoefficientSequence:
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
            run = runs[tok] = [_parse_value(val_s)] * int(count_s)
        values += run
    return CoefficientSequence(tuple(values), alphabet)
