"""Cylinder counting, the mass-distribution measure, and dimension estimates.

Depth-i rationals Z_i = {k/i! : 0 <= k < i!} index the depth-i cylinder
intervals (alpha, alpha + 1/i!).  The measure assigns each cylinder that
meets E(f,a) (union the zero point) the same mass 1/count, where count
is the exact number of allowed digit tuples -- a plain product over
positions, computed exactly instead of through the paper-style factorial
lower bound (which becomes a test here, being strictly weaker).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .construction import DigitConstraintSet, GrowthFunction, membership
from .factoradic import FactoradicReal, Tail, Trit


def count_cylinders(constraints: DigitConstraintSet, depth: int) -> int:
    """Exact #((E(f,a) u {0}) n Z_depth): product of allowed digit counts."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    count = 1
    for m in range(2, depth + 1):
        count *= constraints.allowed_digit_count(m)
    return count


def count_lower_bound(constraints: DigitConstraintSet, depth: int) -> Fraction:
    """The factorial-quotient lower bound j! / prod_{f(k)+1 <= j} (f(k)+1)."""
    denom = 1
    for m in constraints.constrained_positions(depth):
        denom *= m
    return Fraction(factorial(depth), denom)


def _index_in_e(constraints: DigitConstraintSet, k: int, depth: int) -> bool:
    """Whether the depth-cylinder anchored at k/depth! belongs to E u {0}."""
    for m in range(depth, 1, -1):
        k, digit = divmod(k, m)
        cap = constraints.cap_for_position(m)
        if cap is not None and digit > cap:
            return False
    return True


def cylinder_index(alpha: FactoradicReal, depth: int) -> int:
    """k with alpha = k/depth!, for a ZERO-tail alpha of depth <= depth."""
    if alpha.tail is not Tail.ZERO:
        raise ValueError("cylinder anchors must be exact (ZERO tail)")
    k = 0
    for m in range(2, depth + 1):
        k = k * m + (alpha.digit(m) if m <= alpha.depth else 0)
    return k


def measure_of_cylinder(
    constraints: DigitConstraintSet, alpha: FactoradicReal, depth: int
) -> Fraction:
    """mu of the depth-cylinder (alpha, alpha + 1/depth!), exactly 1/count."""
    if alpha.depth > depth and any(alpha.digit(m) for m in range(depth + 1, alpha.depth + 1)):
        raise ValueError(f"alpha has nonzero digits beyond depth {depth}")
    if not alpha.is_zero() and membership(constraints, alpha) is not Trit.YES:
        raise ValueError("alpha is not in (E(f,a) u {0})")
    return Fraction(1, count_cylinders(constraints, depth))


@dataclass
class MassViolation:
    depth: int
    b_lo: Fraction
    b_hi: Fraction
    mu: Fraction
    bound: float


@dataclass
class MassCheckReport:
    """Empirical mass-distribution evidence: mu(B) <= a |B|^s at tested scales."""

    s: float
    i0: int
    i_max: int
    a_constant: float
    violations: list[MassViolation] = field(default_factory=list)
    intervals_tested: int = 0

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "i0": self.i0,
            "i_max": self.i_max,
            "a_constant": self.a_constant,
            "intervals_tested": self.intervals_tested,
            "violations": [
                {
                    "depth": v.depth,
                    "B_lo": str(v.b_lo),
                    "B_hi": str(v.b_hi),
                    "mu": str(v.mu),
                    "bound": v.bound,
                }
                for v in self.violations
            ],
        }


def covering_measure(
    constraints: DigitConstraintSet, b_lo: Fraction, b_hi: Fraction, depth: int
) -> tuple[Fraction, int]:
    """(mu of the depth-cylinders meeting (b_lo, b_hi), how many cylinders meet it).

    The candidate anchors k/depth! are confined to an interval of length
    |B| + 1/depth!, so at most |B|*depth! + 2 cylinders are ever touched.
    """
    m_fact = factorial(depth)
    k_lo = max(0, math.floor(b_lo * m_fact))
    k_hi = min(m_fact - 1, math.ceil(b_hi * m_fact))
    hits = 0
    in_e = 0
    for k in range(k_lo, k_hi + 1):
        if Fraction(k, m_fact) < b_hi and Fraction(k + 1, m_fact) > b_lo:
            hits += 1
            if _index_in_e(constraints, k, depth):
                in_e += 1
    return Fraction(in_e, count_cylinders(constraints, depth)), hits


def chain_coefficient(constraints: DigitConstraintSet, depth: int, s: float) -> float:
    """3 (1/i!)^{1-s} prod_{f(j) <= i} (f(j)+1), the final mass-bound coefficient."""
    log_coeff = math.log(3.0) - (1.0 - s) * math.lgamma(depth + 1)
    for m in constraints.constrained_positions(depth + 1):  # m = f(j) + 1
        log_coeff += math.log(m)
    return math.exp(log_coeff)


def mass_check(
    constraints: DigitConstraintSet,
    s: float,
    i0: int,
    i_max: int,
    intervals_per_depth: int = 20,
    seed: int = 0,
) -> MassCheckReport:
    """Test mu(B) <= a |B|^s on random and cylinder-aligned intervals.

    For each depth i in [i0, i_max) intervals B with 1/(i+1)! < |B| <= 1/i!
    are checked against both the covering-count bound
    (|B| (i+1)! + 2) / count(i+1) and the closed-form coefficient
    3 (1/i!)^{1-s} prod (f(j)+1) |B|^s.  mu(B) is the exact mass of the
    depth-(i+1) cylinders meeting B (an upper bound for the true measure
    of B, which only strengthens the verdict).
    """
    if not (0 < s < 1):
        raise ValueError("need 0 < s < 1")
    if not (2 <= i0 < i_max):
        raise ValueError("need 2 <= i0 < i_max")
    rng = random.Random(seed)
    report = MassCheckReport(s=s, i0=i0, i_max=i_max, a_constant=0.0)
    for i in range(i0, i_max):
        rho_i = Fraction(1, factorial(i))
        rho_next = Fraction(1, factorial(i + 1))
        count_next = count_cylinders(constraints, i + 1)
        candidates: list[tuple[Fraction, Fraction]] = []
        # Cylinder-aligned edge cases: B straddling an anchor is where the
        # +2 in the covering count earns its keep.
        anchor = Fraction(rng.randrange(factorial(i + 1)), factorial(i + 1))
        candidates.append((anchor, anchor + rho_i))
        half = rho_next / 2
        candidates.append((anchor - half, anchor - half + rho_i))
        # Mass-carrying anchors: the zero cylinder and a random in-E anchor,
        # so sparse constraint sets still contribute to the empirical constant.
        candidates.append((Fraction(0), rho_i))
        k_in = 0
        for m in range(2, i + 2):
            hi = constraints.allowed_digit_count(m) - 1
            k_in = k_in * m + rng.randint(0, hi)
        e_anchor = Fraction(k_in, factorial(i + 1))
        candidates.append((e_anchor, e_anchor + rho_i))
        while len(candidates) < intervals_per_depth:
            width = rho_next + (rho_i - rho_next) * Fraction(rng.randrange(1, 1000), 1000)
            lo = Fraction(rng.randrange(10**6), 10**6) * (1 - width)
            candidates.append((lo, lo + width))
        for b_lo, b_hi in candidates:
            b_lo = max(b_lo, Fraction(0))
            b_hi = min(b_hi, Fraction(1))
            width = b_hi - b_lo
            if not (rho_next < width <= rho_i):
                continue
            mu, hits = covering_measure(constraints, b_lo, b_hi, i + 1)
            report.intervals_tested += 1
            covering_bound = Fraction(math.floor(width * factorial(i + 1)) + 2, count_next)
            chain = chain_coefficient(constraints, i, s) * float(width) ** s
            bound = min(float(covering_bound), chain)
            if mu > covering_bound or float(mu) > chain * (1 + 1e-12):
                report.violations.append(MassViolation(i, b_lo, b_hi, mu, bound))
            if width > 0 and mu > 0:
                report.a_constant = max(report.a_constant, float(mu) / float(width) ** s)
    return report


def dimension_lower_estimate(
    constraints: DigitConstraintSet, j_max: int
) -> list[tuple[int, float]]:
    """(j, log count / log j!) for j = 2..j_max: the full-dimension proxy series."""
    if j_max < 4:
        raise ValueError("j_max must be >= 4")
    out = []
    log_count = 0.0
    log_fact = 0.0
    for m in range(2, j_max + 1):
        log_count += math.log(constraints.allowed_digit_count(m))
        log_fact += math.log(m)
        out.append((m, log_count / log_fact))
    return out


def condition_ii_check(
    f: GrowthFunction, eps: float, i_max: int
) -> tuple[float, int, list[float]]:
    """g(i) = sum_{f(j)<=i} log(f(j)+1) - eps * log i!, its max and argmax.

    Boundedness of g over the tested range is the finite-scale witness
    that the growth function is fast enough for the full-dimension
    construction; for slow f the statistic runs off to +infinity.
    Returns (sup_log, attained_at, the full series g(1..i_max)).
    """
    if not (0 < eps < 1):
        raise ValueError("need 0 < eps < 1")
    if i_max < 1:
        raise ValueError("need i_max >= 1")
    series = []
    prod_log = 0.0
    fact_log = 0.0
    j = 1
    best = -math.inf
    best_at = 0
    for i in range(1, i_max + 1):
        fact_log += math.log(i)
        while f(j) <= i:
            prod_log += math.log(f(j) + 1)
            j += 1
        g = prod_log - eps * fact_log
        series.append(g)
        if g > best:
            best = g
            best_at = i
    return best, best_at, series
