"""Cylinder counting, the mass-distribution measure, and dimension estimates.

Depth-i rationals Z_i = {k/i! : 0 <= k < i!} index the depth-i cylinder
intervals (alpha, alpha + 1/i!).  The measure assigns each cylinder that
meets E(f,a) (union the zero point) the same mass 1/count, where count
is the exact number of allowed digit tuples -- a plain product over
positions, computed exactly instead of through the paper-style factorial
lower bound (which becomes a test here, being strictly weaker).

The anchor k/i! lies in E(f,a) u {0} exactly when every mixed-radix
digit of k (positions 2..i) is within its cap, so the members among
k < K are counted from the digits of K alone: a digit d at position m
contributes min(d, allowed(m)) * prod_{m' > m} allowed(m') and the walk
stops after the first digit over its cap.  E(f,a) caps only the
positions f(j)+1, and a run of uncapped positions lo..hi allows every
digit, so the walk reads the whole run as one digit of radix
hi!/(lo-1)!.  The mass of any interval B therefore costs one big-integer
divmod per capped position and per run of uncapped positions, however
many cylinders B meets.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from itertools import accumulate
from math import factorial
from operator import truediv

from .construction import DigitConstraintSet, GrowthFunction, ResourceBudgetError, profile
from .factoradic import FactoradicReal

# Largest j_max dimension_lower_estimate accepts: it keeps float lists of
# that length, and the series prints 66 bytes a position (0.44 GB peak at
# the limit).
DIMENSION_MAX_J = 10**6
# Largest i_max condition_ii_check accepts: it keeps no per-i list, so the
# limit bounds only its run time (i_max steps of a few float logs).
CONDITION_II_MAX_I = 10**6


def count_cylinders(constraints: DigitConstraintSet, depth: int) -> int:
    """Exact #((E(f,a) u {0}) n Z_depth): product of allowed digit counts."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    return math.prod(constraints.allowed_digit_counts(depth))


class CylinderProfile:
    """The depth-cylinders of E(f,a) u {0}: how many there are, depth!, and
    the segments the anchor count walks (module docstring).

    A segment is (radix, allowed), least significant first: a capped
    position m is (m, its allowed digit count), a run of uncapped
    positions is (its radix, the same radix).
    """

    def __init__(self, constraints: DigitConstraintSet, depth: int):
        self.count = count_cylinders(constraints, depth)
        self.depth_fact = factorial(depth)
        counts = constraints.allowed_digit_counts(depth)
        segments: list[tuple[int, int]] = []
        for m in range(depth, 1, -1):
            allowed = counts[m - 2]
            if allowed == m and segments and segments[-1][0] == segments[-1][1]:
                radix = segments[-1][0] * m
                segments[-1] = (radix, radix)
            else:
                segments.append((m, allowed))
        self.segments = segments

    def anchors_below(self, k: int) -> int:
        """#{0 <= k' < k : k'/depth! in E u {0}}.

        Walks k's segments from position depth up to 2.  A digit over its
        cap drops what the segments after it added: no anchor that shares
        k's digits through it is a member.  k >= depth! (a nonzero quotient
        left over) counts every member.
        """
        below = 0
        completions = 1  # prod of allowed counts over the segments already walked
        for radix, allowed in self.segments:
            k, digit = divmod(k, radix)
            if digit >= allowed:
                below = allowed * completions
            else:
                below += digit * completions
            completions *= allowed
        return completions if k else below


def covering_measure(
    constraints: DigitConstraintSet, b_lo: Fraction, b_hi: Fraction, depth: int
) -> tuple[Fraction, int]:
    """(mu of the depth-cylinders meeting (b_lo, b_hi), how many cylinders meet it).

    With M = depth!, the cylinder (k/M, (k+1)/M) meets B for k_lo <= k <=
    k_hi, k_lo = max(0, floor(b_lo M)) and k_hi = min(M - 1, ceil(b_hi M) - 1),
    both in integer arithmetic.  The members of E u {0} among those
    anchors are below(k_hi + 1) - below(k_lo), each read segment by segment
    from its argument (module docstring): one divmod per capped position
    and per run of uncapped positions, whatever |B| is.
    """
    cylinders = profile(CylinderProfile, constraints, depth)
    m_fact = cylinders.depth_fact
    k_lo = max(0, b_lo.numerator * m_fact // b_lo.denominator)
    k_hi = min(m_fact - 1, -(-b_hi.numerator * m_fact // b_hi.denominator) - 1)
    hits = max(0, k_hi - k_lo + 1)
    in_e = cylinders.anchors_below(k_hi + 1) - cylinders.anchors_below(k_lo) if hits else 0
    return Fraction(in_e, cylinders.count), hits


def log_chain_coefficient(constraints: DigitConstraintSet, depth: int, s: float) -> float:
    """log of 3 (1/i!)^{1-s} prod_{f(j) <= i} (f(j)+1), the final mass-bound coefficient."""
    log_coeff = math.log(3.0) - (1.0 - s) * math.lgamma(depth + 1)
    for m in constraints.constrained_positions(depth + 1):  # m = f(j) + 1
        log_coeff += math.log(m)
    return log_coeff


def _log(x: Fraction) -> float:
    """log x for a positive Fraction of any size (float(x) may underflow)."""
    return math.log(x.numerator) - math.log(x.denominator)


# Intervals B that mass_check draws at each depth.
INTERVALS_PER_DEPTH = 20

# a_constant must be a normal float: log of the smallest and largest.
_LOG_FLOAT_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))


def mass_check(
    constraints: DigitConstraintSet,
    s: float,
    i0: int,
    i_max: int,
    seed: int = 0,
) -> dict:
    """Test mu(B) <= a |B|^s on random and cylinder-aligned intervals: the
    `mass-check` document.

    For each depth i in [i0, i_max) intervals B with 1/(i+1)! < |B| <= 1/i!
    are checked against both the covering-count bound
    (|B| (i+1)! + 2) / count(i+1) and the closed-form coefficient
    3 (1/i!)^{1-s} prod (f(j)+1) |B|^s.  mu(B) is the exact mass of the
    depth-(i+1) cylinders meeting B (an upper bound for the true measure
    of B, which only strengthens the verdict).  The chain comparison and
    a_constant, the largest mu(B)/|B|^s, are worked out in logs, as |B|^s
    leaves the float range near depth 178; a ValueError names the depth
    and s when a_constant itself is outside the normal float range.
    Each violation gives its depth, B as exact fractions, mu(B) and the
    smaller of the two bounds.
    """
    if not (0 < s < 1):
        raise ValueError("need 0 < s < 1")
    if not (2 <= i0 < i_max):
        raise ValueError("need 2 <= i0 < i_max")
    rng = random.Random(seed)
    violations = []
    tested = 0
    log_a, log_a_depth = -math.inf, i0
    # Every endpoint drawn at depth i is a numerator over den = 10^9 (i+1)!:
    # anchors k/(i+1)!, the half-cylinder shift, widths
    # (1000 + i r)/(1000 (i+1)!) and offsets u/10^6.  1/(i+1)! is `unit`.
    unit = 10**9
    for i in range(i0, i_max):
        cylinders = profile(CylinderProfile, constraints, i + 1)
        m_fact = cylinders.depth_fact
        den = unit * m_fact
        rho_i = (i + 1) * unit  # 1/i!
        log_chain_i = log_chain_coefficient(constraints, i, s)
        candidates: list[tuple[int, int]] = []
        # Cylinder-aligned edge cases: B straddling an anchor is where the
        # +2 in the covering count earns its keep.
        anchor = rng.randrange(m_fact) * unit
        candidates.append((anchor, anchor + rho_i))
        half = unit // 2
        candidates.append((anchor - half, anchor - half + rho_i))
        # Mass-carrying anchors: the zero cylinder and a random in-E anchor,
        # so sparse constraint sets still contribute to the empirical constant.
        candidates.append((0, rho_i))
        digits = tuple(map(rng.randrange, constraints.allowed_digit_counts(i + 1)))
        e_anchor = FactoradicReal(digits).numerator * unit
        candidates.append((e_anchor, e_anchor + rho_i))
        while len(candidates) < INTERVALS_PER_DEPTH:
            width = (1000 + i * rng.randrange(1, 1000)) * 10**6
            lo = rng.randrange(10**6) * ((den - width) // 10**6)  # both multiples of 10^6
            candidates.append((lo, lo + width))
        for lo, hi in candidates:
            lo, hi = max(lo, 0), min(hi, den)
            width = hi - lo
            if not (unit < width <= rho_i):
                continue
            b_lo, b_hi = Fraction(lo, den), Fraction(hi, den)
            mu, _ = covering_measure(constraints, b_lo, b_hi, i + 1)
            tested += 1
            # The covering bound (|B| (i+1)! + 2) / count(i+1), times count(i+1).
            covering_count = width // unit + 2
            log_mu = _log(mu) if mu else -math.inf
            log_width = _log(Fraction(width, den))
            log_chain = log_chain_i + s * log_width
            # 1e-12: the relative slack of the chain comparison, as a log.
            if (mu.numerator * cylinders.count > covering_count * mu.denominator
                    or log_mu > log_chain + 1e-12):
                bound = min(covering_count / cylinders.count, math.exp(log_chain))
                violations.append({"depth": i, "B_lo": str(b_lo), "B_hi": str(b_hi),
                                   "mu": str(mu), "bound": bound})
            if log_mu - s * log_width > log_a:
                log_a, log_a_depth = log_mu - s * log_width, i
    if not _LOG_FLOAT_RANGE[0] <= log_a <= _LOG_FLOAT_RANGE[1]:
        raise ValueError(
            f"a_constant = exp({log_a:.6g}), the largest mu(B)/|B|^s (depth {log_a_depth}, "
            f"s = {s}), is outside the normal float range"
        )
    return {"s": s, "i0": i0, "i_max": i_max, "a_constant": math.exp(log_a),
            "intervals_tested": tested, "violations": violations}


def dimension_lower_estimate(
    constraints: DigitConstraintSet, j_max: int
) -> list[tuple[int, float]]:
    """(j, log count / log j!) for j = 2..j_max: the full-dimension proxy series.

    Both logs are running sums over positions m = 2..j.  An uncapped
    position allows all m digits, so its log m serves both sums: one log
    per position, and a second only at the capped positions f(i)+1.
    """
    if j_max < 4:
        raise ValueError("j_max must be >= 4")
    if j_max > DIMENSION_MAX_J:  # before the per-position lists
        raise ResourceBudgetError(f"j_max {j_max} is over the limit of {DIMENSION_MAX_J} "
                                  "(dimension.DIMENSION_MAX_J)")
    positions = range(2, j_max + 1)
    log_m = list(map(math.log, positions))
    log_allowed = log_m.copy()
    counts = constraints.allowed_digit_counts(j_max)
    for m in constraints.constrained_positions(j_max):
        log_allowed[m - 2] = math.log(counts[m - 2])
    return list(zip(positions, map(truediv, accumulate(log_allowed), accumulate(log_m))))


def condition_ii_check(f: GrowthFunction, eps: float, i_max: int) -> tuple[float, int]:
    """g(i) = sum_{f(j)<=i} log(f(j)+1) - eps * log i!: its max over i <= i_max and
    the first i at the max.

    Boundedness of g over the tested range is the finite-scale witness
    that the growth function is fast enough for the full-dimension
    construction; for slow f the statistic runs off to +infinity.
    """
    if not (0 < eps < 1):
        raise ValueError("need 0 < eps < 1")
    if i_max < 1:
        raise ValueError("need i_max >= 1")
    if i_max > CONDITION_II_MAX_I:
        raise ResourceBudgetError(f"i_max {i_max} is over the limit of {CONDITION_II_MAX_I} "
                                  "(dimension.CONDITION_II_MAX_I)")
    sup, at = -math.inf, 0
    prod_log = 0.0
    fact_log = 0.0
    j, fn = 1, f.fn
    fj = fn(j)  # f(j), evaluated once per j, without GrowthFunction.__call__
    for i in range(1, i_max + 1):
        fact_log += math.log(i)
        while fj <= i:
            prod_log += math.log(fj + 1)
            j += 1
            fj = fn(j)
        g = prod_log - eps * fact_log
        if g > sup:  # strict, so `at` is the first i at the max
            sup, at = g, i
    return sup, at
