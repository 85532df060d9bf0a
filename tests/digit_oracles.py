"""Exact reference computations that only the tests use.

Each one is a brute-force or textbook form of something the package
computes another way, so the tests can compare the two, or a bound and
measure from the paper that the package's exact counts supersede
(`count_lower_bound`, `measure_of_cylinder`), or a value builder
(`from_digit_map`).  The `*_by_caps` forms and `encode_greedy` are the
position-by-position loops that the allowed-digit table and the integer
X = floor(x depth!) replaced; `anchors_below_by_digits` is the digit walk
that the segment walk replaced, `mass_check_by_fractions` the
Fraction interval loop that the integer one replaced,
`dimension_lower_estimate_by_positions` the two-logs-per-position loop
that one log per position replaced, and `condition_ii_series` the whole
series whose running max `condition_ii_check` keeps.  `af_sum_50_digits`
sums e((n + f(n)!) alpha) at a digit prefix in 50-digit mpmath.
"""

import math
import random
from fractions import Fraction
from math import factorial

import mpmath

from besum.construction import (
    E_UPPER,
    DigitConstraintSet,
    GrowthFunction,
    WeightSequence,
    _bound_series,
    membership,
)
from besum.dimension import (
    INTERVALS_PER_DEPTH,
    _log,
    count_cylinders,
    log_chain_coefficient,
)
from besum.factoradic import FactoradicReal, InsufficientDepthError, Tail, Trit, decode


def from_digit_map(positions: dict[int, int], depth: int, tail: Tail = Tail.ZERO) -> FactoradicReal:
    """Build a value from a sparse position -> digit map (missing digits are 0)."""
    digits = [0] * (depth - 1)
    for n, s in positions.items():
        if not (2 <= n <= depth):
            raise ValueError(f"position {n} outside 2..{depth}")
        digits[n - 2] = s
    return FactoradicReal(tuple(digits), tail)


def is_rational_by_digits(f: FactoradicReal) -> Trit:
    """Rationality as witnessed by the digits: eventually-null tail <=> rational.

    A finite UNKNOWN prefix can never certify either answer, so the
    result is three-valued.
    """
    if f.tail is Tail.ZERO:
        return Trit.YES
    return Trit.UNKNOWN


def encode_greedy(x: Fraction, depth: int) -> FactoradicReal:
    """encode by greedy extraction: the remainder times n, its floor the digit at n."""
    digits = []
    r = Fraction(x)
    for n in range(2, depth + 1):
        r *= n
        s = int(r)  # floor: r >= 0
        digits.append(s)
        r -= s
    return FactoradicReal(tuple(digits), Tail.ZERO if r == 0 else Tail.UNKNOWN)


def membership_by_caps(constraints: DigitConstraintSet, alpha: FactoradicReal) -> Trit:
    """membership position by position, each stored digit against its cap."""
    for m in range(2, alpha.depth + 1):
        cap = constraints.cap_for_position(m)
        if cap is not None and alpha.digits[m - 2] > cap:
            return Trit.NO
    return Trit.YES if alpha.tail is Tail.ZERO else Trit.UNKNOWN


def sample_by_caps(constraints: DigitConstraintSet, depth: int, seed: int) -> FactoradicReal:
    """sample_e_set position by position: a uniform digit in 0..min(m - 1, cap) at each m."""
    rng = random.Random(seed)
    while True:
        digits = []
        for m in range(2, depth + 1):
            cap = constraints.cap_for_position(m)
            digits.append(rng.randint(0, m - 1 if cap is None else min(m - 1, cap)))
        if any(digits):
            return FactoradicReal(tuple(digits), Tail.ZERO)


def tail_sum_identity(n_lo: int, n_hi: int) -> tuple[Fraction, Fraction]:
    """Both sides of sum_{n=N+1}^{M} (n-1)/n! = 1/N! - 1/M!, exactly."""
    if not (2 <= n_lo < n_hi):
        raise ValueError("need 2 <= N < M")
    lhs = sum((Fraction(n - 1, factorial(n)) for n in range(n_lo + 1, n_hi + 1)), Fraction(0))
    rhs = Fraction(1, factorial(n_lo)) - Fraction(1, factorial(n_hi))
    return lhs, rhs


def enumerate_cylinder_digits(
    constraints: DigitConstraintSet, depth: int
) -> list[tuple[int, ...]]:
    """Brute-force enumeration of allowed digit tuples (test oracle; small depths)."""
    tuples: list[tuple[int, ...]] = [()]
    for m in range(2, depth + 1):
        cap = constraints.cap_for_position(m)
        hi = m - 1 if cap is None else min(m - 1, cap)
        tuples = [t + (d,) for t in tuples for d in range(hi + 1)]
    return tuples


def count_lower_bound(constraints: DigitConstraintSet, depth: int) -> Fraction:
    """The factorial-quotient lower bound j! / prod_{f(k)+1 <= j} (f(k)+1)."""
    denom = 1
    for m in constraints.constrained_positions(depth):
        denom *= m
    return Fraction(factorial(depth), denom)


def measure_of_cylinder(
    constraints: DigitConstraintSet, alpha: FactoradicReal, depth: int
) -> Fraction:
    """mu of the depth-cylinder (alpha, alpha + 1/depth!), exactly 1/count."""
    if any(alpha.digits[depth - 1:]):
        raise ValueError(f"alpha has nonzero digits beyond depth {depth}")
    is_zero = alpha.tail is Tail.ZERO and not any(alpha.digits)
    if not is_zero and membership(constraints, alpha) is not Trit.YES:
        raise ValueError("alpha is not in (E(f,a) u {0})")
    return Fraction(1, count_cylinders(constraints, depth))


def _index_in_e(constraints: DigitConstraintSet, k: int, depth: int) -> bool:
    """Whether the depth-cylinder anchored at k/depth! belongs to E u {0}."""
    for m in range(depth, 1, -1):
        k, digit = divmod(k, m)
        cap = constraints.cap_for_position(m)
        if cap is not None and digit > cap:
            return False
    return True


def covering_measure_by_anchors(
    constraints: DigitConstraintSet, b_lo: Fraction, b_hi: Fraction, depth: int
) -> tuple[Fraction, int]:
    """covering_measure anchor by anchor: each k/depth! tested against B and its caps.

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
    count = 1
    for m in range(2, depth + 1):
        cap = constraints.cap_for_position(m)
        count *= m if cap is None else min(m - 1, cap) + 1
    return Fraction(in_e, count), hits


def anchors_below_by_digits(counts: list[int], k: int) -> int:
    """#{0 <= k' < k : k'/depth! in E u {0}}, one digit of k at a time, where counts
    holds the allowed digit counts at positions 2..depth.

    Walks k's digits from position depth (least significant) up to 2.  A
    digit over its cap at position m drops what the positions after m
    added: no anchor that shares k's digits through m is a member.  k >=
    depth! (a nonzero quotient left over) counts every member.
    """
    below = 0
    completions = 1  # prod of counts at the positions after m
    for m in range(len(counts) + 1, 1, -1):
        k, digit = divmod(k, m)
        allowed = counts[m - 2]
        if digit >= allowed:
            below = allowed * completions
        else:
            below += digit * completions
        completions *= allowed
    return completions if k else below


def covering_measure_by_digits(
    constraints: DigitConstraintSet, b_lo: Fraction, b_hi: Fraction, depth: int
) -> tuple[Fraction, int]:
    """covering_measure with both end anchors counted digit by digit."""
    m_fact = factorial(depth)
    k_lo = max(0, b_lo.numerator * m_fact // b_lo.denominator)
    k_hi = min(m_fact - 1, -(-b_hi.numerator * m_fact // b_hi.denominator) - 1)
    hits = max(0, k_hi - k_lo + 1)
    in_e = 0
    if hits:
        counts = constraints.allowed_digit_counts(depth)
        in_e = anchors_below_by_digits(counts, k_hi + 1) - anchors_below_by_digits(counts, k_lo)
    return Fraction(in_e, count_cylinders(constraints, depth)), hits


def mass_check_by_fractions(
    constraints: DigitConstraintSet, s: float, i0: int, i_max: int, seed: int = 0
) -> dict:
    """mass_check with every endpoint, clamp, width test and bound a Fraction, and
    mu(B) from covering_measure_by_digits; the same random draws in the same order."""
    rng = random.Random(seed)
    violations = []
    tested = 0
    log_a = -math.inf
    for i in range(i0, i_max):
        m_fact = factorial(i + 1)
        rho_i = Fraction(1, factorial(i))
        rho_next = Fraction(1, m_fact)
        count_next = count_cylinders(constraints, i + 1)
        log_chain_i = log_chain_coefficient(constraints, i, s)
        candidates: list[tuple[Fraction, Fraction]] = []
        anchor = Fraction(rng.randrange(m_fact), m_fact)
        candidates.append((anchor, anchor + rho_i))
        half = rho_next / 2
        candidates.append((anchor - half, anchor - half + rho_i))
        candidates.append((Fraction(0), rho_i))
        digits = tuple(map(rng.randrange, constraints.allowed_digit_counts(i + 1)))
        e_anchor = Fraction(FactoradicReal(digits).numerator, m_fact)
        candidates.append((e_anchor, e_anchor + rho_i))
        while len(candidates) < INTERVALS_PER_DEPTH:
            width = rho_next + (rho_i - rho_next) * Fraction(rng.randrange(1, 1000), 1000)
            lo = Fraction(rng.randrange(10**6), 10**6) * (1 - width)
            candidates.append((lo, lo + width))
        for b_lo, b_hi in candidates:
            b_lo = max(b_lo, Fraction(0))
            b_hi = min(b_hi, Fraction(1))
            width = b_hi - b_lo
            if not (rho_next < width <= rho_i):
                continue
            mu, _ = covering_measure_by_digits(constraints, b_lo, b_hi, i + 1)
            tested += 1
            covering_bound = Fraction(width.numerator * m_fact // width.denominator + 2, count_next)
            log_mu = _log(mu) if mu else -math.inf
            log_width = _log(width)
            log_chain = log_chain_i + s * log_width
            if mu > covering_bound or log_mu > log_chain + 1e-12:
                bound = min(float(covering_bound), math.exp(log_chain))
                violations.append({"depth": i, "B_lo": str(b_lo), "B_hi": str(b_hi),
                                   "mu": str(mu), "bound": bound})
            log_a = max(log_a, log_mu - s * log_width)
    return {"s": s, "i0": i0, "i_max": i_max, "a_constant": math.exp(log_a),
            "intervals_tested": tested, "violations": violations}


def frac_factorial_by_digits(m: int, f: FactoradicReal) -> tuple[Fraction, Fraction]:
    """{m! alpha} and its error bound by Horner over the digits at positions m+1..depth."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if f.tail is Tail.UNKNOWN and m >= f.depth:
        raise InsufficientDepthError(f"{{m! alpha}} with m={m} needs depth > m, have {f.depth}")
    num = 0
    den = 1
    for i in range(m + 1, f.depth + 1):
        num = num * i + f.digits[i - 2]
        den *= i
    value = Fraction(num, den)
    if f.tail is Tail.ZERO:
        return value, Fraction(0)
    return value, Fraction(1, den)


def af_sum_50_digits(f: GrowthFunction, alpha: FactoradicReal, n_max: int) -> complex:
    """sum_{n<=N} e((n + f(n)!) x) at the prefix x = X/depth!, in 50-digit mpmath.

    Each phase is reduced mod 1 exactly, in Fractions, before it is rounded.
    The n with f(n) < depth are summed term by term; past them f(n)! x is an
    integer, and the K = N - n0 + 1 terms e(n x), n0 <= n <= N, are
    e((2 n0 + K - 1) x/2) sin(pi K x)/sin(pi x).
    """
    x = decode(alpha)[0]
    with mpmath.workdps(50):
        def turn(t: Fraction):
            t %= 1
            return mpmath.expjpi(2 * mpmath.mpf(t.numerator) / t.denominator)

        def sin_pi(t: Fraction):  # from the distance of t to the nearest integer, so tiny sines keep their digits
            sign, t = (-1) ** int(t % 2), t % 1
            t = min(t, 1 - t)
            return sign * mpmath.sinpi(mpmath.mpf(t.numerator) / t.denominator)

        total, n = mpmath.mpc(0), 1
        while n <= n_max and f(n) < alpha.depth:
            total += turn((n + factorial(f(n))) * x)
            n += 1
        k = n_max - n + 1
        if k > 0 and x:
            total += turn((2 * n + k - 1) * x / 2) * sin_pi(k * x) / sin_pi(x)
        elif k > 0:
            total += k
        return complex(total)


def phase_error_formula(f: GrowthFunction, alpha: FactoradicReal, n_max: int) -> float:
    """2 pi (N(N+1)/2 + sum_{n<=N} f(n)!)/depth! for an UNKNOWN tail, 0 for a ZERO one."""
    if alpha.tail is Tail.ZERO:
        return 0.0
    budget = n_max * (n_max + 1) // 2 + sum(factorial(f(n)) for n in range(1, n_max + 1))
    return 2.0 * math.pi * (budget / factorial(alpha.depth))


def bound_series_sum(f: GrowthFunction, a: WeightSequence, n_terms: int) -> Fraction:
    """Exact sum_{n<=N} (1/a_n + e/(f(n)+1)) with e its rational upper bound."""
    return Fraction(*_bound_series(f, a, n_terms))


def bound_series_by_terms(f: GrowthFunction, a: WeightSequence, n_terms: int) -> Fraction:
    """sum_{n<=N} (1/a_n + E_UPPER/(f(n)+1)), one Fraction addition per term."""
    acc = Fraction(0)
    for n in range(1, n_terms + 1):
        acc += Fraction(1, a(n)) + E_UPPER / (f(n) + 1)
    return acc


def dimension_lower_estimate_by_positions(
    constraints: DigitConstraintSet, j_max: int
) -> list[tuple[int, float]]:
    """dimension_lower_estimate with two logs at every position: log allowed(m) and log m."""
    out = []
    log_count = 0.0
    log_fact = 0.0
    for m, allowed in enumerate(constraints.allowed_digit_counts(j_max), start=2):
        log_count += math.log(allowed)
        log_fact += math.log(m)
        out.append((m, log_count / log_fact))
    return out


def condition_ii_series(f: GrowthFunction, eps: float, i_max: int) -> list[float]:
    """g(1..i_max), g(i) = sum_{f(j)<=i} log(f(j)+1) - eps * log i!, in the same float
    steps as condition_ii_check."""
    series = []
    prod_log = 0.0
    fact_log = 0.0
    j = 1
    for i in range(1, i_max + 1):
        fact_log += math.log(i)
        while f(j) <= i:
            prod_log += math.log(f(j) + 1)
            j += 1
        series.append(prod_log - eps * fact_log)
    return series
