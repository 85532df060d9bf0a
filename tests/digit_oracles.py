"""Exact reference computations that only the tests use.

Each one is a brute-force or textbook form of something the package
computes another way, so the tests can compare the two.
"""

from fractions import Fraction
from math import factorial

from besum.construction import DigitConstraintSet
from besum.factoradic import FactoradicReal, Tail, Trit


def is_rational_by_digits(f: FactoradicReal) -> Trit:
    """Rationality as witnessed by the digits: eventually-null tail <=> rational.

    A finite UNKNOWN prefix can never certify either answer, so the
    result is three-valued.
    """
    if f.tail is Tail.ZERO:
        return Trit.YES
    return Trit.UNKNOWN


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
        hi = constraints.allowed_digit_count(m) - 1
        tuples = [t + (d,) for t in tuples for d in range(hi + 1)]
    return tuples
