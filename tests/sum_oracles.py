"""Term-by-term exponential sums that only the tests use.

Each one adds unit terms one at a time through `SumTrace.add_unit`, or
uses a textbook closed form, so the tests can compare them with the
package's periodic and batched sums.  Angles are Fractions in (0,1).
"""

from fractions import Fraction
from typing import Iterable

from besum.expsum import SumTrace, e


def stream_sum(terms: Iterable[float | Fraction], trace: SumTrace | None = None) -> SumTrace:
    """Advance a trace by the given terms (angles in turns, already reduced mod 1)."""
    if trace is None:
        trace = SumTrace()
    for t in terms:
        trace.add_unit(e(float(t)))
    return trace


def full_interval_sum(alpha: Fraction, n_terms: int) -> complex:
    """sum_{n<=N} e(n*alpha) by the closed form (e((N+1)a) - e(a)) / (e(a) - 1)."""
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    p, q = alpha.numerator, alpha.denominator
    top = e((n_terms + 1) * p % q / q) - e(float(alpha))
    return top / (e(float(alpha)) - 1.0)


def sum_over_set(elements: Iterable[int], alpha: Fraction, n_max: int) -> SumTrace:
    """S_A(alpha, N): sum of e(n*alpha) over elements n <= n_max, with sup trace."""
    p, q = alpha.numerator, alpha.denominator
    return stream_sum(Fraction(n * p % q, q) for n in elements if n <= n_max)


def symmetry_check(elements: Iterable[int], alpha: Fraction, n_max: int) -> tuple[complex, complex]:
    """(conj S_A(alpha,N), S_A(1-alpha,N)); the two agree for any finite A."""
    elems = [n for n in elements if n <= n_max]
    lhs = sum_over_set(elems, alpha, n_max).partial_sum.conjugate()
    rhs = sum_over_set(elems, 1 - alpha, n_max).partial_sum
    return lhs, rhs
