"""Exact factorial-base (factoradic) representation of reals in [0,1).

A real alpha in [0,1) has a unique expansion alpha = sum_{n>=2} s_n/n!
with 0 <= s_n <= n-1, once expansions ending in the all-(n-1) tail are
excluded.  Position 1 carries digit 0 always and is not stored.  A value
is represented by a finite digit prefix together with a tail policy:
either the remaining digits are all zero (the value is exactly the
stored rational) or they are unspecified, in which case the value is
only known to lie in an interval of width 1/depth!.

All arithmetic here is exact (ints and Fractions); floats appear only
in downstream consumers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import TextIO

DEFAULT_DEPTH = 32


class Tail(enum.Enum):
    """What is known about digits beyond the stored prefix."""

    ZERO = "ZERO"
    UNKNOWN = "UNKNOWN"


class Trit(enum.Enum):
    """Three-valued verdict for questions a finite prefix may not settle."""

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class InsufficientDepthError(ValueError):
    """Raised when an operation needs digits beyond the stored prefix."""

    def __init__(self, message: str, required_depth: int | None = None):
        super().__init__(message)
        self.required_depth = required_depth


@dataclass(frozen=True)
class FactoradicReal:
    """Finite factoradic digit prefix with a tail policy.

    ``digits[k]`` is the digit at position ``k + 2``; the last stored
    position is ``depth``.  Immutable and safe to share.
    """

    digits: tuple[int, ...]
    tail: Tail = Tail.ZERO

    def __post_init__(self):
        if len(self.digits) < 1:
            raise ValueError("need digits for at least position 2 (depth >= 2)")
        for k, s in enumerate(self.digits):
            n = k + 2
            if not (0 <= s <= n - 1):
                raise ValueError(f"digit {s} at position {n} outside [0, {n - 1}]")

    @property
    def depth(self) -> int:
        return len(self.digits) + 1

    def digit(self, n: int) -> int:
        """Digit at position n >= 1; beyond depth only a ZERO tail answers."""
        if n < 1:
            raise ValueError("positions start at 1")
        if n == 1:
            return 0
        if n <= self.depth:
            return self.digits[n - 2]
        if self.tail is Tail.ZERO:
            return 0
        raise InsufficientDepthError(
            f"digit at position {n} unknown beyond depth {self.depth}",
            required_depth=n,
        )

    def is_zero(self) -> bool:
        return self.tail is Tail.ZERO and not any(self.digits)


def encode(x: Fraction | int, depth: int = DEFAULT_DEPTH) -> FactoradicReal:
    """Greedy digit extraction of an exact rational in [0,1).

    The remainder after position n is n!-scaled back into [0,1); greedy
    extraction on an exact rational terminates with remainder zero rather
    than emitting the forbidden all-max tail, so a ZERO tail here always
    denotes the exact value.
    """
    x = Fraction(x)
    if not (0 <= x < 1):
        raise ValueError(f"value {x} outside [0, 1)")
    if depth < 2:
        raise ValueError("depth must be >= 2")
    digits = []
    r = x
    for n in range(2, depth + 1):
        r *= n
        s = int(r)  # floor: r >= 0
        digits.append(s)
        r -= s
    tail = Tail.ZERO if r == 0 else Tail.UNKNOWN
    return FactoradicReal(tuple(digits), tail)


def decode(f: FactoradicReal) -> tuple[Fraction, Fraction]:
    """Exact interval [lower, upper] containing the represented value.

    lower is the stored prefix sum; an UNKNOWN tail adds at most 1/depth!.
    """
    num = 0
    for k, s in enumerate(f.digits):
        num = num * (k + 2) + s
    lower = Fraction(num, factorial(f.depth))
    if f.tail is Tail.ZERO:
        return lower, lower
    return lower, lower + Fraction(1, factorial(f.depth))


def frac_factorial(m: int, f: FactoradicReal) -> tuple[Fraction, Fraction]:
    """Exact fractional part of m! * alpha, from digits beyond position m.

    m! * sum_{i<=m} s_i/i! is an integer and drops out; the digits at
    positions m+1..depth contribute sum s_i * m!/i!, which lies in [0,1).
    Returns (value, error_bound): the true {m! alpha} lies in
    [value, value + error_bound], with error_bound = m!/depth! for an
    UNKNOWN tail and 0 otherwise.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if f.tail is Tail.UNKNOWN and m >= f.depth:
        raise InsufficientDepthError(
            f"{{m! alpha}} with m={m} needs depth > m, have {f.depth}",
            required_depth=m + 1,
        )
    # Horner over positions m+1..depth: value = num / ((m+1)(m+2)...depth).
    num = 0
    den = 1
    for i in range(m + 1, f.depth + 1):
        num = num * i + f.digit(i)
        den *= i
    value = Fraction(num, den)
    if f.tail is Tail.ZERO:
        return value, Fraction(0)
    return value, Fraction(1, den)


# --- digit-file format ------------------------------------------------------
#
#   factoradic v1
#   depth=<D>
#   tail=<ZERO|UNKNOWN>
#   <s_2> <s_3> ... <s_D>

MAGIC = "factoradic v1"


def write_digit_file(f: FactoradicReal, fp: TextIO) -> None:
    fp.write(f"{MAGIC}\n")
    fp.write(f"depth={f.depth}\n")
    fp.write(f"tail={f.tail.value}\n")
    fp.write(" ".join(str(s) for s in f.digits) + "\n")


def read_digit_file(fp: TextIO) -> FactoradicReal:
    lines = [ln.strip() for ln in fp if ln.strip()]
    if not lines or lines[0] != MAGIC:
        raise ValueError(f"missing '{MAGIC}' header")
    fields = {}
    for ln in lines[1:3]:
        key, _, val = ln.partition("=")
        fields[key] = val
    try:
        depth = int(fields["depth"])
        tail = Tail(fields["tail"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad digit-file header: {exc}") from exc
    digits = tuple(int(tok) for tok in " ".join(lines[3:]).split())
    if len(digits) != depth - 1:
        raise ValueError(f"expected {depth - 1} digits for depth {depth}, got {len(digits)}")
    return FactoradicReal(digits, tail)  # digit range re-checked by the constructor


def from_digit_map(positions: dict[int, int], depth: int, tail: Tail = Tail.ZERO) -> FactoradicReal:
    """Build a value from a sparse position -> digit map (missing digits are 0)."""
    digits = [0] * (depth - 1)
    for n, s in positions.items():
        if not (2 <= n <= depth):
            raise ValueError(f"position {n} outside 2..{depth}")
        digits[n - 2] = s
    return FactoradicReal(tuple(digits), tail)
